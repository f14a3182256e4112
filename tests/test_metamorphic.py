"""Metamorphic relations of the four analyses and the three tables: changes of
the input corpus that must leave `h11.json` … `h22.json`, `routines.csv`,
`annotated_corpus.csv` and `task_features.csv` as they were, or change them in
one known way."""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from align.corpus import Corpus
from align.report import ANALYSES, Pipeline, annotated_table, measures_table, routine_table

from _builders import times_mapped, valid_corpora

# few phrases, of node names, instruction verbs, fillers and "oh", so that most
# teams repeat expressions, instruct, get verdicts and say every marker the
# analyses count, and the summary tests have enough teams with values
_PHRASES = ["connect node1 to node2", "cut node2 node3", "node1 to node2", "uh", "um", "oh",
            "okay"]
_texts = st.lists(st.sampled_from(_PHRASES), max_size=3).map(" ".join)
# Sessions of a minute, so that events come within a second of each other and
# of the window. Doubling a float is exact, and without subnormal times the
# analyses' arithmetic on doubled times rounds as it does on the originals:
# `_median`'s (a + b) / 2 rounds on the subnormal grid, so the median of two
# doubled subnormal times need not be their median doubled.
_corpora = valid_corpora(texts=_texts, teams=(3, 6), utterances=(8, 16), max_time=60.0,
                         subnormal=False)
_windows = st.floats(1e-3, 70.0)
# Shrinking a corpus of this size takes minutes, so a failing example is
# reported as drawn; the assertion names the analysis run that differs.
_examples = settings(max_examples=40, deadline=None, derandomize=True,
                     phases=[Phase.explicit, Phase.generate])


def _options(window: float) -> list[tuple[str, dict]]:
    """Every analysis with every value of its options."""
    runs = [("h1.1", {}), ("h1.1", {"window": window}),
            ("h1.2", {}), ("h1.2", {"markers": frozenset({"okay", "um"})})]
    runs += [("h2.1", {**options, "grouped": grouped})
             for options in ({}, {"window": window}) for grouped in (False, True)]
    runs += [("h2.2", {"oh_events": oh, "mm_events": mm}) for oh in ("token", "utterance")
             for mm in ("action", "utterance")]
    return runs


def _analyses(corpus: Corpus, window: float) -> dict[str, str]:
    """The text of `h*.json` for each of `_options(window)`, with and without
    `clear_on_verdict`, by a name of the run: each analysis is a step of one
    pass over the teams."""
    texts = {}
    for clear_on_verdict in (False, True):
        pipeline = Pipeline(corpus, clear_on_verdict=clear_on_verdict)
        runs = [(f"{hypothesis} {options} clear_on_verdict={clear_on_verdict}",
                 ANALYSES[hypothesis](pipeline, **options))
                for hypothesis, options in _options(window)]
        pipeline.run(*(step for _, step in runs))
        for run, step in runs:  # the bytes that write_json writes
            texts[run] = json.dumps(step.report().to_dict(), indent=2, sort_keys=True) + "\n"
    return texts


def _tables(corpus: Corpus) -> dict[str, list[list[str]]]:
    """The rows of `routines.csv`, `annotated_corpus.csv` and `task_features.csv`,
    header first, as `align all` writes them in one pass, by file name; the
    annotated corpus also as `--clear-on-verdict` writes it."""
    tables = {}
    with tempfile.TemporaryDirectory() as tmp:
        for clear_on_verdict in (False, True):
            pipeline = Pipeline(corpus, clear_on_verdict=clear_on_verdict)
            out = Path(tmp) / str(clear_on_verdict)
            with routine_table(pipeline, out / "routines.csv") as routines, \
                    annotated_table(pipeline, out / "annotated_corpus.csv") as annotated, \
                    measures_table(pipeline, out / "task_features.csv") as measures:
                pipeline.run(routines, annotated, measures)
            for table in (routines, annotated, measures):
                name = f"{table.path.name} clear_on_verdict={clear_on_verdict}"
                with open(table.path, newline="", encoding="utf-8") as handle:
                    tables[name] = list(csv.reader(handle))
    return tables


def _mapped_columns(tables: dict[str, list[list[str]]], cells: dict[str, object]) -> dict:
    """The tables with each column named in `cells` mapped, a cell at a time, by its function."""
    mapped = {}
    for name, (header, *rows) in tables.items():
        maps = [cells.get(column, str) for column in header]
        mapped[name] = [header, *([f(cell) for f, cell in zip(maps, row)] for row in rows)]
    return mapped


def _doubled_times(document: dict) -> dict:
    """A `h*.json` document with every float under a time key doubled: the row
    cells, summary values and distribution series named `*_abs`, `*_common` and
    `common_window_sec`."""
    def cell(name: str, value):
        timed = name.endswith(("_abs", "_common")) or name == "common_window_sec"
        return 2 * value if timed and type(value) is float else value

    return {**document,
            "per_team_rows": [{name: cell(name, value) for name, value in row.items()}
                              for row in document["per_team_rows"]],
            "summary": {name: cell(name, value) for name, value in document["summary"].items()},
            "distributions": {series: {team: [cell(series, value) for value in values]
                                       for team, values in by_team.items()}
                              for series, by_team in document["distributions"].items()}}


@_examples
@given(_corpora, _windows)
def test_property_doubling_every_time_doubles_the_time_values_bit_for_bit(corpus, window):
    """With every input time and the window doubled, every `*_abs`, `*_common` and
    `common_window_sec` value doubles and every other value keeps its bits: the
    normalized views, token positions, ranks, U, Cliff's delta and the p-values."""
    original = _analyses(corpus, window)
    doubled = _analyses(times_mapped(corpus, lambda t: 2 * t, lambda t: 2 * t), 2 * window)
    for (run, before), after in zip(original.items(), doubled.values()):
        # the JSON text of a float is its shortest repr, so equal texts are equal bits
        assert (json.dumps(_doubled_times(json.loads(before)), sort_keys=True)
                == json.dumps(json.loads(after), sort_keys=True)), run


def _doubled(cell: str) -> str:
    """A float cell doubled; the text of a float is its shortest repr, so equal texts are equal bits."""
    return repr(2 * float(cell))


@_examples
@given(_corpora)
def test_property_doubling_every_time_doubles_the_time_cells_of_the_tables_bit_for_bit(corpus):
    """With every input time doubled, every priming, establishment, action and
    duration time doubles, and every other cell stays as it was."""
    doubled = _tables(times_mapped(corpus, lambda t: 2 * t, lambda t: 2 * t))
    times = dict.fromkeys(["priming_time", "establishment_time", "time", "duration_sec"], _doubled)
    assert doubled == _mapped_columns(_tables(corpus), times)


_SWAPPED = {"A": "B", "B": "A", "I": "I"}


def _speakers_swapped(corpus: Corpus) -> Corpus:
    """Interlocutors A and B swapped in the utterances, the test scores and
    `first_visual`; the robot stays."""
    return corpus._replace(teams=tuple(tc._replace(
        utterance_rows=tuple(row._replace(speaker=_SWAPPED[row.speaker])
                             for row in tc.utterance_rows),
        scores=tuple(score._replace(speaker=_SWAPPED[score.speaker]) for score in tc.scores),
        first_visual=_SWAPPED[tc.first_visual]) for tc in corpus.teams))


@_examples
@given(_corpora, _windows)
def test_property_swapping_the_interlocutors_keeps_every_analysis_byte_identical(corpus,
                                                                                 window):
    """Who is A and who is B is a label: the routines, instructions, verdicts,
    learning groups and so every value of every analysis stay as they were."""
    assert _analyses(_speakers_swapped(corpus), window) == _analyses(corpus, window)


def _learning_swapped(tables: dict[str, list[list[str]]]) -> dict:
    """The tables with the cells of the `learn_A` and `learn_B` columns swapped."""
    swapped = {}
    for name, (header, *rows) in tables.items():
        order = list(range(len(header)))
        if "learn_A" in header:
            a, b = header.index("learn_A"), header.index("learn_B")
            order[a], order[b] = b, a
        swapped[name] = [header, *([row[i] for i in order] for row in rows)]
    return swapped


@_examples
@given(_corpora)
def test_property_swapping_the_interlocutors_swaps_only_their_cells_in_the_tables(corpus):
    """Swapping A and B swaps the interlocutor of each routine's `initiator`, each
    event's `subject` and each verdict's `matched_agent` (the robot I stays), and
    the `learn_A` and `learn_B` cells; every other cell stays as it was."""
    labels = dict.fromkeys(["initiator", "subject", "matched_agent"],
                           lambda cell: _SWAPPED.get(cell, cell))  # "" where a verdict has none
    expected = _learning_swapped(_mapped_columns(_tables(corpus), labels))
    assert _tables(_speakers_swapped(corpus)) == expected


def _teams_relabelled(corpus: Corpus, ids: dict[int, int]) -> Corpus:
    """Every team id, of the team and of each of its records, mapped by `ids`."""
    return corpus._replace(teams=tuple(tc._replace(
        team=ids[tc.team],
        **{kind: tuple(record._replace(team=ids[tc.team]) for record in getattr(tc, kind))
           for kind in ("utterance_rows", "edits", "submits", "scores")})
        for tc in corpus.teams))


def _with_a_twin(corpus: Corpus) -> Corpus:
    """The corpus plus a copy of its first team under the next free id: the two
    teams tie on error and duration, so their ids order their rows."""
    first = corpus.teams[0]
    twin = _teams_relabelled(corpus._replace(teams=(first,)),
                             {first.team: corpus.teams[-1].team + 1})
    return corpus._replace(teams=corpus.teams + twin.teams)


def _team_ids_mapped(document: dict, ids: dict[int, int]) -> dict:
    """A `h*.json` document with the `team` cell of every row and the team keys
    of every distribution series mapped by `ids`."""
    return {**document,
            "per_team_rows": [{**row, "team": ids[row["team"]]}
                              for row in document["per_team_rows"]],
            "distributions": {series: {str(ids[int(team)]): values
                                       for team, values in by_team.items()}
                              for series, by_team in document["distributions"].items()}}


# ids of one to thirteen digits, either sign, so that their order as strings often
# differs from their order as numbers
_team_ids = st.integers(0, 12).flatmap(lambda digits: st.integers(-10**digits, 10**digits))


@_examples
@given(_corpora | _corpora.map(_with_a_twin), _windows, st.data())
def test_property_relabelling_the_teams_in_order_changes_only_the_team_ids(corpus, window, data):
    """Team ids are labels whose order breaks ties: under a monotone relabelling,
    every analysis changes only in its rows' `team` cells and its series' team keys.
    The documents are compared parsed, with the ids mapped back, since `sort_keys`
    orders the team keys as strings ("10" before "9")."""
    old = [tc.team for tc in corpus.teams]
    new = sorted(data.draw(st.lists(_team_ids, min_size=len(old), max_size=len(old),
                                    unique=True)))
    relabelled = _analyses(_teams_relabelled(corpus, dict(zip(old, new))), window)
    back = dict(zip(new, old))
    for (run, before), after in zip(_analyses(corpus, window).items(), relabelled.values()):
        # the JSON text of a float is its shortest repr, so equal texts are equal bits
        assert (json.dumps(_team_ids_mapped(json.loads(after), back), sort_keys=True)
                == json.dumps(json.loads(before), sort_keys=True)), run
