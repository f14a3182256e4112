"""Metamorphic relations of the four analyses: changes of the input corpus that
must leave `h11.json` … `h22.json` as they were, or change them in one known way."""

from __future__ import annotations

import json

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from align.corpus import Corpus
from align.report import ANALYSES, Pipeline

from _builders import valid_corpora

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


def _times_doubled(corpus: Corpus) -> Corpus:
    """Every time in the corpus doubled: utterance starts and ends, edits, submits
    and stops."""
    return corpus._replace(teams=tuple(tc._replace(
        utterance_rows=tuple(row._replace(start=2 * row.start, end=2 * row.end)
                             for row in tc.utterance_rows),
        edits=tuple(edit._replace(time=2 * edit.time) for edit in tc.edits),
        submits=tuple(submit._replace(time=2 * submit.time) for submit in tc.submits),
        stops=tuple(2 * stop for stop in tc.stops)) for tc in corpus.teams))


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
    doubled = _analyses(_times_doubled(corpus), 2 * window)
    for (run, before), after in zip(original.items(), doubled.values()):
        # the JSON text of a float is its shortest repr, so equal texts are equal bits
        assert (json.dumps(_doubled_times(json.loads(before)), sort_keys=True)
                == json.dumps(json.loads(after), sort_keys=True)), run


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
