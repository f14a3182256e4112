"""Hypothesis analyses, emission, determinism, and the CLI end to end."""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import inspect
import io
import json
import math
import operator
import os
import re
import reprlib
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from align.cli import main
from align.corpus import Corpus, InputError, load_corpus, save_corpus
from align.report import (
    ANALYSES,
    HypothesisReport,
    Pipeline,
    _mean_of,
    _median,
    _write_csv,
    collaborative_period,
    emit,
)
from _builders import (DATA, analysis_report, make_team, network, valid_corpora,
                       write_fixture_inputs)
from _oracles import oracle_annotated_rows, oracle_csv

NET = network()


def _corpus(teams):
    return Corpus(network=NET, teams=tuple(teams))


def _pipeline(teams):
    return Pipeline(_corpus(teams))


def _team_with_establishments(team, error_cost, fractions, duration=100.0,
                              scores=(("A", 6, 8), ("B", 6, 8))):
    """A team whose task-routine establishments end at duration*fraction."""
    node_names = ["Bern", "Zurich", "Gallen", "Davos", "Luzern", "Basel"]
    rows = []
    for k, fraction in enumerate(fractions):
        t = duration * fraction
        name = node_names[k % len(node_names)].lower()
        rows.append(("A", t - 2.0, t - 1.0, f"mount {name}"))
        rows.append(("B", t - 0.5, t, f"mount {name}"))
    rows.sort(key=lambda r: r[1])
    return make_team(team, NET, rows, submit_rows=[(duration, error_cost)], scores=scores)


# --- h1.1 -----------------------------------------------------------------------

def test_h11_fixed_fraction_establishments():
    report = analysis_report(_pipeline([_team_with_establishments(1, 12, [0.25, 0.75])]), "h1.1")
    row = report.per_team_rows[0]
    assert row["n_routine"] == 2
    assert row["median_norm"] == pytest.approx(50.0)
    assert row["q1_norm"] == pytest.approx(37.5)  # linear interpolation of {25, 75}
    assert row["q3_norm"] == pytest.approx(62.5)
    assert sorted(report.distributions["establishment_norm"][1]) == [25.0, 75.0]


def test_h11_perfect_rank_correlation():
    # medians ordered with error: rho = 1 on absolute medians
    teams = [
        _team_with_establishments(1, 12, [0.20], scores=(("A", 6, 8), ("B", 6, 8))),
        _team_with_establishments(2, 15, [0.40], scores=(("A", 6, 8), ("B", 6, 8))),
        _team_with_establishments(3, 18, [0.60], scores=(("A", 5, 5), ("B", 5, 5))),
        _team_with_establishments(4, 24, [0.80], scores=(("A", 5, 4), ("B", 5, 4))),
    ]
    report = analysis_report(_pipeline(teams), "h1.1")
    summary = report.summary["spearman_median_abs_vs_error"]
    assert summary["rho"] == pytest.approx(1.0)
    assert summary["n"] == 4
    assert report.summary["kruskal_learning_median_abs"] is not None
    assert report.summary["mean_of_medians_norm"] == pytest.approx(50.0)


def test_h11_team_without_routines_excluded_from_correlation():
    silent = make_team(5, NET, [("A", 1.0, 2.0, "well then"), ("B", 3.0, 4.0, "well then")],
                       submit_rows=[(100.0, 12)])
    teams = [
        _team_with_establishments(1, 12, [0.2]),
        _team_with_establishments(2, 15, [0.4]),
        _team_with_establishments(3, 18, [0.6]),
        silent,
    ]
    report = analysis_report(_pipeline(teams), "h1.1")
    row = next(r for r in report.per_team_rows if r["team"] == 5)
    assert row["n_routine"] == 0
    assert row["median_abs"] is None
    assert report.distributions["establishment_abs"][5] == ()
    assert report.summary["spearman_median_abs_vs_error"]["n"] == 3


def test_h11_common_window_is_quickest_team():
    teams = [
        _team_with_establishments(1, 12, [0.5], duration=50.0),
        _team_with_establishments(2, 15, [0.5], duration=100.0),
    ]
    report = analysis_report(_pipeline(teams), "h1.1")
    assert report.summary["common_window_sec"] == 50.0
    # team 2's establishment at t=50 is inside; anything later would drop
    assert report.per_team_rows[1]["n_common"] == 1


def test_h11_rows_sorted_by_error_then_duration():
    teams = [
        _team_with_establishments(1, 15, [0.5], duration=100.0),
        _team_with_establishments(2, 12, [0.5], duration=200.0),
        _team_with_establishments(3, 12, [0.5], duration=100.0),
    ]
    report = analysis_report(_pipeline(teams), "h1.1")
    assert [r["team"] for r in report.per_team_rows] == [3, 2, 1]


# --- h1.2 -----------------------------------------------------------------------

def test_h12_separation_gives_delta_one():
    team = make_team(
        1, NET,
        [
            ("A", 1.0, 2.0, "mount bern"),
            ("B", 3.0, 4.0, "mount bern"),
            ("A", 5.0, 6.0, "uh uh"),
            ("B", 7.0, 8.0, "um"),
        ],
        submit_rows=[(10.0, 12)],
    )
    report = analysis_report(_pipeline([team]), "h1.2")
    row = report.per_team_rows[0]
    assert row["n_filler"] == 3
    assert row["n_routine"] == 1
    assert row["delta_priming"] == 1.0  # all fillers after the priming position
    assert row["U_priming"] == 3.0  # complete separation: U = m*n
    assert row["delta_estab"] == 1.0


def test_h12_no_fillers_gives_na_row():
    team = make_team(
        1, NET,
        [("A", 1.0, 2.0, "mount bern"), ("B", 3.0, 4.0, "mount bern")],
        submit_rows=[(10.0, 12)],
    )
    report = analysis_report(_pipeline([team]), "h1.2")
    row = report.per_team_rows[0]
    assert row["n_filler"] == 0
    assert row["U_priming"] is None and row["delta_priming"] is None


def test_h12_custom_markers():
    team = make_team(
        1, NET,
        [("A", 1.0, 2.0, "oh mount bern"), ("B", 3.0, 4.0, "mount bern")],
        submit_rows=[(10.0, 12)],
    )
    report = analysis_report(_pipeline([team]), "h1.2", markers=frozenset({"oh"}))
    assert report.per_team_rows[0]["n_filler"] == 1


# --- h2.1 -----------------------------------------------------------------------

def _matching_team(team, error_cost, match_fractions, duration=100.0,
                   scores=(("A", 6, 8), ("B", 6, 8))):
    """One instructing utterance followed by a matching edit per fraction."""
    pairs = [("Basel", "Bern"), ("Zurich", "Gallen"), ("Luzern", "Zermatt"),
             ("Gallen", "Davos")]
    utterances = []
    edits = []
    for k, fraction in enumerate(match_fractions):
        t = duration * fraction
        u, v = pairs[k % len(pairs)]
        utterances.append(("A", t - 2.0, t - 1.0, f"connect mount {u.lower()} to mount {v.lower()}"))
        edits.append((t, "add", u, v))
    return make_team(team, NET, utterances, edit_rows=edits,
                     submit_rows=[(duration, error_cost)], scores=scores,
                     first_visual="B")


def test_h21_matches_at_quarter_and_three_quarters():
    report = analysis_report(_pipeline([_matching_team(1, 12, [0.25, 0.75])]), "h2.1")
    row = report.per_team_rows[0]
    assert row["n_match_actions"] == 2
    assert row["median_match_norm"] == pytest.approx(50.0)
    assert row["n_mismatch_actions"] == 0
    assert row["ratio"] is None  # no mismatches
    assert row["median_mismatch_abs"] is None


def test_h21_grouped_counts_and_ratio():
    # one instruction drawing two mismatching edits, then a match elsewhere
    # (the turn-2 edit is A's, so the instruction must come from B)
    team = make_team(
        1, NET,
        [("A", 1.0, 2.0, "go to mount basel"),
         ("B", 10.0, 11.0, "connect mount zurich to mount gallen")],
        edit_rows=[(3.0, "add", "Zurich", "Bern"), (4.0, "add", "Zurich", "Davos"),
                   (12.0, "add", "Zurich", "Gallen")],
        submit_rows=[(20.0, 12)],
        first_visual="B",
    )
    report = analysis_report(_pipeline([team]), "h2.1")
    row = report.per_team_rows[0]
    assert row["n_mismatch_actions"] == 2
    assert row["n_mismatch"] == 1  # both mismatches trace to one utterance
    assert row["n_match_actions"] == 1 and row["n_match"] == 1
    assert row["ratio"] == 1.0
    grouped = analysis_report(_pipeline([team]), "h2.1", grouped=True)
    assert grouped.per_team_rows[0]["median_mismatch_abs"] == 3.0  # first action time


def test_h21_correlation_same_recipe_as_h11():
    teams = [_matching_team(k, cost, [0.1 * k + 0.2])
             for k, cost in ((1, 12), (2, 15), (3, 18))]
    report = analysis_report(_pipeline(teams), "h2.1")
    assert report.summary["spearman_median_match_abs_vs_error"]["rho"] == pytest.approx(1.0)


# --- h2.2 -----------------------------------------------------------------------

def test_h22_identical_times_give_zero_delta():
    team = make_team(
        1, NET,
        [("A", 1.0, 2.0, "go to mount basel"),
         ("B", 24.0, 25.0, "oh")],
        edit_rows=[(25.0, "add", "Basel", "Bern")],
        submit_rows=[(100.0, 12)],
        first_visual="B",
    )
    report = analysis_report(_pipeline([team]), "h2.2")
    row = report.per_team_rows[0]
    assert row["n_oh"] == 1 and row["n_oh_tokens"] == 1
    assert row["delta"] == 0.0
    assert row["U"] == 0.5  # single tied pair


def test_h22_oh_event_granularity():
    team = make_team(
        1, NET,
        [("A", 1.0, 2.0, "go to mount basel"),
         ("B", 3.0, 4.0, "oh oh"),
         ("B", 5.0, 6.0, "oh")],
        edit_rows=[(10.0, "add", "Basel", "Bern")],
        submit_rows=[(100.0, 12)],
        first_visual="B",
    )
    per_token = analysis_report(_pipeline([team]), "h2.2", oh_events="token")
    per_utterance = analysis_report(_pipeline([team]), "h2.2", oh_events="utterance")
    row_tok = per_token.per_team_rows[0]
    row_utt = per_utterance.per_team_rows[0]
    assert row_tok["n_oh_tokens"] == 3 and row_tok["n_oh"] == 2
    assert len(per_token.distributions["oh_norm"][1]) == 3
    assert len(per_utterance.distributions["oh_norm"][1]) == 2
    assert row_utt["n_oh"] == 2


@pytest.mark.parametrize("option", [{"oh_events": "tokens"}, {"mm_events": "actions"}])
def test_h22_rejects_an_unknown_option_value(option):
    # a value that is not one of the option's two would otherwise pick one of them silently
    team = make_team(1, NET, [("B", 3.0, 4.0, "oh")], submit_rows=[(100.0, 12)])
    with pytest.raises(KeyError):
        analysis_report(_pipeline([team]), "h2.2", **option)


def test_u_delta_relation_in_reports():
    # with tie-free samples the reported values satisfy U = mn(1+delta)/2,
    # the arithmetic that links the published U and delta columns
    team = make_team(
        1, NET,
        [
            ("A", 1.0, 2.0, "mount bern"),
            ("B", 3.0, 4.0, "uh mount bern"),
            ("A", 5.0, 6.0, "um mount zurich"),
            ("B", 7.0, 8.0, "mount zurich uh"),
        ],
        submit_rows=[(10.0, 12)],
    )
    report = analysis_report(_pipeline([team]), "h1.2")
    row = report.per_team_rows[0]
    m, n = row["n_filler"], row["n_routine"]
    assert row["U_priming"] == pytest.approx(m * n * (1 + row["delta_priming"]) / 2)
    assert row["U_estab"] == pytest.approx(m * n * (1 + row["delta_estab"]) / 2)


def test_h22_counts_equal_matcher_records():
    team = _matching_team(1, 12, [0.25, 0.75])
    corpus = _corpus([team])
    report = analysis_report(Pipeline(corpus), "h2.2")
    from align.instructions import MATCH, grouped_records
    from align.report import TeamPipeline

    assert report.per_team_rows[0]["n_match"] == \
        len(grouped_records(TeamPipeline(team, corpus).records, MATCH))


# --- medians and emission ---------------------------------------------------------

# A few distinct non-negative finite values, then a sample drawn from them with
# replacement: heavy ties, odd and even lengths.
_tied_samples = st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=5, unique=True).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=30))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_tied_samples)
def test_property_median_is_numpys_bit_for_bit(values):
    with np.errstate(over="ignore"):  # two huge middle values sum to inf in both
        expected = float(np.median(values))
    assert repr(_median(values)) == repr(expected)


# Lengths about numpy's unroll of 8 and its block of 128 (a sum above 128 values
# splits in halves). Values of one scale, up to 1e300 or to the float maximum,
# whose sum may overflow, so that the order of the additions shows in the
# rounding; and -0.0 among them or alone.
_mean_samples = st.tuples(st.sampled_from([*range(1, 10), 127, 128, 129, 255, 256, 257]),
                          st.sampled_from([1.0, 1e-300, 1e300, sys.float_info.max])).flatmap(
    lambda size: st.lists(st.floats(min_value=-1.0, max_value=1.0).map(size[1].__mul__)
                          | st.just(-0.0), min_size=size[0], max_size=size[0]))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_mean_samples)
@example([-0.0]).via("-0.0 alone")
@example([-0.0] * 9).via("-0.0 alone, 8 values and one more")
@example([-0.0] * 129).via("-0.0 alone, over the block of 128")
@example([-0.0, 0.0, -0.0]).via("-0.0 mixed with 0.0")
@example([1e300, 3.0, -1e300, 0.1] * 32).via("cancellation within the block")
@example([sys.float_info.max] * 2).via("the sum overflows")
@example([sys.float_info.max, -sys.float_info.max] * 64 + [1.0]).via("halves of inf and -inf")
def test_property_mean_of_is_numpys_mean_bit_for_bit(values):
    with np.errstate(over="ignore", invalid="ignore"):  # a sum may overflow, or be inf - inf
        expected = float(np.mean(values))
    # repr tells -0.0 from 0.0 and prints inf and nan alike
    assert repr(_mean_of([], dict(enumerate(values)))) == repr(expected)


def test_collaborative_period_linear_interpolation():
    assert collaborative_period([10, 20, 30, 40, 50]) == (20.0, 40.0)


def test_collaborative_period_singleton_and_constant():
    assert collaborative_period([42.0]) == (42.0, 42.0)
    assert collaborative_period([7.0, 7.0, 7.0]) == (7.0, 7.0)


# Any times but NaN, infinite ones included, though the h1.1 runner passes at
# most 1e14; ties, -0.0, and pairs whose difference overflows.
# A sample holds zeros of one sign only: numpy's partition may put 0.0 and
# -0.0 in either order, and the runner's times are never -0.0.
_quartile_samples = st.lists(
    st.floats(allow_nan=False)
    | st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, sys.float_info.max, math.inf, -math.inf]),
    min_size=1, max_size=12).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1,
                                                          max_size=40)).filter(
    lambda times: len({math.copysign(1.0, t) for t in times if t == 0}) < 2)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_quartile_samples)
@example([5.0]).via("n = 1")
@example([-0.0]).via("n = 1, -0.0")
@example([math.inf]).via("n = 1, infinite: inf - inf is nan")
@example([-1e308, 1e308]).via("the difference overflows")
@example([1.0, math.inf, math.inf]).via("inf at a fraction of 0: d*t is nan")
@example([-0.0, -0.0, 3.0, 3.0]).via("ties")
@example([2.0, 1.0] * 20).via("more values than numpy sorts by insertion")
def test_property_collaborative_period_is_numpys_percentile_bit_for_bit(times):
    with np.errstate(all="ignore"):  # numpy warns where a value overflows or is nan
        expected = np.percentile(np.asarray(times, dtype=float), [25, 75])
    # repr tells -0.0 from 0.0, and inf from nan
    assert list(map(repr, collaborative_period(times))) == [repr(float(v)) for v in expected]


def test_write_csv_formats_cells_as_before(tmp_path):
    # Tables once passed each cell through a converter: None as "", a float
    # by repr, anything else by str. csv.writer does the same by itself.
    path = tmp_path / "table.csv"
    _write_csv(path, ["a", "b"], [[None, 0.1, 1e-07, 1e16, 2 / 3, 3, True, "x, y"], [None]])
    assert path.read_bytes() == b'a,b\n,0.1,1e-07,1e+16,0.6666666666666666,3,True,"x, y"\n""\n'


def test_write_csv_quotes_a_bare_carriage_return(tmp_path):
    path = tmp_path / "table.csv"
    rows = [[0, "x"], [1, "a\nb"], [2, "okay\roh"], [3, "y\r"]]
    _write_csv(path, ["n", "text"], iter(rows))
    data = path.read_bytes()
    assert data == b'n,text\n0,x\n1,"a\nb"\n2,"okay\roh"\n3,"y\r"\n'
    with open(path, newline="", encoding="utf-8") as handle:
        assert list(csv.reader(handle)) == [["n", "text"], *([str(n), text] for n, text in rows)]


_CSV_CELLS = {
    "text": st.text('ab ,"\r\n', max_size=5),
    "float": st.sampled_from([-0.0, 1e16, 1e-07]) | st.floats(allow_nan=False,
                                                              allow_infinity=False),
    "int": st.integers(),
    "bool": st.booleans(),
    "none": st.none(),
}


@st.composite
def _csv_tables(draw):
    """A header and rows of 2 to 5 columns, each column of one kind of cell or of any."""
    kinds = draw(st.lists(st.sampled_from([*_CSV_CELLS, "any"]), min_size=2, max_size=5))
    cells = [st.one_of(*_CSV_CELLS.values()) if kind == "any" else _CSV_CELLS[kind]
             for kind in kinds]
    header = draw(st.lists(_CSV_CELLS["text"], min_size=len(kinds), max_size=len(kinds)))
    return header, draw(st.lists(st.tuples(*cells), max_size=20))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_csv_tables())
@example((["n", "x"], [(n % 3 or None, f"{n},\r" if n % 2 else n / 7) for n in range(5000)]))
def test_property_write_csv_writes_what_csv_writer_writes(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        _write_csv(path, header, iter(rows))
        assert path.read_bytes() == oracle_csv([header, *rows])


def test_emit_h12_csv_schema(tmp_path):
    team = make_team(1, NET, [("A", 1.0, 2.0, "mount bern"), ("B", 3.0, 4.0, "mount bern")],
                     submit_rows=[(10.0, 12)])
    report = analysis_report(_pipeline([team]), "h1.2")
    files = emit(report, "csv", tmp_path)
    per_team = next(p for p in files if p.name == "h12_per_team.csv")
    header = per_team.read_text().splitlines()[0]
    assert header == ("team,n_filler,n_routine,median_filler,median_priming,"
                      "median_establishment,U_priming,p_priming,delta_priming,"
                      "U_estab,p_estab,delta_estab")


def test_emit_json_round_trips(tmp_path):
    report = analysis_report(_pipeline([_team_with_establishments(1, 12, [0.25, 0.75]),
                                        _team_with_establishments(2, 15, [0.5])]), "h1.1")
    (path,) = emit(report, "json", tmp_path)
    assert json.loads(path.read_text()) == report.to_dict()


def test_emit_deterministic_bytes(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        for hypothesis in ANALYSES:
            emit(analysis_report(_pipeline([_team_with_establishments(1, 12, [0.25, 0.75]),
                                            _matching_team(2, 15, [0.5])]), hypothesis),
                 "csv", out)
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes(), path.name


def test_report_determinism():
    corpus = _corpus([_team_with_establishments(1, 12, [0.25, 0.75])])
    first, second = (analysis_report(Pipeline(corpus), "h1.1") for _ in range(2))
    assert first.to_dict() == second.to_dict()


def test_h11_medians_agree_with_routine_table(tmp_path):
    import csv
    import statistics

    from align.report import emit_routine_table

    corpus = _corpus([_team_with_establishments(1, 12, [0.2, 0.6, 0.9]),
                      _team_with_establishments(2, 15, [0.5])])
    pipeline = Pipeline(corpus)
    report = analysis_report(pipeline, "h1.1")
    path = emit_routine_table(pipeline, tmp_path / "routines.csv", task_only=True)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in report.per_team_rows:
        table_times = [float(r["establishment_time"]) for r in rows
                       if int(r["team"]) == row["team"]]
        assert row["median_abs"] == pytest.approx(statistics.median(table_times))


# --- CLI ------------------------------------------------------------------------

def _ingest_rc(paths, out):
    return main(["ingest", "--transcripts", str(paths["transcripts"]),
                 "--events", str(paths["events"]), "--network", str(paths["network"]),
                 "--tests", str(paths["tests"]), "--out", str(out)])


def _ingest(tmp_path, out_name="corpus"):
    corpus_dir = tmp_path / out_name
    assert _ingest_rc(write_fixture_inputs(tmp_path), corpus_dir) == 0
    return corpus_dir


def test_all_holds_one_team_pipeline_at_a_time(tmp_path, monkeypatch):
    """`align all` derives one team at a time: when it mines a team's routines, the
    pipeline of every earlier team is gone. `main` runs with the GC off, so a team
    pipeline held in a reference cycle stays alive and fails this too."""
    from align import report

    pipelines = []

    class Recorded(report.TeamPipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pipelines.append(weakref.ref(self))

    extract_routines = report.extract_routines
    alive_at_mining = []

    def extract_one_team(utterances):
        alive_at_mining.append(sum(ref() is not None for ref in pipelines))
        return extract_routines(utterances)

    monkeypatch.setattr(report, "TeamPipeline", Recorded)
    monkeypatch.setattr(report, "extract_routines", extract_one_team)
    teams = [_matching_team(team, 12 + team, [0.25, 0.5, 0.75]) if team % 2 else
             _team_with_establishments(team, 12 + team, [0.2, 0.6, 0.9]) for team in range(1, 10)]
    save_corpus(_corpus(teams), tmp_path / "corpus")
    assert main(["all", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "out")]) == 0
    assert len(pipelines) == 9
    assert alive_at_mining == [1] * 9


def test_cli_ingest_and_all(tmp_path, capsys):
    corpus_dir = _ingest(tmp_path)
    assert (corpus_dir / "corpus.json").exists()
    rc = main(["all", "--corpus", str(corpus_dir)])
    assert rc == 0
    for name in ("routines.csv", "annotated_corpus.csv", "task_features.csv",
                 "h11_per_team.csv", "h12_per_team.csv", "h21_per_team.csv",
                 "h22_per_team.csv", "h11_summary.json"):
        assert (corpus_dir / name).exists(), name
    out = capsys.readouterr().out
    assert "[h1.1]" in out and "[h2.2]" in out


def test_cli_summary_prints_n_a_for_every_none(tmp_path, capsys):
    # no team has an edit, so none has a Match: h2.1's match tests and means are None
    teams = [_team_with_establishments(team, 12 + team, [0.5]) for team in range(1, 4)]
    save_corpus(_corpus(teams), tmp_path)
    assert main(["analyze", "--hypothesis", "h2.1", "--corpus", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  mean_of_medians_match_norm: n/a" in lines
    printed = dict(line.strip().split(": ", 1) for line in lines if line.startswith("  "))
    summary = json.loads((tmp_path / "h21_summary.json").read_text())
    assert printed.keys() == summary.keys()
    assert {key for key, value in printed.items() if value == "n/a"} == \
        {key for key, value in summary.items() if value is None}


def test_cli_analyze_json(tmp_path):
    corpus_dir = _ingest(tmp_path)
    rc = main(["analyze", "--hypothesis", "h1.2", "--corpus", str(corpus_dir),
               "--format", "json"])
    assert rc == 0
    data = json.loads((corpus_dir / "h12.json").read_text())
    assert data["hypothesis"] == "h1.2"
    teams = [row["team"] for row in data["per_team_rows"]]
    assert teams == [10, 20]  # team 10 solved optimally, sorts first


def test_cli_outputs_are_deterministic(tmp_path):
    first_dir = _ingest(tmp_path, "c1")
    second_dir = _ingest(tmp_path, "c2")
    assert main(["all", "--corpus", str(first_dir)]) == 0
    assert main(["all", "--corpus", str(second_dir)]) == 0
    for path in sorted(first_dir.iterdir()):
        assert path.read_bytes() == (second_dir / path.name).read_bytes(), path.name


def test_cli_rejects_bad_input_with_exit_2(tmp_path):
    paths = write_fixture_inputs(tmp_path)
    bad = tmp_path / "bad_transcripts.csv"
    bad.write_text("team,speaker,start_sec,end_sec,utterance\n1,X,0,1,hi\n")
    rc = main(["ingest", "--transcripts", str(bad), "--events", str(paths["events"]),
               "--network", str(paths["network"]), "--tests", str(paths["tests"]),
               "--out", str(tmp_path / "c")])
    assert rc == 2


def _without_lines(text, predicate):
    lines = text.splitlines(keepends=True)
    return lines[0] + "".join(line for line in lines[1:] if not predicate(line))


def _drop_lines(path, predicate):
    path.write_text(_without_lines(path.read_text(), predicate))


def _only_submit_of_team_20_at(time):
    return lambda text: (_without_lines(text, lambda line: line.startswith("20,"))
                         + f"20,{time},submit,,,13\n")


@pytest.mark.parametrize("file, edit, message", [
    ("tests", lambda text: _without_lines(text, lambda line: line.startswith("20,B")),
     "team 20 has no test scores for speaker B"),
    ("tests", lambda text: _without_lines(text, lambda line: True),
     "team 10 has no test scores for speaker A"),
    ("events", lambda text: _without_lines(text, lambda line: "submit" in line
                                           and line.startswith("20,")),
     "team 20 submitted no solution"),
    ("events", _only_submit_of_team_20_at(0.0), "team 20 has duration 0.0"),
])
def test_cli_ingest_rejects_incomplete_team_with_exit_2(tmp_path, capsys, file, edit, message):
    paths = write_fixture_inputs(tmp_path)
    paths[file].write_text(edit(paths[file].read_text()))
    assert _ingest_rc(paths, tmp_path / "c") == 2
    err = capsys.readouterr().err
    assert f"{paths[file]}: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "c" / "corpus.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda team: team["scores"].pop(), "team 10 has no test scores for speaker B"),
    (lambda team: team["submits"].clear(), "team 10 submitted no solution"),
])
def test_cli_all_rejects_incomplete_team_in_corpus_with_exit_2(tmp_path, capsys, edit, message):
    corpus_dir = _ingest(tmp_path)
    path = corpus_dir / "corpus.json"
    data = json.loads(path.read_text())
    edit(data["teams"][0])
    path.write_text(json.dumps(data))
    assert main(["all", "--corpus", str(corpus_dir)]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("file, old, new, message", [
    ("events", "10,34.0,add,Zurich,Bern,", "10,34.0,add", "line 3: expected 6 fields, got 3"),
    ("transcripts", "10,I,0.0,3.0,Hello I", "10,I,0.0,3.0,Hello, I",
     "line 2: expected 5 fields, got 6"),
    ("tests", "20,A,5,10", "20,A,5", "line 4: expected 4 fields, got 3"),
])
def test_cli_ingest_rejects_incomplete_rows_with_exit_2(tmp_path, capsys, file, old, new, message):
    paths = write_fixture_inputs(tmp_path)
    text = paths[file].read_text()
    assert old in text
    paths[file].write_text(text.replace(old, new, 1))
    assert _ingest_rc(paths, tmp_path / "c") == 2
    assert f"error: {paths[file]}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("file, old, new, message", [
    ("transcripts", "10,A,10.0,13.0", "10,A,-13.0,-10.0", "line 3: start -13.0 is negative"),
    ("events", "10,25.0,add", "10,-25.0,add", "line 2: time_sec -25.0 is negative"),
    ("events", "20,18.0,submit", "20,-5.0,submit", "line 13: time_sec -5.0 is negative"),
    ("events", "20,20.0,stop", "20,-1.0,stop", "line 14: time_sec -1.0 is negative"),
    # above the bound of 1e9 s: an end alone, which the column-at-a-time read checks too
    ("transcripts", "10,A,10.0,13.0", "10,A,10.0,1e10",
     "line 3: end 10000000000.0 is above 1000000000.0"),
    ("events", "10,25.0,add", "10,1000000000.0000001,add",
     "line 2: time_sec 1000000000.0000001 is above 1000000000.0"),
])
def test_cli_ingest_rejects_out_of_range_times_with_exit_2(tmp_path, capsys, file, old, new,
                                                           message):
    paths = write_fixture_inputs(tmp_path)
    text = paths[file].read_text()
    assert old in text
    paths[file].write_text(text.replace(old, new, 1))
    assert _ingest_rc(paths, tmp_path / "c") == 2
    err = capsys.readouterr().err
    assert f"error: {paths[file]}: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "c" / "corpus.json").exists()


@pytest.mark.parametrize("old, new, message", [
    ("10,25.0,add,Gallen,Davos,", "10,25.0,add,Gallen,Davos,99",
     "line 2: add events leave cost empty, got '99'"),
    ("10,50.0,remove,Basel,Bern,", "10,50.0,remove,Basel,Bern, 3 ",
     "line 6: remove events leave cost empty, got '3'"),
    ("10,55.0,submit,,,12", "10,55.0,submit,Basel,Bern,12",
     "line 7: submit events leave u empty, got 'Basel'"),
    ("10,55.0,submit,,,12", "10,55.0,submit,,Bern,12",
     "line 7: submit events leave v empty, got 'Bern'"),
    ("20,20.0,stop,,,", "20,20.0,stop,Luzern,,",
     "line 14: stop events leave u empty, got 'Luzern'"),
    ("20,20.0,stop,,,", "20,20.0,stop,,,5", "line 14: stop events leave cost empty, got '5'"),
])
def test_cli_ingest_rejects_fields_an_event_does_not_use_with_exit_2(tmp_path, capsys, old, new,
                                                                     message):
    paths = write_fixture_inputs(tmp_path)
    text = paths["events"].read_text()
    assert old in text
    paths["events"].write_text(text.replace(old, new, 1))
    assert _ingest_rc(paths, tmp_path / "c") == 2
    err = capsys.readouterr().err
    assert f"error: {paths['events']}: {message}" in err and "Traceback" not in err


def test_cli_ingest_accepts_blank_unused_event_fields(tmp_path):
    paths = write_fixture_inputs(tmp_path)
    text = paths["events"].read_text()
    text = text.replace("10,25.0,add,Gallen,Davos,", "10,25.0,add,Gallen,Davos,  ")
    paths["events"].write_text(text.replace("20,20.0,stop,,,", "20,20.0,stop, , ,"))
    assert _ingest_rc(paths, tmp_path / "c") == 0


def _set(entry, key, value):
    entry[key] = value


_HUGE = 10**400  # a JSON integer of 401 digits, which reprlib shortens to 40 characters


def _loop_on_a_huge_node(net):
    net["nodes"].append({"id": _HUGE, "name": "Atlantis", "label": "", "x": 0, "y": 0})
    net["edges"].append({"u": _HUGE, "v": _HUGE, "cost": 1})


# network.json edits that load_network and load_corpus reject, with the message
_BAD_NETWORKS = [
    (lambda net: net.update(nodes=net["nodes"][:1], edges=[]),
     "a network needs at least two nodes, got 1"),
    (lambda net: _set(net["edges"][0], "cost", 2.7), "cost must be an integer, got 2.7"),
    (lambda net: _set(net["edges"][0], "cost", True), "cost must be an integer, got True"),
    (lambda net: _set(net["edges"][0], "cost", 10**400),
     "edge (1,2) cost 100000000000000000...0000000000000000000 is above the largest float "
     "1.7976931348623157e+308"),
    (lambda net: _set(net["nodes"][0], "id", "1"), "id must be an integer, got '1'"),
    # a repeated id is named, not reported as an undeclared edge end...
    (lambda net: _set(net["nodes"][1], "id", 1), "node id 1 appears 2 times"),
    # ...nor as a disconnected network blamed on the first submit's file
    (lambda net: net.update(nodes=[dict(n, id=1) if n["id"] == 2 else n for n in net["nodes"]],
                            edges=[e for e in net["edges"] if 2 not in (e["u"], e["v"])]),
     "node id 1 appears 2 times"),
    # a network with no spanning tree is refused as it is read, not at the first submit
    (lambda net: _set(net, "edges", [e for e in net["edges"] if 2 not in (e["u"], e["v"])]),
     "network is not connected; no spanning solution exists"),
    (lambda net: _set(net["edges"][0], "v", 1), "edge (1,1) joins node 1 to itself"),
    (lambda net: net["edges"].append({"u": 2, "v": 1, "cost": 5}), "duplicate edge (1,2)"),
    (lambda net: _set(net["edges"][0], "cost", 0), "edge (1,2) has non-positive cost"),
    (lambda net: _set(net["edges"][0], "v", 99), "edge (1,99) references undeclared node"),
    # an id may be any JSON integer; a message shows a huge one shortened, as reprlib does
    (lambda net: _set(net["edges"][0], "v", _HUGE),
     f"edge (1,{reprlib.repr(_HUGE)}) references undeclared node"),
    (lambda net: [_set(node, "id", _HUGE) for node in net["nodes"][:2]],
     f"node id {reprlib.repr(_HUGE)} appears 2 times"),
    (_loop_on_a_huge_node,
     f"edge ({reprlib.repr(_HUGE)},{reprlib.repr(_HUGE)}) joins node {reprlib.repr(_HUGE)} "
     "to itself"),
    # a name that transcripts do not read as one token would never be recognised
    (lambda net: _set(net["nodes"][0], "name", "St Luzern"),
     "node name 'St Luzern' is not one token: transcripts read it as ['st', 'luzern']"),
    (lambda net: _set(net["nodes"][0], "name", "Luzern."),
     "node name 'Luzern.' is not one token: transcripts read it as ['luzern']"),
]


@pytest.mark.parametrize("edit, message", _BAD_NETWORKS)
def test_cli_ingest_rejects_bad_network_with_exit_2(tmp_path, capsys, edit, message):
    paths = write_fixture_inputs(tmp_path)
    data = json.loads(paths["network"].read_text())
    edit(data)
    paths["network"].write_text(json.dumps(data))
    assert _ingest_rc(paths, tmp_path / "c") == 2
    assert capsys.readouterr().err == f"error: {paths['network']}: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["teams"][0].pop("submits"), "team 10: missing key 'submits'"),
    (lambda data: data["teams"][0].pop("team"), "teams[0]: missing key 'team'"),
    (lambda data: data.pop("network"), "missing key 'network'"),
    (lambda data: _set(data["teams"][0]["utterances"][1], "start", "ten"),
     "team 10: start must be a finite number, got 'ten'"),
    (lambda data: _set(data["teams"][0]["utterances"][1], "text", None),
     "team 10: text must be a string, got None"),
    (lambda data: _set(data["teams"][1], "edits", {}), "team 20: edits must be a list, got {}"),
    (lambda data: _set(data["teams"][1]["scores"][0], "pre", True),
     "team 20: pre must be an integer, got True"),
    (lambda data: _set(data["teams"][1]["scores"][0], "pre", 11),
     "team 20: pre score 11 outside 0..10"),
    (lambda data: _set(data["teams"][0]["utterances"][1], "speaker", "C"),
     "team 10: speaker must be one of A, B, I, got 'C'"),
    (lambda data: _set(data["teams"][0]["submits"][0], "cost", 5),
     "team 10: submitted cost 5 below optimal 12"),
    (lambda data: _set(data["teams"][0]["edits"][0], "v", 99), "team 10: unknown node id 99"),
    # a team id may be any JSON integer: load_corpus and check_teams show a huge one shortened
    (lambda data: data["teams"][0].update(team=_HUGE, edits=[{}]),
     f"team {reprlib.repr(_HUGE)}: missing key 'time'"),
    (lambda data: data["teams"][0].update(team=_HUGE, submits=[]),
     f"team {reprlib.repr(_HUGE)} submitted no solution"),
    (lambda data: _set(data["teams"][0]["edits"][0], "v", _HUGE),
     f"team 10: unknown node id {reprlib.repr(_HUGE)}"),
    (lambda data: data["teams"][0]["edits"][0].update(u=1, v=3),
     "team 10: (Luzern,Montreux) is not a network edge"),
    (lambda data: data["teams"][1].update(edits=[], stops=[], submits=[{"time": 0.0, "cost": 13}]),
     "team 20 has duration 0.0"),
    (lambda data: data["teams"][1].update(edits=[], stops=[],
                                          submits=[{"time": -5.0, "cost": 13}]),
     "team 20: time -5.0 is negative"),
    (lambda data: data["teams"][0]["utterances"][1].update(start=-13.0, end=-10.0),
     "team 10: start -13.0 is negative"),
    (lambda data: _set(data["teams"][0]["edits"][0], "time", -25.0),
     "team 10: time -25.0 is negative"),
    (lambda data: _set(data["teams"][1], "stops", [-1.0]), "team 20: stop time -1.0 is negative"),
    (lambda data: _set(data["teams"][0]["submits"][0], "time", 1000000000.0000001),
     "team 10: time 1000000000.0000001 is above 1000000000.0"),
    *[(lambda data, edit=edit: edit(data["network"]), message) for edit, message in _BAD_NETWORKS],
])
def test_cli_all_rejects_malformed_corpus_with_exit_2(tmp_path, capsys, edit, message):
    corpus_dir = _ingest(tmp_path)
    path = corpus_dir / "corpus.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    assert main(["all", "--corpus", str(corpus_dir)]) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_cli_rejects_empty_corpus_with_exit_2(tmp_path, capsys):
    paths = write_fixture_inputs(tmp_path)
    for name in ("transcripts", "events", "tests"):
        _drop_lines(paths[name], lambda line: True)
    assert _ingest_rc(paths, tmp_path / "c") == 2
    assert f"{paths['transcripts']}: no teams" in capsys.readouterr().err

    corpus_dir = _ingest(tmp_path, "edited")
    path = corpus_dir / "corpus.json"
    data = json.loads(path.read_text())
    data["teams"] = []
    path.write_text(json.dumps(data))
    assert main(["all", "--corpus", str(corpus_dir)]) == 2
    assert f"{path}: no teams" in capsys.readouterr().err


@pytest.mark.parametrize("file, old, new, message", [
    ("transcripts", "10,A,10.0,13.0", "10,A,nan,13.0", "line 3: bad start_sec value 'nan'"),
    ("transcripts", "10,A,10.0,13.0", "10,A,10.0,inf", "line 3: bad end_sec value 'inf'"),
    ("events", "10,25.0,add", "10,-Infinity,add", "line 2: bad time_sec value '-Infinity'"),
    ("network", '"x": 90.0', '"x": NaN', "invalid JSON (NaN is not a JSON number)"),
    ("network", '"y": 344.0', '"y": "inf"', "y must be a finite number, got 'inf'"),
])
def test_cli_ingest_rejects_non_finite_numbers_with_exit_2(tmp_path, capsys, file, old, new,
                                                           message):
    paths = write_fixture_inputs(tmp_path)
    text = paths[file].read_text()
    assert old in text
    paths[file].write_text(text.replace(old, new, 1))
    assert _ingest_rc(paths, tmp_path / "c") == 2
    err = capsys.readouterr().err
    assert message in err
    if file == "network":
        assert str(paths["network"]) in err


@pytest.mark.parametrize("old, new, message", [
    ('"start": 10.0', '"start": NaN', "invalid JSON (NaN is not a JSON number)"),
    # a number too large for a float reads as infinity
    ('"start": 10.0', '"start": 1e999', "team 10: start must be a finite number, got inf"),
    ('"x": 90.0', '"x": -1e999', "x must be a finite number, got -inf"),
])
def test_cli_rejects_non_finite_numbers_in_corpus_with_exit_2(tmp_path, capsys, old, new,
                                                               message):
    corpus_dir = _ingest(tmp_path)
    path = corpus_dir / "corpus.json"
    text = path.read_text()
    assert "NaN" not in text and "Infinity" not in text and old in text
    path.write_text(text.replace(old, new, 1))
    assert main(["all", "--corpus", str(corpus_dir)]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


@functools.cache
def _fixture_corpus_json() -> str:
    """The corpus.json that `align ingest` writes for the fixture inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert _ingest_rc(write_fixture_inputs(Path(tmp)), Path(tmp) / "c") == 0
        return (Path(tmp) / "c" / "corpus.json").read_text()


def _places(value, path=()):
    """The path of `value` and of every value nested in it, outermost first."""
    yield path
    if type(value) in (dict, list):
        for key, item in value.items() if type(value) is dict else enumerate(value):
            yield from _places(item, (*path, key))


def _at(data, path):
    """The value at `path` in `data`."""
    return functools.reduce(operator.getitem, path, data)


def _replaced(data, path, value):
    """`data` with the value at `path` replaced by `value`."""
    if not path:
        return value
    _at(data, path[:-1])[path[-1]] = value
    return data


@st.composite
def _mutated_corpus_json(draw):
    """The fixture corpus.json data with one random field mutation."""
    data = json.loads(_fixture_corpus_json())
    teams = data["teams"]
    team = teams[draw(st.integers(0, len(teams) - 1))]
    places = list(_places(data))
    mutation = draw(st.sampled_from(["type", "cost", "score", "time", "remove", "empty",
                                     "first_visual", "duplicate"]))
    if mutation == "type":  # a value of another JSON type
        path = draw(st.sampled_from(places))
        kind = type(_at(data, path))
        return _replaced(data, path, draw(st.sampled_from(
            [v for v in (None, True, 0, 0.5, "x", [], {}) if type(v) is not kind])))
    if mutation == "cost":  # below the optimal cost
        submit = draw(st.sampled_from(team["submits"]))
        submit["cost"] = draw(st.integers(max_value=NET.optimal_cost - 1))
    elif mutation == "score":  # outside 0..10
        score = draw(st.sampled_from(team["scores"]))
        score[draw(st.sampled_from(["pre", "post"]))] = draw(
            st.one_of(st.integers(max_value=-1), st.integers(min_value=11)))
    elif mutation == "time":  # negative
        times = {("start",), ("end",), ("time",)}
        path = draw(st.sampled_from([p for p in places
                                     if p[-1:] in times or p[-2:-1] == ("stops",)]))
        data = _replaced(data, path, draw(st.floats(max_value=0, exclude_max=True,
                                                    allow_infinity=False)))
    elif mutation == "remove":  # a key of an object
        path = draw(st.sampled_from([p for p in places if p and type(p[-1]) is str]))
        del _at(data, path[:-1])[path[-1]]
    elif mutation == "empty":
        team[draw(st.sampled_from(["scores", "submits"]))] = []
    elif mutation == "first_visual":
        team["first_visual"] = "C"
    else:
        teams.insert(draw(st.integers(0, len(teams))), copy.deepcopy(team))
    return data


def _assert_all_exits_0_or_2(data: bytes) -> None:
    """`align all` on a corpus.json holding `data` exits 0, or 2 with a message
    that names corpus.json. An exception escaping main is the traceback that
    the console script would print."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        path.write_bytes(data)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main(["all", "--corpus", tmp, "--out", str(Path(tmp) / "out")])
    assert rc in (0, 2)
    assert "Traceback" not in stderr.getvalue()
    if rc == 2:
        assert stderr.getvalue().startswith(f"error: {path}: ")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_mutated_corpus_json())
def test_property_mutated_corpus_json_exits_0_or_2(data):
    _assert_all_exits_0_or_2(json.dumps(data).encode())


def _byte_mutated(draw, data: bytes) -> bytes:
    """`data` with one byte flipped, inserted or deleted, or cut short."""
    data = bytearray(data)
    at = draw(st.integers(0, len(data) - 1))
    mutation = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
    if mutation == "flip":
        data[at] ^= draw(st.integers(1, 255))
    elif mutation == "insert":
        data.insert(at, draw(st.integers(0, 255)))
    elif mutation == "delete":
        del data[at]
    else:
        del data[at:]
    return bytes(data)


@st.composite
def _byte_mutated_corpus_json(draw):
    return _byte_mutated(draw, _fixture_corpus_json().encode())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_byte_mutated_corpus_json())
def test_property_byte_mutated_corpus_json_exits_0_or_2(data):
    _assert_all_exits_0_or_2(data)


_RAW_INPUTS = ("transcripts.csv", "events.csv", "network.json", "tests.csv")
# An utterance one character longer than the csv module reads: the reader raises
# csv.Error, which no single-byte mutation of the fixture reaches on Python 3.11.
_PAST_FIELD_LIMIT = (DATA / "transcripts.csv").read_bytes() + (
    b'10,A,20.0,21.0,"' + b"x" * (csv.field_size_limit() + 1) + b'"\n')


@st.composite
def _byte_mutated_raw_input(draw):
    """The name of one fixture input file, and its bytes mutated."""
    name = draw(st.sampled_from(_RAW_INPUTS))
    return name, _byte_mutated(draw, (DATA / name).read_bytes())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_byte_mutated_raw_input())
@example(("transcripts.csv", _PAST_FIELD_LIMIT))
def test_property_byte_mutated_raw_inputs_exit_0_or_2(mutated):
    _assert_ingest_exits_0_or_2(*mutated)


def _assert_ingest_exits_0_or_2(name: str, data: bytes) -> None:
    """`align ingest` on the fixture inputs, the file `name` holding `data`, exits 0
    or 2; so does `align all` after an exit 0. On exit 2 the one error line names an
    input file: the mutated one, or one whose rows the mutation leaves without a match
    (an event's node renamed in network.json, a team renumbered in transcripts.csv)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_fixture_inputs(Path(tmp))
        (Path(tmp) / name).write_bytes(data)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = _ingest_rc(paths, Path(tmp) / "corpus")
            if rc == 0:
                rc = main(["all", "--corpus", str(Path(tmp) / "corpus"),
                           "--out", str(Path(tmp) / "out")])
    assert rc in (0, 2)
    if rc == 2:
        named = "|".join(re.escape(str(path)) for path in paths.values())
        assert re.fullmatch(f"error: ({named}): [^\n]+\n", stderr.getvalue())
    else:
        assert stderr.getvalue() == ""


@st.composite
def _mutated_network_json(draw):
    """The fixture network.json data with one random field mutation."""
    data = json.loads((DATA / "network.json").read_text())
    places = list(_places(data))
    numbers = [p for p in places if type(_at(data, p)) in (int, float)]
    edges = data["edges"]
    mutation = draw(st.sampled_from(["type", "boolean", "huge", "remove", "duplicate",
                                     "reversed", "self-loop", "end", "node"]))
    if mutation == "type":  # a value of another JSON type
        path = draw(st.sampled_from(places))
        kind = type(_at(data, path))
        return _replaced(data, path, draw(st.sampled_from(
            [v for v in (None, True, 0, 0.5, "x", [], {}) if type(v) is not kind])))
    if mutation == "boolean":  # a boolean where a number is
        return _replaced(data, draw(st.sampled_from(numbers)), draw(st.booleans()))
    if mutation == "huge":  # a number no float holds, or a big one that a float does
        return _replaced(data, draw(st.sampled_from(numbers)), draw(st.sampled_from(
            [10**400, -10**400, 2**53 + 1, 1e308, -1e308, 2**1024])))
    if mutation == "remove":  # a key of an object
        path = draw(st.sampled_from([p for p in places if p and type(p[-1]) is str]))
        del _at(data, path[:-1])[path[-1]]
    elif mutation == "duplicate":
        edges.insert(draw(st.integers(0, len(edges))), dict(draw(st.sampled_from(edges))))
    elif mutation == "reversed":  # the same edge again, its ends swapped
        edge = draw(st.sampled_from(edges))
        edges.append(dict(edge, u=edge["v"], v=edge["u"], cost=draw(st.integers(1, 9))))
    elif mutation == "self-loop":
        edge = draw(st.sampled_from(edges))
        edge["v"] = edge["u"]
    elif mutation == "end":  # another node, declared or not
        draw(st.sampled_from(edges))[draw(st.sampled_from(["u", "v"]))] = draw(st.integers(0, 11))
    else:  # a node again, under its own or another id
        node = dict(draw(st.sampled_from(data["nodes"])))
        data["nodes"].append(dict(node, id=draw(st.sampled_from([node["id"], 11]))))
    return data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mutated_network_json())
def test_property_mutated_network_json_exits_0_or_2(data):
    _assert_ingest_exits_0_or_2("network.json", json.dumps(data).encode())


_TOO_BIG = ("100000000000000000...0000000000000000000 is above the largest float "
            "1.7976931348623157e+308")


# One bad value for each checked field, sent through a raw file and through the
# corpus.json entry saved from it: (raw file, its row, the row with the bad
# value, the raw file's message, the edit of corpus.json's teams, its message).
_BAD_VALUES = [
    ("transcripts", "10,A,10.0,13.0", "10,C,10.0,13.0",
     "line 3: speaker must be one of A, B, I, got 'C'",
     lambda teams: _set(teams[0]["utterances"][1], "speaker", "C"),
     "team 10: speaker must be one of A, B, I, got 'C'"),
    ("transcripts", "10,A,10.0,13.0", "10,A,ten,13.0", "line 3: bad start_sec value 'ten'",
     lambda teams: _set(teams[0]["utterances"][1], "start", "ten"),
     "team 10: start must be a finite number, got 'ten'"),
    ("transcripts", "10,A,10.0,13.0", "10,A,10.0,inf", "line 3: bad end_sec value 'inf'",
     lambda teams: _set(teams[0]["utterances"][1], "end", "inf"),
     "team 10: end must be a finite number, got 'inf'"),
    ("transcripts", "10,A,10.0,13.0", "10,A,-13.0,-10.0", "line 3: start -13.0 is negative",
     lambda teams: teams[0]["utterances"][1].update(start=-13.0, end=-10.0),
     "team 10: start -13.0 is negative"),
    ("transcripts", "10,A,10.0,13.0", "10,A,14.0,13.0", "line 3: start 14.0 after end 13.0",
     lambda teams: _set(teams[0]["utterances"][1], "start", 14.0),
     "team 10: start 14.0 after end 13.0"),
    ("transcripts", "10,A,10.0,13.0", "ten,A,10.0,13.0", "line 3: bad team value 'ten'",
     lambda teams: _set(teams[0], "team", "ten"), "teams[0]: team must be an integer, got 'ten'"),
    ("events", "10,25.0,add,", "10,25.0,jump,", "line 2: unknown event kind 'jump'",
     lambda teams: _set(teams[0]["edits"][0], "kind", "jump"),
     "team 10: unknown edit kind 'jump'"),
    ("events", "10,25.0,add,", "10,-25.0,add,", "line 2: time_sec -25.0 is negative",
     lambda teams: _set(teams[0]["edits"][0], "time", -25.0), "team 10: time -25.0 is negative"),
    ("events", "10,25.0,add,Gallen,Davos,", "10,25.0,add,Luzern,Montreux,",
     "line 2: (Luzern,Montreux) is not a network edge",
     lambda teams: teams[0]["edits"][0].update(u=1, v=3),
     "team 10: (Luzern,Montreux) is not a network edge"),
    ("events", "10,40.0,submit,,,14", "10,40.0,submit,,,5",
     "line 4: submitted cost 5 below optimal 12",
     lambda teams: _set(teams[0]["submits"][0], "cost", 5),
     "team 10: submitted cost 5 below optimal 12"),
    ("events", "10,40.0,submit,,,14", "10,40.0,submit,,,14.5", "line 4: bad cost value '14.5'",
     lambda teams: _set(teams[0]["submits"][0], "cost", 14.5),
     "team 10: cost must be an integer, got 14.5"),
    ("events", "10,40.0,submit,,,14", "10,40.0,submit,,,1" + "0" * 400,
     f"line 4: submitted cost {_TOO_BIG}",
     lambda teams: _set(teams[0]["submits"][0], "cost", 10**400),
     f"team 10: submitted cost {_TOO_BIG}"),
    ("events", "10,40.0,submit,,,14", "10,40.0,submit,,,-1" + "0" * 400,
     f"line 4: submitted cost {reprlib.repr(-_HUGE)} below optimal 12",
     lambda teams: _set(teams[0]["submits"][0], "cost", -_HUGE),
     f"team 10: submitted cost {reprlib.repr(-_HUGE)} below optimal 12"),
    ("events", "10,40.0,submit,,,14", "10,40.0,submit,,,", "line 4: submit without cost",
     lambda teams: teams[0]["submits"][0].pop("cost"), "team 10: missing key 'cost'"),
    ("events", "20,18.0,submit", "20,-5.0,submit", "line 13: time_sec -5.0 is negative",
     lambda teams: _set(teams[1]["submits"][0], "time", -5.0), "team 20: time -5.0 is negative"),
    ("events", "20,20.0,stop", "20,-1.0,stop", "line 14: time_sec -1.0 is negative",
     lambda teams: _set(teams[1], "stops", [-1.0]), "team 20: stop time -1.0 is negative"),
    ("tests", "10,A,6,8", "10,I,6,8", "line 2: speaker must be one of A, B, got 'I'",
     lambda teams: _set(teams[0]["scores"][0], "speaker", "I"),
     "team 10: speaker must be one of A, B, got 'I'"),
    ("tests", "10,A,6,8", "10,A,11,8", "line 2: pre score 11 outside 0..10",
     lambda teams: _set(teams[0]["scores"][0], "pre", 11), "team 10: pre score 11 outside 0..10"),
    ("tests", "10,A,6,8", "10,A,1" + "0" * 400 + ",8",
     f"line 2: pre score {reprlib.repr(_HUGE)} outside 0..10",
     lambda teams: _set(teams[0]["scores"][0], "pre", _HUGE),
     f"team 10: pre score {reprlib.repr(_HUGE)} outside 0..10"),
    ("tests", "10,A,6,8", "10,A,6,-1", "line 2: post score -1 outside 0..10",
     lambda teams: _set(teams[0]["scores"][0], "post", -1),
     "team 10: post score -1 outside 0..10"),
    ("tests", "10,A,6,8", "10,A,6.5,8", "line 2: bad pre value '6.5'",
     lambda teams: _set(teams[0]["scores"][0], "pre", 6.5),
     "team 10: pre must be an integer, got 6.5"),
]


@pytest.mark.parametrize("file, row, bad_row, raw_message, edit, json_message", _BAD_VALUES,
                         ids=[f"{case[0]}: {case[3]}" for case in _BAD_VALUES])
def test_cli_rejects_bad_value_in_raw_file_and_corpus_with_exit_2(
        tmp_path, capsys, file, row, bad_row, raw_message, edit, json_message):
    """Exit 2 with the message, which shows a huge number shortened, as reprlib does."""
    corpus_dir = _ingest(tmp_path)
    path = corpus_dir / "corpus.json"
    data = json.loads(path.read_text())
    edit(data["teams"])
    path.write_text(json.dumps(data))
    assert main(["all", "--corpus", str(corpus_dir)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {json_message}" in err
    assert max(len(line.removeprefix(f"error: {path}: ")) for line in err.splitlines()) < 150

    paths = write_fixture_inputs(tmp_path)
    text = paths[file].read_text()
    assert row in text
    paths[file].write_text(text.replace(row, bad_row, 1))
    assert _ingest_rc(paths, tmp_path / "c") == 2
    err = capsys.readouterr().err
    assert f"error: {paths[file]}: {raw_message}" in err
    assert max(len(line.removeprefix(f"error: {paths[file]}: ")) for line in err.splitlines()) < 150


def _replace_bytes(old, new):
    return lambda path: path.write_bytes(path.read_bytes().replace(old, new, 1))


def _mkdir(path):
    path.mkdir(parents=True)


def _nest(path):  # deeper than the JSON decoder recurses
    path.write_text("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("command, file, damage, message", [
    *[("ingest", name, lambda path: path.unlink(), "No such file or directory")
      for name in ("transcripts", "events", "network", "tests")],
    ("ingest", "tests", _replace_bytes(b"10,B,8,4", b"10,B,\xff8,4"),
     "line 3: not UTF-8 (invalid start byte)"),
    ("ingest", "transcripts", _replace_bytes(b"Okay.", b"x" * 131_073),
     "line 6: field larger than field limit (131072)"),
    ("ingest", "network", _nest, "invalid JSON ("),
    ("all", "corpus", _nest, "invalid JSON ("),
    ("ingest", "out", lambda path: path.write_text(""), "File exists"),
    ("all", "out", lambda path: path.write_text(""), "File exists"),
    # a directory where an output file goes
    ("ingest", "corpus.json", _mkdir, "Is a directory"),
    ("all", "routines.csv", _mkdir, "Is a directory"),
    ("all", "h11_summary.json", _mkdir, "Is a directory"),
    ("all --format json", "h11.json", _mkdir, "Is a directory"),
], ids=lambda value: value if isinstance(value, str) else "")
def test_cli_unreadable_input_or_unwritable_output_exits_2(tmp_path, capsys, command, file,
                                                          damage, message):
    corpus_dir = _ingest(tmp_path, "corpus")
    out = tmp_path / "out"
    paths = {**write_fixture_inputs(tmp_path), "corpus": corpus_dir / "corpus.json", "out": out}
    path = paths.get(file, out / file)  # an input file, the output directory or a file in it
    damage(path)
    if command == "ingest":
        rc = _ingest_rc(paths, out)
    else:
        rc = main(["all", "--corpus", str(corpus_dir), "--out", str(out), *command.split()[1:]])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {message}" in err
    assert "Traceback" not in err


def test_cli_rejects_duplicate_score_rows_with_exit_2(tmp_path, capsys):
    paths = write_fixture_inputs(tmp_path)
    scores = paths["tests"].read_text()
    paths["tests"].write_text(scores + "10,A,0,10\n")
    assert _ingest_rc(paths, tmp_path / "c") == 2
    message = "team 10 has 2 test-score rows for speaker A"
    assert f"error: {paths['tests']}: {message}" in capsys.readouterr().err

    paths["tests"].write_text(scores)
    corpus_dir = _ingest(tmp_path)
    path = corpus_dir / "corpus.json"
    data = json.loads(path.read_text())
    data["teams"][0]["scores"].append({"speaker": "A", "pre": 0, "post": 10})
    path.write_text(json.dumps(data))
    assert main(["all", "--corpus", str(corpus_dir)]) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_cli_rejects_duplicate_team_in_corpus_with_exit_2(tmp_path, capsys):
    corpus_dir = _ingest(tmp_path)
    path = corpus_dir / "corpus.json"
    data = json.loads(path.read_text())
    data["teams"].append(data["teams"][1])
    path.write_text(json.dumps(data))
    assert main(["all", "--corpus", str(corpus_dir)]) == 2
    assert f"error: {path}: team 20 appears twice" in capsys.readouterr().err


def test_cli_refuses_a_corpus_time_above_the_bound_with_exit_2(tmp_path, capsys):
    # an "oh" this close to the float maximum would overflow 100 * t / duration to inf;
    # it is refused where corpus.json is read, before any file is written
    corpus_dir = _ingest(tmp_path)
    path = corpus_dir / "corpus.json"
    data = json.loads(path.read_text())
    data["teams"][0]["utterances"].append({"speaker": "A", "start": 1.7e308, "end": 1.7e308,
                                           "text": "oh"})
    data["teams"][0]["stops"].append(1.7e308)
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["all", "--corpus", str(corpus_dir), "--format", "json", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: team 10: start 1.7e+308 is above "
                                       "1000000000.0\n")
    assert not out.exists()


def test_cli_accepts_a_cost_at_the_largest_float(tmp_path):
    paths = write_fixture_inputs(tmp_path)
    text = paths["events"].read_text()
    paths["events"].write_text(text.replace("10,40.0,submit,,,14",
                                            f"10,40.0,submit,,,{int(sys.float_info.max)}"))
    corpus_dir = tmp_path / "corpus"
    assert _ingest_rc(paths, corpus_dir) == 0
    assert main(["all", "--corpus", str(corpus_dir)]) == 0


def test_cli_refuses_a_corpus_stop_above_the_bound_before_writing_csv_with_exit_2(tmp_path,
                                                                                 capsys):
    # a stop this close to the float maximum in every team, as the last event that sets
    # the team's duration: the first team's is refused where corpus.json is read
    corpus_dir = _ingest(tmp_path)
    path = corpus_dir / "corpus.json"
    data = json.loads(path.read_text())
    for team in data["teams"]:
        team["stops"].append(1.7e308)
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["all", "--corpus", str(corpus_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: team 10: stop time 1.7e+308 is above "
                                       "1000000000.0\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]], ids=["default", "W-error"])
def test_cli_refuses_times_that_would_overflow_a_mean_with_one_error_line(tmp_path, flags):
    # each team's one establishment ends at 1e306 and its submit comes at 1.0, so the
    # h1.1 norm medians would be 1e308 and their mean inf: the first time above the
    # bound is refused where corpus.json is read, with no warning before the error line
    # and no traceback under -W error
    teams = [_team_with_establishments(team, 12, [1e306], duration=1.0) for team in (1, 2)]
    save_corpus(_corpus(teams), tmp_path / "corpus")
    out = tmp_path / "out"
    result = subprocess.run([sys.executable, *flags, "-m", "align.cli", "all",
                             "--corpus", str(tmp_path / "corpus"), "--out", str(out)],
                            capture_output=True, text=True, timeout=300,
                            env={**os.environ,
                                 "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert result.returncode == 2
    assert result.stderr == (f"error: {tmp_path / 'corpus' / 'corpus.json'}: team 1: start "
                             "1e+306 is above 1000000000.0\n")
    assert not out.exists()


_H11_ROW = {"team": 1, "n_routine": 1, "n_common": 1, "median_abs": 1.0, "median_common": 1.0,
            "median_norm": 50.0, "q1_norm": 50.0, "q3_norm": 50.0}


@pytest.mark.parametrize("rows, distributions, summary, refused", [
    ((_H11_ROW,), {}, {"mean_of_medians_norm": math.inf}, "h11_summary.json"),
], ids=["summary"])
def test_emit_csv_writes_no_file_when_a_value_overflowed(tmp_path, rows, distributions,
                                                        summary, refused):
    # write_json refuses a non-finite value, and emit writes the summary first
    report = HypothesisReport("h1.1", rows, summary, distributions)
    with pytest.raises(InputError, match=f"^{re.escape(str(tmp_path / refused))}: .*inf$"):
        emit(report, "csv", tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_corpus_exits_2(tmp_path):
    assert main(["routines", "--corpus", str(tmp_path / "nowhere")]) == 2


def test_cli_unknown_hypothesis_exits_2(tmp_path, capsys):
    corpus_dir = _ingest(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--hypothesis", "h9.9", "--corpus", str(corpus_dir)])
    assert excinfo.value.code == 2
    assert ("argument --hypothesis: invalid choice: 'h9.9' "
            "(choose from 'h1.1', 'h1.2', 'h2.1', 'h2.2')") in capsys.readouterr().err


def test_emit_rejects_unknown_format(tmp_path):
    report = HypothesisReport(hypothesis="h1.1", per_team_rows=(), summary={},
                              distributions={})
    with pytest.raises(ValueError, match="format"):
        emit(report, "xml", tmp_path)


def test_cli_annotated_corpus_contents(tmp_path):
    corpus_dir = _ingest(tmp_path)
    assert main(["annotate", "--corpus", str(corpus_dir)]) == 0
    lines = (corpus_dir / "annotated_corpus.csv").read_text().splitlines()
    assert lines[0] == ("team,subject,verb,object,time,turn,attempt,instructions,"
                       "verdict,matched_instruction,matched_agent")
    # the fixture's first team-10 edit matches A's partial Gallen instruction;
    # the edge prints in canonical node-id order (Davos id < Gallen id)
    match_rows = [l for l in lines if ",Match," in l and l.startswith("10,")]
    assert any("Davos-Gallen" in row and "Add(gallen,?)" in row for row in match_rows)


def test_cli_annotated_corpus_quotes_a_bare_carriage_return(tmp_path):
    # csv.writer quotes "\n" for its line terminator but not a bare "\r"
    paths = write_fixture_inputs(tmp_path)
    text = paths["transcripts"].read_text()
    old = "Hello I would like you to help me collect gold."
    paths["transcripts"].write_text(text.replace(old, '"okay\roh"', 1), newline="")
    corpus_dir = tmp_path / "corpus"
    assert _ingest_rc(paths, corpus_dir) == 0
    assert main(["all", "--corpus", str(corpus_dir)]) == 0
    corpus = load_corpus(corpus_dir)
    with open(corpus_dir / "annotated_corpus.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert [len(row) for row in rows] == [11] * (1 + sum(
        len(tc.utterances) + len(tc.edits) for tc in corpus.teams))
    says = [row[3] for row in rows[1:] if row[2] == "says"]
    assert says == [u.text for tc in corpus.teams for u in tc.utterances]
    assert "okay\roh" in says


def _annotated_rows(corpus_dir: Path, *options: str) -> list[list[str]]:
    """`align annotate`'s annotated_corpus.csv as csv.reader reads it back; its bytes
    are the ones that csv.writer writes for those rows."""
    assert main(["annotate", "--corpus", str(corpus_dir), *options]) == 0
    path = corpus_dir / "annotated_corpus.csv"
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert path.read_bytes() == oracle_csv(rows)
    return rows


_ANNOTATED_HEADER = ["team", "subject", "verb", "object", "time", "turn", "attempt",
                     "instructions", "verdict", "matched_instruction", "matched_agent"]


def test_cli_annotated_corpus_quotes_node_names_instructions_and_texts(tmp_path):
    """Node names holding a comma and a double quote, each still one token, and
    utterances holding quotes, commas, CR and LF: every such cell of the edit rows'
    `u-v` objects, the instructions and the matched instructions is quoted as
    csv.writer quotes it, and the file reads back as one 11-field row per event,
    with and without --clear-on-verdict."""
    nodes = [("Bern", 1), ('Zu"rich', 2), ("Sankt,Gallen", 3)]
    (tmp_path / "network.json").write_text(json.dumps({
        "nodes": [{"id": i, "name": name, "label": name, "x": 0.0, "y": 0.0} for name, i in nodes],
        "edges": [{"u": u, "v": v, "cost": 1} for u, v in ((1, 2), (1, 3), (2, 3))]}))
    tables = {
        "transcripts": [["team", "speaker", "start_sec", "end_sec", "utterance"],
                        [7, "I", 0.0, 0.5, 'a "robot", line\r\n'],
                        [7, "A", 1.0, 2.0, 'connect Zu"rich to Sankt,Gallen, and bern to zu"rich'],
                        [7, "B", 3.0, 4.0, 'yes, bern\r\n"and", then\rsome\nmore']],
        "events": [["team", "time_sec", "event", "u", "v", "cost"],
                   [7, 5.0, "add", 'Zu"rich', "Sankt,Gallen", ""],
                   [7, 6.0, "add", "Bern", 'Zu"rich', ""], [7, 7.0, "submit", "", "", 2]],
        "tests": [["team", "speaker", "pre", "post"], [7, "A", 4, 6], [7, "B", 5, 5]]}
    paths = {"network": tmp_path / "network.json"}
    for name, table in tables.items():
        paths[name] = tmp_path / f"{name}.csv"
        with open(paths[name], "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(table)
    corpus_dir = tmp_path / "corpus"
    assert _ingest_rc(paths, corpus_dir) == 0
    says = [["7", "I", "says", 'a "robot", line\r\n', "0.0", "1", "1", "", "-", "", ""],
            ["7", "A", "says", 'connect Zu"rich to Sankt,Gallen, and bern to zu"rich', "1.0",
             "1", "1", 'Add(zu"rich,sankt,gallen) Add(bern,zu"rich)', "-", "", ""],
            ["7", "B", "says", 'yes, bern\r\n"and", then\rsome\nmore', "3.0", "1", "1",
             "Add(bern,?)", "-", "", ""]]
    first = ["7", "B", "adds", 'Zu"rich-Sankt,Gallen', "5.0", "1", "1", "", "Match",
             'Add(zu"rich,sankt,gallen)', "A"]
    second = ["7", "B", "adds", 'Bern-Zu"rich', "6.0", "1", "1", ""]
    assert _annotated_rows(corpus_dir) == [_ANNOTATED_HEADER, *says, first,
                                           second + ["Match", 'Add(bern,zu"rich)', "A"]]
    assert _annotated_rows(corpus_dir, "--clear-on-verdict") == [
        _ANNOTATED_HEADER, *says, first, second + ["Nonmatch", "", ""]]
    text = (corpus_dir / "annotated_corpus.csv").read_text(encoding="utf-8")
    assert ',"Zu""rich-Sankt,Gallen",5.0,1,1,,Match,"Add(zu""rich,sankt,gallen)",A\n' in text
    assert ',"Add(zu""rich,sankt,gallen) Add(bern,zu""rich)",-,,\n' in text


# mostly instructions on the first nodes of the drawn network, among quotes, commas,
# CR and LF, in sessions of a minute, so that most edits meet pending instructions
_instructing = st.lists(st.sampled_from(["connect node1 to node2", "node2", "cut node2",
                                         "remove node3 node2", 'say "so",', "a\rb\nc"]),
                       min_size=1, max_size=3).map(" ".join)
_annotated_texts = st.one_of(_instructing, _instructing, st.text(max_size=30))


@settings(max_examples=40, deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate])
@given(valid_corpora(texts=_annotated_texts, utterances=(4, 12), max_time=60.0,
                     instructed_edits=True))
def test_property_annotated_corpus_rows_equal_the_oracle(corpus):
    """Every row of annotated_corpus.csv, as csv.reader reads it back, holds the
    cells that `oracle_annotated_rows` gives for its team's stream, in team order,
    with and without --clear-on-verdict."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = save_corpus(corpus, tmp).parent
        loaded = load_corpus(corpus_dir)
        for options in ((), ("--clear-on-verdict",)):
            expected = [[str(tc.team), *cells] for tc in sorted(loaded.teams, key=lambda tc: tc.team)
                        for cells in oracle_annotated_rows(tc.stream(tc.utterances), loaded.network,
                                                           bool(options))]
            assert _annotated_rows(corpus_dir, *options) == [_ANNOTATED_HEADER, *expected], options


def test_cli_routines_task_only(tmp_path):
    corpus_dir = _ingest(tmp_path)
    assert main(["routines", "--corpus", str(corpus_dir), "--task-only"]) == 0
    lines = (corpus_dir / "routines.csv").read_text().splitlines()
    assert lines[0] == ("team,expression,initiator,priming_time,establishment_time,"
                       "priming_token_pos,establishment_token_pos,contains_referent")
    assert all(line.endswith("True") for line in lines[1:])
    assert any("mount zurich to mount bern" in line for line in lines[1:])


def test_cli_analyze_flags(tmp_path):
    corpus_dir = _ingest(tmp_path)
    rc = main(["analyze", "--hypothesis", "h2.2", "--corpus", str(corpus_dir),
               "--oh-events", "utterance", "--mm-events", "utterance",
               "--format", "json"])
    assert rc == 0
    data = json.loads((corpus_dir / "h22.json").read_text())
    assert data["summary"]["oh_events"] == "utterance"
    assert data["summary"]["mm_events"] == "utterance"

    rc = main(["analyze", "--hypothesis", "h1.1", "--corpus", str(corpus_dir),
               "--window", "10", "--format", "json"])
    assert rc == 0
    data = json.loads((corpus_dir / "h11.json").read_text())
    assert data["summary"]["common_window_sec"] == 10.0

    rc = main(["analyze", "--hypothesis", "h1.2", "--corpus", str(corpus_dir),
               "--markers", "oh", "--format", "json"])
    assert rc == 0
    data = json.loads((corpus_dir / "h12.json").read_text())
    team10 = next(r for r in data["per_team_rows"] if r["team"] == 10)
    assert team10["n_filler"] == 2  # two utterances with one "oh" each


def test_cli_hypotheses_take_the_options_of_their_runners():
    from align import cli, report

    assert list(cli.HYPOTHESES.items()) == [
        (hypothesis, tuple(inspect.signature(runner).parameters)[1:])
        for hypothesis, runner in report.RUNNERS.items()]


# every option each hypothesis takes, with a value
_TAKEN = {"h1.1": [["--window", "5"]], "h1.2": [["--markers", "oh"]],
          "h2.1": [["--window", "5"], ["--grouped"]],
          "h2.2": [["--oh-events", "utterance"], ["--mm-events", "utterance"]]}


@pytest.mark.parametrize("hypothesis, option", [
    (hypothesis, option) for hypothesis, options in _TAKEN.items() for option in options])
def test_cli_analyze_accepts_each_option_its_hypothesis_takes(tmp_path, hypothesis, option):
    corpus_dir = _ingest(tmp_path)
    assert main(["analyze", "--hypothesis", hypothesis, "--corpus", str(corpus_dir)]
                + option) == 0


@pytest.mark.parametrize("hypothesis, option, message", [
    ("h1.2", ["--window", "5"], "argument --window: h1.2 does not take it (it takes --markers)"),
    ("h1.1", ["--grouped"], "argument --grouped: h1.1 does not take it (it takes --window)"),
    ("h2.2", ["--markers", "oh"],
     "argument --markers: h2.2 does not take it (it takes --oh-events, --mm-events)"),
])
def test_cli_analyze_refuses_options_its_hypothesis_does_not_take(tmp_path, capsys, hypothesis,
                                                                  option, message):
    corpus_dir = _ingest(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--hypothesis", hypothesis, "--corpus", str(corpus_dir)] + option)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in corpus_dir.iterdir()) == ["corpus.json"]


@pytest.mark.parametrize("window", ["nan", "inf", "0", "-5", "ten"])
def test_cli_window_must_be_a_positive_number_of_seconds(tmp_path, capsys, window):
    corpus_dir = _ingest(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--hypothesis", "h1.1", "--corpus", str(corpus_dir),
              "--window", window])
    assert excinfo.value.code == 2
    assert (f"argument --window: not a positive number of seconds: {window!r}"
            in capsys.readouterr().err)
    assert not (corpus_dir / "h11_summary.json").exists()


def test_cli_markers_are_read_as_transcript_tokens(tmp_path):
    corpus_dir = _ingest(tmp_path)
    written = []
    for markers in ("uh,um", "UH, Um!"):
        out = tmp_path / markers
        assert main(["analyze", "--hypothesis", "h1.2", "--corpus", str(corpus_dir),
                     "--markers", markers, "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert written[1] == written[0]
    with open(tmp_path / "uh,um" / "h12_per_team.csv", newline="", encoding="utf-8") as handle:
        assert [row["n_filler"] for row in csv.DictReader(handle)] == ["2", "2"]


@pytest.mark.parametrize("markers, item", [("", ""), (",", ""), ("uh,", ""), ("uh um", "uh um"),
                                           ("uh,?", "?")])
def test_cli_markers_must_each_be_one_token(tmp_path, capsys, markers, item):
    corpus_dir = _ingest(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--hypothesis", "h1.2", "--corpus", str(corpus_dir),
              "--markers", markers])
    assert excinfo.value.code == 2
    assert f"argument --markers: not one marker token: {item!r}" in capsys.readouterr().err
    assert sorted(p.name for p in corpus_dir.iterdir()) == ["corpus.json"]


def test_cli_reads_negative_zero_times_as_zero(tmp_path):
    outputs = []
    for name in ("fixture", "negative-zero"):
        (tmp_path / name).mkdir()
        paths = write_fixture_inputs(tmp_path / name)
        if name == "negative-zero":
            text = paths["transcripts"].read_text()
            assert "\n10,I,0.0,3.0," in text
            paths["transcripts"].write_text(text.replace("\n10,I,0.0,3.0,", "\n10,I,-0.0,3.0,"))
        corpus_dir = tmp_path / name / "corpus"
        assert _ingest_rc(paths, corpus_dir) == 0
        assert main(["all", "--corpus", str(corpus_dir)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(corpus_dir.iterdir())})
    assert outputs[1] == outputs[0]


def test_cli_outputs_keep_team_id_order_whatever_the_corpus_order(tmp_path):
    corpus_dir = _ingest(tmp_path)
    path = corpus_dir / "corpus.json"
    data = json.loads(path.read_text())
    data["teams"].reverse()
    (tmp_path / "reversed").mkdir()
    (tmp_path / "reversed" / "corpus.json").write_text(json.dumps(data))
    outputs = []
    for directory in (corpus_dir, tmp_path / "reversed"):
        assert main(["all", "--corpus", str(directory), "--out", str(directory / "out")]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted((directory / "out").iterdir())})
    assert outputs[1] == outputs[0]


def test_cli_first_visual_flag(tmp_path):
    paths = write_fixture_inputs(tmp_path)
    corpus_dir = tmp_path / "corpus_a"
    rc = main(["ingest", "--transcripts", str(paths["transcripts"]),
               "--events", str(paths["events"]), "--network", str(paths["network"]),
               "--tests", str(paths["tests"]), "--out", str(corpus_dir),
               "--first-visual", "A"])
    assert rc == 0
    assert main(["annotate", "--corpus", str(corpus_dir)]) == 0
    lines = (corpus_dir / "annotated_corpus.csv").read_text().splitlines()
    first_edit = next(l for l in lines if ",adds," in l)
    assert first_edit.split(",")[1] == "A"


def test_cli_clear_on_verdict_flag(tmp_path):
    corpus_dir = _ingest(tmp_path)
    assert main(["annotate", "--corpus", str(corpus_dir), "--clear-on-verdict",
                 "--out", str(tmp_path / "variant")]) == 0
    assert main(["annotate", "--corpus", str(corpus_dir)]) == 0
    default = (corpus_dir / "annotated_corpus.csv").read_text()
    variant = (tmp_path / "variant" / "annotated_corpus.csv").read_text()
    # same verdict columns on this fixture, but the pending cache may differ;
    # at minimum the files parse identically in shape
    assert default.splitlines()[0] == variant.splitlines()[0]
    assert len(default.splitlines()) == len(variant.splitlines())


def test_cli_measures_output(tmp_path):
    corpus_dir = _ingest(tmp_path)
    assert main(["measures", "--corpus", str(corpus_dir)]) == 0
    lines = (corpus_dir / "task_features.csv").read_text().splitlines()
    assert lines[0] == "team,error,learn,learn_A,learn_B,duration_sec,n_submissions,n_turns"
    team10 = next(l for l in lines if l.startswith("10,"))
    fields = team10.split(",")
    assert fields[1] == "0.0"        # found the optimum
    assert fields[2] == "0.0"        # learn = (0.5 - 0.5) / 2
    assert fields[5] == "55.0"       # final submit time
