"""Acceptance suite.

Criteria 1-5 are self-contained and print one PASS line each (visible with
`pytest -s`). Criteria 6-10 reproduce published dataset numbers and run only
when ALIGN_DATASET points at a directory holding the ingestible corpus files
(transcripts.csv, events.csv, network.json, tests.csv).
"""

from __future__ import annotations

import os
import random
from itertools import combinations, permutations
from pathlib import Path

import pytest

from align.corpus import assemble_corpus, build_action_stream, load_event_log, \
    load_network, load_test_scores, load_transcript, number_utterances
from align.instructions import MATCH, MISMATCH, NONMATCH, match_instructions_to_actions
from align.measures import relative_learning_gain, submission_error
from align.report import Pipeline, run_h11, run_h12, run_h21, run_h22
from align.routines import extract_routines
from align.stats import cliffs_delta, kruskal_wallis, mann_whitney_u, spearman
from _builders import make_edits, make_submits, network, random_micro_dialogue
from _oracles import delta_direct, exact_kw_p, exact_mwu_p, exact_spearman_p, \
    h_direct, oracle_routines, oracle_verdicts, rho_direct, u_direct

NET = network()


# --- criterion 1: routine-mining oracle ------------------------------------------

def test_criterion_1_routine_mining_oracle():
    """200 randomized micro-dialogues match the brute-force oracle exactly."""
    rng = random.Random(2024)
    for trial in range(200):
        utterances = random_micro_dialogue(rng, max_utterances=8, max_tokens=6)
        mined = {}
        for r in extract_routines(utterances):
            base = utterances[r.priming.utterance_index].global_token_offset
            estab_base = utterances[r.establishment.utterance_index].global_token_offset
            mined[r.expression] = (
                r.initiator,
                (r.priming.utterance_index, r.priming.token_position - base),
                (r.establishment.utterance_index, r.establishment.token_position - estab_base),
            )
        expected = {gram: (initiator, priming, establishment)
                    for gram, (initiator, priming, establishment, _) in
                    oracle_routines(utterances).items()}
        assert mined == expected, f"trial {trial}"
    print("PASS criterion 1: routine mining equals brute-force oracle on 200 dialogues")


# --- criterion 2: matcher oracle -------------------------------------------------

_PHRASES = [
    "go to mount basel", "erase mount zurich", "mount bern to mount interlaken",
    "then do mount bern to mount zermatt", "what about mount gallen", "okay",
    "oh no", "connect mount luzern to mount davos", "maybe we start from mount zermatt",
]


def _random_stream(rng):
    utterance_rows, edit_rows, submit_rows = [], [], []
    t = 0.0
    names = {n.id: n.name for n in NET.nodes}
    for _ in range(rng.randrange(1, 13)):
        t += 1.0
        dice = rng.random()
        if dice < 0.5:
            utterance_rows.append((rng.choice("AB"), t, t + 0.5, rng.choice(_PHRASES)))
        elif dice < 0.85:
            u, v, _ = NET.edges[rng.randrange(len(NET.edges))]
            edit_rows.append((t, rng.choice(["add", "remove"]), names[u], names[v]))
        else:
            submit_rows.append((t, 12 + rng.randrange(4)))
    return build_action_stream(
        number_utterances(1, utterance_rows), make_edits(1, NET, edit_rows),
        make_submits(1, submit_rows), rng.choice("AB"))


def test_criterion_2_matcher_oracle():
    """200 randomized streams (<= 12 events) match the replay oracle exactly."""
    rng = random.Random(4048)
    for trial in range(200):
        stream = _random_stream(rng)
        records, _ = match_instructions_to_actions(stream, NET)
        got = [(r.verdict, r.actor,
                (r.instruction.verb, r.instruction.u, r.instruction.v, r.instruction.agent)
                if r.instruction else None) for r in records]
        assert got == oracle_verdicts(stream, NET), f"trial {trial}"
        n_edits = sum(1 for a in stream if a.verb != "says")
        assert len(records) == n_edits  # exactly one verdict per edit
        assert all(r.instruction.agent != r.actor for r in records if r.instruction)
    print("PASS criterion 2: matcher equals replay-from-scratch oracle on 200 streams")


# --- criterion 3: statistics oracles ----------------------------------------------

def test_criterion_3_statistics_exact_and_p_tolerance():
    """Statistics equal their direct definitions for every pooled size <= 8;
    approximate p-values track exhaustive permutation mid-p values.

    The no-continuity-correction approximations estimate the permutation
    mid-p (P(dev > obs) + 0.5 P(dev = obs)); under the ordinary inclusive
    exact p even the canonical separation example misses 0.05 (gap 0.0505), and
    mid-range configurations gap at 0.19. Enumerated tie-free bounds with
    min sample size 3: 0.0715 for U and H (worst at (1,4,7) vs (2,3,5,6)),
    0.029 for Spearman at n >= 5. The worked example family passes <= 0.05.
    """
    rng = random.Random(808)

    # exact statistic equality, all splits m+n <= 8, values with ties
    for m in range(1, 8):
        for n in range(1, 9 - m):
            for _ in range(25):
                x = [rng.randrange(5) for _ in range(m)]
                y = [rng.randrange(5) for _ in range(n)]
                assert mann_whitney_u(x, y).statistic == pytest.approx(u_direct(x, y))
                assert cliffs_delta(x, y) == pytest.approx(delta_direct(x, y))
                if m + n >= 3:
                    assert kruskal_wallis([x, y]).statistic == \
                        pytest.approx(h_direct([x, y]), abs=1e-10)
    for size in range(3, 9):
        for _ in range(25):
            x = [rng.randrange(8) for _ in range(size)]
            y = [rng.randrange(8) for _ in range(size)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman(x, y).statistic == pytest.approx(rho_direct(x, y))

    # worked example family: approximations within 0.05 of exhaustive mid-p
    assert abs(mann_whitney_u([1, 2, 3], [4, 5, 6]).p_value
               - exact_mwu_p([1, 2, 3], [4, 5, 6], convention="mid")) <= 0.05
    assert abs(kruskal_wallis([[1, 2, 3], [4, 5, 6]]).p_value
               - exact_kw_p([[1, 2, 3], [4, 5, 6]], convention="mid")) <= 0.05
    assert abs(spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]).p_value
               - exact_spearman_p([1, 2, 3, 4, 5], [2, 1, 4, 3, 5], convention="mid")) <= 0.05

    # exhaustive tie-free enumeration, min size >= 3, pooled <= 8
    worst_u = worst_h = 0.0
    for pooled_size in (6, 7, 8):
        values = list(range(1, pooled_size + 1))
        for m in range(3, pooled_size - 2):
            if pooled_size - m < 3:
                continue
            for chosen in combinations(range(pooled_size), m):
                taken = set(chosen)
                x = [values[i] for i in chosen]
                y = [values[i] for i in range(pooled_size) if i not in taken]
                worst_u = max(worst_u, abs(mann_whitney_u(x, y).p_value
                                           - exact_mwu_p(x, y, convention="mid")))
                worst_h = max(worst_h, abs(kruskal_wallis([x, y]).p_value
                                           - exact_kw_p([x, y], convention="mid")))
    assert worst_u <= 0.072
    assert worst_h <= 0.072

    worst_rho = 0.0
    for size in (5, 6):
        x = list(range(1, size + 1))
        seen = set()
        for perm in permutations(range(size)):
            y = [x[i] for i in perm]
            rho = abs(rho_direct(x, y))
            if round(rho, 9) in seen or rho == 1.0:
                continue
            seen.add(round(rho, 9))
            worst_rho = max(worst_rho, abs(spearman(x, y).p_value
                                           - exact_spearman_p(x, y, convention="mid")))
    assert worst_rho <= 0.05

    print(f"PASS criterion 3: statistics exact; p-value gaps (mid-p): "
          f"U {worst_u:.4f}, H {worst_h:.4f}, rho {worst_rho:.4f}")


def test_criterion_3_properties_on_random_inputs():
    """Antisymmetry and monotone invariance over 1,000 random inputs."""
    rng = random.Random(909)

    def monotone(v):
        return v**3 + 2.0 * v

    for _ in range(1000):
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        x = [float(rng.randrange(9)) for _ in range(m)]
        y = [float(rng.randrange(9)) for _ in range(n)]
        d = cliffs_delta(x, y)
        assert d == pytest.approx(-cliffs_delta(y, x))
        assert mann_whitney_u(x, y).statistic + mann_whitney_u(y, x).statistic \
            == pytest.approx(m * n)
        fx, fy = [monotone(v) for v in x], [monotone(v) for v in y]
        assert cliffs_delta(fx, fy) == pytest.approx(d)
        assert mann_whitney_u(fx, fy).statistic == pytest.approx(mann_whitney_u(x, y).statistic)
        shift = rng.uniform(-100, 100)
        assert cliffs_delta([v + shift for v in x], [v + shift for v in y]) == pytest.approx(d)
    print("PASS criterion 3 (properties): antisymmetry and monotone invariance on 1000 inputs")


# --- criterion 4: excerpt golden tests ---------------------------------------------

def test_criterion_4_team10_excerpt():
    stream = build_action_stream(
        number_utterances(10, [
            ("A", 1.0, 2.0, "Maybe we start from, Mount Zermatt?"),
            ("B", 3.0, 4.0, "No lets do Mount Davos to, where do you wanna go?"),
            ("A", 5.0, 6.0, "to Mount, St Gallen."),
        ]),
        make_edits(10, NET, [(7.0, "add", "Gallen", "Davos")]),
        [], first_visual="B")
    records, annotated = match_instructions_to_actions(stream, NET)
    inferred = [(i.agent, str(i)) for a in annotated for i in a.instructions]
    assert inferred == [("A", "Add(zermatt,?)"), ("B", "Add(davos,?)"), ("A", "Add(gallen,?)")]
    assert len(records) == 1
    assert records[0].verdict == MATCH and records[0].actor == "B"
    assert records[0].instruction.agent == "A"
    assert str(records[0].instruction) == "Add(gallen,?)"
    print("PASS criterion 4: Team-10 excerpt reproduces the published annotations")


def test_criterion_4_team17_excerpt():
    stream = build_action_stream(
        number_utterances(17, [
            ("A", 1.0, 2.0, "go to Mount Basel."),
            ("A", 4.0, 5.0, "Yeah, and then go to Mount Zurich."),
            ("A", 10.0, 11.0, "Then do Mount Bern to Mount Zermatt."),
            ("B", 20.0, 21.0, "Mount Bern to Mount Interlaken?"),
        ]),
        make_edits(17, NET, [
            (3.0, "add", "Basel", "Bern"),
            (6.0, "add", "Basel", "Zurich"),
            (7.0, "add", "Zurich", "Bern"),
            (8.0, "add", "Zurich", "Gallen"),
            (26.0, "add", "Interlaken", "Bern"),
        ]),
        [], first_visual="B")
    records, _ = match_instructions_to_actions(stream, NET)
    key = [(r.verdict, r.actor, str(r.instruction) if r.instruction else None)
           for r in records]
    assert key[0] == (MATCH, "B", "Add(basel,?)")
    assert key[1] == (MATCH, "B", "Add(zurich,?)")
    assert key[4] == (MISMATCH, "B", "Add(bern,zermatt)")
    print("PASS criterion 4: Team-17 excerpt reproduces the published annotations")


def test_criterion_4_team20_excerpt():
    stream = build_action_stream(
        number_utterances(20, [
            ("B", 1.0, 2.0, "I'm just gonna ..."),
            ("A", 5.0, 6.0, "what about Mount Gallen?"),
            ("B", 7.0, 8.0, "Oh I think we have to connect all of them."),
        ]),
        make_edits(20, NET, [
            (3.0, "add", "Luzern", "Zurich"),
            (4.0, "add", "Luzern", "Zermatt"),
            (9.0, "add", "Luzern", "Interlaken"),
        ]),
        [], first_visual="A")
    records, _ = match_instructions_to_actions(stream, NET)
    assert (records[1].verdict, records[1].actor) == (NONMATCH, "A")
    assert records[1].instruction is None
    assert (records[2].verdict, records[2].actor) == (MISMATCH, "B")
    assert str(records[2].instruction) == "Add(gallen,?)"
    print("PASS criterion 4: Team-20 excerpt reproduces the published annotations")


# --- criterion 5: measure fixtures --------------------------------------------------

def test_criterion_5_measure_fixtures():
    assert submission_error(12, 12) == 0.0
    assert submission_error(24, 12) == 1.0
    assert relative_learning_gain(5, 5) == 0.0
    assert relative_learning_gain(6, 8) == 0.5
    assert relative_learning_gain(8, 4) == -0.5
    print("PASS criterion 5: measure fixtures match the defining equations exactly")


# --- criteria 6-10: dataset reproduction (conditional) --------------------------------

DATASET = os.environ.get("ALIGN_DATASET")
needs_dataset = pytest.mark.skipif(
    not DATASET or not Path(DATASET or "").is_dir(),
    reason="set ALIGN_DATASET to a directory with transcripts.csv, events.csv, "
           "network.json, tests.csv to run the dataset-reproduction criteria",
)


@pytest.fixture(scope="module")
def dataset_pipeline():
    base = Path(DATASET)
    net = load_network(base / "network.json")
    corpus = assemble_corpus(
        network=net,
        utterances=load_transcript(base / "transcripts.csv"),
        events=load_event_log(base / "events.csv", net),
        scores=load_test_scores(base / "tests.csv"),
    )
    return Pipeline(corpus)


def _row(report, team):
    return next(r for r in report.per_team_rows if r["team"] == team)


@needs_dataset
def test_criterion_6_h11_summary(dataset_pipeline):
    report = run_h11(dataset_pipeline)
    summary = report.summary["spearman_median_abs_vs_error"]
    assert summary["rho"] == pytest.approx(0.69, abs=0.02)
    assert summary["p"] < 0.05
    assert report.summary["mean_of_medians_norm"] == pytest.approx(63.0, abs=0.5)
    print("PASS criterion 6: H1.1 rho and normalized mean-of-medians reproduced")


@needs_dataset
def test_criterion_7_h12_spot_rows(dataset_pipeline):
    report = run_h12(dataset_pipeline)
    row = _row(report, 28)
    assert row["U_priming"] == 1600.5
    assert row["delta_priming"] == pytest.approx(0.45, abs=0.01)
    assert row["U_estab"] == 828.5
    assert row["delta_estab"] == pytest.approx(-0.25, abs=0.01)
    assert _row(report, 7)["delta_estab"] == pytest.approx(-0.67, abs=0.01)
    print("PASS criterion 7: H1.2 Team-28/Team-7 spot rows reproduced")


@needs_dataset
def test_criterion_8_h21_summary(dataset_pipeline):
    report = run_h21(dataset_pipeline)
    assert report.summary["spearman_median_match_abs_vs_error"]["rho"] == \
        pytest.approx(0.59, abs=0.02)
    assert report.summary["spearman_median_mismatch_abs_vs_error"]["rho"] == \
        pytest.approx(0.70, abs=0.02)
    assert _row(report, 18)["ratio"] == pytest.approx(3.6, abs=0.1)
    assert _row(report, 20)["ratio"] == pytest.approx(4.0, abs=0.1)
    print("PASS criterion 8: H2.1 correlations and match/mismatch ratios reproduced")


@needs_dataset
def test_criterion_9_h22_spot_rows(dataset_pipeline):
    # published U and delta satisfy delta = 2U/(m*n) - 1 with the per-utterance
    # counts, so the toggled conventions (oh_events/mm_events = "utterance")
    # are the ones under test; the design-decision defaults are per-token and
    # per-action (see the annotated-corpus outputs for both).
    report = run_h22(dataset_pipeline, oh_events="utterance", mm_events="utterance")
    row = _row(report, 8)
    assert row["U"] == 522.0
    assert row["delta"] == pytest.approx(-0.54, abs=0.01)
    row = _row(report, 17)
    assert row["U"] == 318.0
    assert row["delta"] == pytest.approx(-0.04, abs=0.01)
    row = _row(report, 20)
    assert (row["n_oh"], row["n_match"], row["n_mismatch"]) == (65, 24, 6)
    assert report.summary["spearman_delta_vs_error"]["rho"] == pytest.approx(-0.53, abs=0.03)
    print("PASS criterion 9: H2.2 spot rows and summary correlation reproduced")


@needs_dataset
def test_criterion_10_h11_kruskal_summaries(dataset_pipeline):
    report = run_h11(dataset_pipeline)
    assert report.summary["kruskal_learning_median_abs"]["H"] == pytest.approx(0.88, abs=0.02)
    assert report.summary["kruskal_learning_median_norm"]["H"] == pytest.approx(0.10, abs=0.02)
    print("PASS criterion 10: H1.1 Kruskal-Wallis learning-split statistics reproduced")
