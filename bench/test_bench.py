"""Tests of the benchmark itself: generator, digest gate, span arithmetic.

Run from the root of a checkout: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402
from align import cli  # noqa: E402
from align.corpus import load_corpus  # noqa: E402

SMOKE = {name: run.smoke_shape(shape) for name, shape in synth.WORKLOADS.items()}


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_generator_is_seeded_and_sized_by_shape(tmp_path, workload):
    shape = SMOKE[workload]
    size_a = synth.generate(shape, 7, tmp_path / "a")
    size_b = synth.generate(shape, 7, tmp_path / "b")
    size_c = synth.generate(shape, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert size_a == size_b
    for key in ("teams", "utterances", "tokens", "candidate_grams"):
        assert size_a[key] == size_c[key], key


def test_generated_teams_are_complete_and_ingest(tmp_path):
    shape = dataclasses.replace(SMOKE["instructions-dense"], edit_rate=0.0)
    size = synth.generate(shape, 3, tmp_path / "in")
    with open(tmp_path / "in" / "tests.csv", newline="") as handle:
        scores = Counter((row["team"], row["speaker"]) for row in csv.DictReader(handle))
    with open(tmp_path / "in" / "events.csv", newline="") as handle:
        submits = Counter(row["team"] for row in csv.DictReader(handle)
                          if row["event"] == "submit")
    teams = {str(t) for t in range(1, shape.teams + 1)}
    assert set(scores) == {(t, s) for t in teams for s in "AB"}
    assert set(submits) == teams

    out = tmp_path / "corpus"
    assert cli.main(run.ingest_args(tmp_path / "in", out)) == 0
    corpus = load_corpus(out)
    assert len(corpus.teams) == size["teams"]
    assert sum(len(tc.utterances) for tc in corpus.teams) == size["utterances"]
    assert sum(len(u.tokens) for tc in corpus.teams for u in tc.utterances) == size["tokens"]


def test_digest_covers_names_and_contents(tmp_path):
    (tmp_path / "a.csv").write_text("1\n")
    (tmp_path / "b.json").write_text("{}\n")
    first = run.digest_dir(tmp_path)
    (tmp_path / "b.json").write_text("{ }\n")
    assert run.digest_dir(tmp_path) != first
    (tmp_path / "b.json").write_text("{}\n")
    assert run.digest_dir(tmp_path) == first
    (tmp_path / "b.json").rename(tmp_path / "c.json")
    assert run.digest_dir(tmp_path) != first


def test_gate_counts_exits_and_digest_mismatches():
    good = run.Cycle(True, "aa", {})
    other = run.Cycle(True, "bb", {})
    crashed = run.Cycle(False, None, {})
    assert run.gate([good, good, good], None) == 0
    assert run.gate([good, other, good], None) == 1
    assert run.gate([good, crashed], None) == 1
    assert run.gate([good, good], "aa") == 0
    assert run.gate([good, good], "cc") == 2


def test_steady_time_scales_cpu_by_the_probe():
    child = run.Child(0, cpu=3.0, probe=1.5 * run.PROBE_REFERENCE, wall=3.5, rss_mb=1.0)
    assert child.steady() == pytest.approx(2.0)


def test_spawn_samples_the_probe_while_the_child_runs(tmp_path):
    probe = run.Probe()
    child = run.spawn(["-c", "sum(range(3_000_000))"], tmp_path / "err", probe)
    assert child.code == 0 and child.cpu > 0 and child.wall >= child.cpu * 0.5
    assert len(probe.samples) >= 2
    assert child.probe == pytest.approx(sum(probe.samples) / len(probe.samples))
    assert run.spawn(["-c", "raise SystemExit(3)"], tmp_path / "err", probe).code == 3


def test_self_times_subtract_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: 1..6 is covered once
        ["leaf", 1.5, 2.0, 1],
        ["late", 9.0, 12.0, 0],  # clipped at the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.5, 3.0, 0.5, 3.0])
    assert tracing.self_time_by_name(spans + [["leaf", 7.0, 7.5, None]])["leaf"] == \
        pytest.approx(1.0)


def test_tracer_nests_spans_and_patches_are_restored():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    with tracer.span("root"):
        assert outer(1) == 4
    assert [(s[0], s[3]) for s in tracer.spans] == [("root", None), ("outer", 0), ("inner", 1)]

    original = cli.load_corpus
    runner = cli.RUNNERS["h1.1"]
    with tracing.patched(tracing.Tracer()):
        assert cli.load_corpus is not original
        assert cli.RUNNERS["h1.1"] is not runner
    assert cli.load_corpus is original and cli.RUNNERS["h1.1"] is runner


def test_a_missing_layer_function_is_skipped(monkeypatch, capsys):
    monkeypatch.delattr(cli, "emit_measures")
    with tracing.patched(tracing.Tracer()):
        assert not hasattr(cli, "emit_measures")
    assert not hasattr(cli, "emit_measures")
    assert "align.cli.emit_measures not found" in capsys.readouterr().err


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(synth.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    baseline = json.loads(run.BASELINE.read_text())
    assert set(baseline["digests"]) == set(synth.WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for moves, workloads in tracing.PER_LAYER.values():
        assert moves in end_to_end and set(workloads) <= set(synth.WORKLOADS)


def test_traced_and_child_cycles_agree(tmp_path):
    workload = "teams-many"
    size = synth.generate(SMOKE[workload], 5, tmp_path / "in")
    fmt = SMOKE[workload].output_format
    child = run.child_cycle(tmp_path / "in", tmp_path / "child", size, fmt, run.Probe())
    plain, _ = run.inprocess_cycle(tmp_path / "in", tmp_path / "plain", size, fmt, None)
    traced, layers = run.inprocess_cycle(tmp_path / "in", tmp_path / "traced", size, fmt,
                                         tracing.Tracer())
    assert child.ok and plain.ok and traced.ok
    assert child.digest == plain.digest == traced.digest
    measured_elsewhere = {"setup.import_scipy_stats_s", "trace.untraced_s", "trace.overhead_s"}
    assert set(layers) == set(tracing.PER_LAYER) - measured_elsewhere
    assert layers["instructions.match_calls_per_team"] == 2
    assert layers["corpus.tokens"] == size["tokens"]
    assert layers["routines.candidate_grams"] == size["candidate_grams"]


def test_failed_cycles_fail_the_exit_status(monkeypatch, capsys):
    report = {"workload": "teams-many", "seed": 9, "size": {}, "cycles": 2, "failed": 1,
              "digests": [], "pinned": None, "samples": {}, "metrics": {}}
    monkeypatch.setattr(run, "run_one", lambda *args, **kwargs: report)
    assert run.main(["--workload", "teams-many", "--seed", "9", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
