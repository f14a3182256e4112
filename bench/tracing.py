"""In-process span tracing of one `align ingest` + `align all` run.

The tracer wraps each layer's public functions where their callers bind
them, so nothing under src/ changes. Spans (name, start, end, parent) stay
in memory until the run ends; self times and the per-layer counts are
derived from them afterwards, outside the timed region.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from synth import WORKLOADS

EVERY = list(WORKLOADS)
# Per-layer metric -> (end-to-end metric it should move, workloads on which
# it should move it). Units and directions are in BENCHMARK.json. Times are
# summed self times.
PER_LAYER = {
    "corpus.load_raw_s": ("ingest_s", ["teams-many", "instructions-dense"]),
    "corpus.assemble_s": ("ingest_s", ["teams-many"]),
    "corpus.save_s": ("ingest_s", ["teams-many", "instructions-dense"]),
    "corpus.json_bytes": ("ingest_s", ["teams-many", "instructions-dense"]),
    "corpus.load_corpus_s": ("all_s", ["teams-many", "instructions-dense"]),
    "corpus.stream_s": ("all_s", ["teams-many", "instructions-dense"]),
    "corpus.teams": ("tokens_per_s", EVERY),
    "corpus.utterances": ("tokens_per_s", EVERY),
    "corpus.tokens": ("tokens_per_s", EVERY),
    "routines.extract_s": ("all_s", ["dialogue-long"]),
    "routines.candidate_grams": ("all_peak_rss_mb", ["dialogue-long"]),
    "routines.found": ("all_peak_rss_mb", ["dialogue-long"]),
    "routines.occurrences": ("all_peak_rss_mb", ["dialogue-long"]),
    "routines.yield": ("all_peak_rss_mb", ["dialogue-long"]),
    "routines.filter_s": ("all_s", ["dialogue-long"]),
    "routines.token_events_s": ("all_s", ["dialogue-long"]),
    "instructions.match_s": ("all_s", ["instructions-dense"]),
    "instructions.match_calls_per_team": ("all_s", ["instructions-dense"]),
    "instructions.grouped_s": ("all_s", ["teams-many"]),
    "instructions.grouped_calls": ("all_s", ["teams-many"]),
    "instructions.pending_mean_at_edit": ("all_s", ["instructions-dense"]),
    "instructions.full_instructions": ("all_s", ["instructions-dense"]),
    "instructions.partial_instructions": ("all_s", ["instructions-dense"]),
    "instructions.verdict_match": ("all_s", ["instructions-dense"]),
    "instructions.verdict_mismatch": ("all_s", ["instructions-dense"]),
    "instructions.verdict_nonmatch": ("all_s", ["instructions-dense"]),
    "measures.success_s": ("all_s", ["teams-many"]),
    "stats.spearman_s": ("all_s", ["teams-many"]),
    "stats.spearman_calls": ("all_s", ["teams-many"]),
    "stats.mann_whitney_s": ("all_s", ["teams-many"]),
    "stats.mann_whitney_calls": ("all_s", ["teams-many"]),
    "stats.cliffs_delta_s": ("all_s", ["teams-many"]),
    "stats.cliffs_delta_calls": ("all_s", ["teams-many"]),
    "stats.kruskal_s": ("all_s", ["teams-many"]),
    "stats.kruskal_calls": ("all_s", ["teams-many"]),
    "stats.cliffs_pairs": ("all_s", ["dialogue-long"]),
    "report.h11_self_s": ("all_s", ["teams-many"]),
    "report.h12_self_s": ("all_s", ["teams-many"]),
    "report.h21_self_s": ("all_s", ["teams-many"]),
    "report.h22_self_s": ("all_s", ["teams-many"]),
    "report.emit_s": ("all_s", ["instructions-dense"]),
    "report.output_bytes": ("all_s", ["instructions-dense"]),
    "setup.import_scipy_stats_s": ("setup_s", EVERY),
    "trace.untraced_s": ("all_s", EVERY),
    "trace.overhead_s": ("all_s", EVERY),
}

# (module, attribute) -> span name. Each function is patched in the module
# that calls it, since `from x import f` binds f there.
PATCHES = {
    ("align.cli", "load_network"): "corpus.load_raw",
    ("align.cli", "load_transcript"): "corpus.load_raw",
    ("align.cli", "load_event_log"): "corpus.load_raw",
    ("align.cli", "load_test_scores"): "corpus.load_raw",
    ("align.cli", "assemble_corpus"): "corpus.assemble",
    ("align.cli", "save_corpus"): "corpus.save",
    ("align.cli", "load_corpus"): "corpus.load_corpus",
    ("align.corpus", "build_action_stream"): "corpus.stream",
    ("align.report", "extract_routines"): "routines.extract",
    ("align.report", "filter_task_routines"): "routines.filter",
    ("align.report", "token_events"): "routines.token_events",
    ("align.report", "match_instructions_to_actions"): "instructions.match",
    ("align.report", "grouped_records"): "instructions.grouped",
    ("align.report", "team_success"): "measures.success",
    ("align.report", "spearman"): "stats.spearman",
    ("align.report", "mann_whitney_u"): "stats.mann_whitney",
    ("align.report", "cliffs_delta"): "stats.cliffs_delta",
    ("align.report", "kruskal_wallis"): "stats.kruskal",
    ("align.cli", "emit"): "report.emit",
    ("align.cli", "emit_routine_table"): "report.emit",
    ("align.cli", "emit_annotated_corpus"): "report.emit",
    ("align.cli", "emit_measures"): "report.emit",
}
# `align all` looks runners up in this dict at call time
RUNNER_SPANS = {"h1.1": "report.h11", "h1.2": "report.h12", "h2.1": "report.h21",
                "h2.2": "report.h22"}
# calls whose arguments and results the counts are derived from
KEPT = {"corpus.load_corpus", "routines.extract", "instructions.match", "stats.cliffs_delta"}


class Tracer:
    """Records nested spans as [name, start, end, parent index or None]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        kept = self.kept[name] if name in KEPT else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if kept is not None:
                kept.append((args, result))
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def self_time_by_name(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


@contextmanager
def patched(tracer: Tracer):
    """Route every traced function through `tracer`; restore them on exit."""
    saved = []
    runners = importlib.import_module("align.report").RUNNERS
    try:
        for (module_name, attr), name in PATCHES.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # renamed or removed by a refactor: its metrics read 0
                print(f"warning: {module_name}.{attr} not found; {name} is not traced",
                      file=sys.stderr)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        for hypothesis, name in RUNNER_SPANS.items():
            original = runners[hypothesis]
            saved.append((runners, hypothesis, original))
            runners[hypothesis] = tracer.wrap(name, original)
        yield tracer
    finally:
        for target, key, original in reversed(saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def pending_at_edits(annotated) -> list[int]:
    """Size of the pending-instruction cache just before each edit's verdict."""
    sizes = []
    pending = 0
    turn = attempt = 1
    for ann in annotated:
        action = ann.action
        if action.turn > turn or action.attempt > attempt:
            pending = 0
            turn, attempt = action.turn, action.attempt
        if ann.record is not None:
            sizes.append(pending)
        pending = len(ann.pending_after)
    return sizes


def layer_metrics(tracer: Tracer, corpus_dir: str | Path) -> dict[str, float]:
    """Per-layer times and counts of one traced `ingest` + `all` run."""
    own = self_time_by_name(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        calls[span[0]] += 1
    kept = tracer.kept

    corpora = [corpus for _, corpus in kept["corpus.load_corpus"]]
    teams = sum(len(corpus.teams) for corpus in corpora)
    utterances = [u for corpus in corpora for tc in corpus.teams for u in tc.utterances]

    candidates = found = occurrences = 0
    for (team_utterances,), routines in kept["routines.extract"]:
        candidates += sum(len(u.tokens) * (len(u.tokens) + 1) // 2
                          for u in team_utterances if u.is_human)
        found += len(routines)
        occurrences += sum(len(r.all_occurrences) for r in routines)

    seen: set[int] = set()
    pending: list[int] = []
    instructions = {True: 0, False: 0}
    verdicts: dict[str, int] = defaultdict(int)
    for args, (records, annotated) in kept["instructions.match"]:
        if id(args[0]) in seen:  # the same team stream matched again
            continue
        seen.add(id(args[0]))
        pending += pending_at_edits(annotated)
        for ann in annotated:
            for instruction in ann.instructions:
                instructions[instruction.is_partial] += 1
        for record in records:
            verdicts[record.verdict] += 1

    corpus_dir = Path(corpus_dir)
    corpus_json = corpus_dir / "corpus.json"
    metrics = {
        "corpus.load_raw_s": own.get("corpus.load_raw", 0.0),
        "corpus.assemble_s": own.get("corpus.assemble", 0.0),
        "corpus.save_s": own.get("corpus.save", 0.0),
        "corpus.json_bytes": corpus_json.stat().st_size,
        "corpus.load_corpus_s": own.get("corpus.load_corpus", 0.0),
        "corpus.stream_s": own.get("corpus.stream", 0.0),
        "corpus.teams": teams,
        "corpus.utterances": len(utterances),
        "corpus.tokens": sum(len(u.tokens) for u in utterances),
        "routines.extract_s": own.get("routines.extract", 0.0),
        "routines.candidate_grams": candidates,
        "routines.found": found,
        "routines.occurrences": occurrences,
        "routines.yield": found / candidates if candidates else 0.0,
        "routines.filter_s": own.get("routines.filter", 0.0),
        "routines.token_events_s": own.get("routines.token_events", 0.0),
        "instructions.match_s": own.get("instructions.match", 0.0),
        "instructions.match_calls_per_team": calls["instructions.match"] / teams if teams else 0.0,
        "instructions.grouped_s": own.get("instructions.grouped", 0.0),
        "instructions.grouped_calls": calls["instructions.grouped"],
        "instructions.pending_mean_at_edit": sum(pending) / len(pending) if pending else 0.0,
        "instructions.full_instructions": instructions[False],
        "instructions.partial_instructions": instructions[True],
        "instructions.verdict_match": verdicts["Match"],
        "instructions.verdict_mismatch": verdicts["Mismatch"],
        "instructions.verdict_nonmatch": verdicts["Nonmatch"],
        "measures.success_s": own.get("measures.success", 0.0),
        "stats.cliffs_pairs": sum(len(x) * len(y) for (x, y), _ in kept["stats.cliffs_delta"]),
        "report.emit_s": own.get("report.emit", 0.0),
        "report.output_bytes": sum(p.stat().st_size for p in corpus_dir.iterdir()
                                   if p != corpus_json),
    }
    for stat in ("spearman", "mann_whitney", "cliffs_delta", "kruskal"):
        metrics[f"stats.{stat}_s"] = own.get(f"stats.{stat}", 0.0)
        metrics[f"stats.{stat}_calls"] = calls[f"stats.{stat}"]
    for name in RUNNER_SPANS.values():
        metrics[f"{name}_self_s"] = own.get(name, 0.0)
    return metrics
