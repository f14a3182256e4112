"""Benchmark of `align ingest` + `align all` on seeded synthetic corpora.

One client runs a closed loop: `align ingest`, then `align all` on the
corpus it wrote, one after the other, each as a fresh child process, until
the run length is used up. Each cycle is checked: both children exit 0, the
outputs have one task row per team and one annotated row per utterance and
edit, and the SHA-256 digest over every file they write agrees with the
other cycles and, on the pinned seed, with bench/baseline.json. setup_s is
the median time of fresh interpreters running `import align.cli`: a few
before the loop and one after every cycle.

Times are steady CPU seconds. On a virtual machine whose cores are shared
with other tenants, neither a child's wall time nor its CPU time (user +
system, read with `os.wait4`) is steady: in bursts of about half a second the
core runs the same code up to 1.7 times slower, and how many bursts a child
meets changes from minute to minute. So the benchmark and its children are
pinned to one core, and while a child runs, a thread of the benchmark times a
short fixed interpreter loop every PROBE_PERIOD seconds on that core. A
child's time is its CPU time times PROBE_REFERENCE, the loop's time on a quiet
core of the machine the baseline was measured on, over the loop's mean time
while the child ran: the CPU seconds the child would have used on that quiet
core. The children run with one BLAS thread and a fixed hash seed, so their
CPU time does not depend on the number of cores or on the order of hashed
sets. Raw CPU and wall times are printed too.

With --trace 1 the same two commands run in-process through
`align.cli.main`, alternating untraced and traced cycles; the traced ones
wrap each layer's functions (bench/tracing.py) and give the per-layer metrics.

Usage, from the root of a checkout:
    python3 bench/run.py --workload dialogue-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter, thread_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import synth  # noqa: E402
import tracing  # noqa: E402

BASELINE = BENCH / "baseline.json"
# fresh imports of align.cli before the loop, after a warm-up; one more
# follows every cycle, so the set-up samples span the same window as the cycles
SETUP_SAMPLES = 2
IMPORT = "import align.cli"
# the probe times a loop of PROBE_STEPS steps every PROBE_PERIOD s; on a quiet
# core of the machine the baseline was measured on, the loop takes PROBE_REFERENCE s
PROBE_PERIOD = 0.02
PROBE_STEPS = 4000
PROBE_REFERENCE = 0.0007


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def probe_loop() -> float:
    """CPU seconds of this thread for a fixed interpreter loop."""
    start = thread_time()
    total, table = 0, {}
    for i in range(PROBE_STEPS):
        total += i * i % 7
        table[i % 5000 * 31] = str(total)
    return thread_time() - start


class Probe:
    """Samples of the probe loop, taken on a thread while children run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    @contextlib.contextmanager
    def running(self):
        stop = threading.Event()

        def sample() -> None:
            while True:
                self.samples.append(probe_loop())
                if stop.wait(PROBE_PERIOD):
                    return

        thread = threading.Thread(target=sample, name="probe")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()


def pin_to_one_core() -> None:
    """Keep this process, its probe thread and its children on one core, so
    the probe runs where the children run. It binds the calling thread and
    what it starts later."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclasses.dataclass
class Child:
    code: int
    cpu: float  # user + system seconds
    probe: float  # mean probe loop time while the child ran
    wall: float
    rss_mb: float  # peak resident set size

    def steady(self) -> float:
        """CPU seconds the child would have used on the reference core."""
        return self.cpu * PROBE_REFERENCE / self.probe


@dataclasses.dataclass
class Cycle:
    ok: bool
    digest: str | None
    times: dict[str, float]


def spawn(argv: list[str], stderr_path: Path, probe: Probe) -> Child:
    """Run a child to completion and return what it used."""
    first = len(probe.samples)
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    with probe.running():
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: leave no child behind
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = perf_counter() - start
    return Child(os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime,
                 statistics.fmean(probe.samples[first:]), wall, usage.ru_maxrss / 1024.0)


def digest_dir(path: Path) -> str:
    """SHA-256 over the name and content of every file under `path`."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(file.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(file.read_bytes()).digest())
    return h.hexdigest()


def outputs_complete(out: Path, size: dict, fmt: str) -> bool:
    """The files `ingest` + `all` must write, with one row per team/action."""
    expected = {"corpus.json", "routines.csv", "annotated_corpus.csv", "task_features.csv"}
    for stem in ("h11", "h12", "h21", "h22"):
        if fmt == "json":
            expected.add(f"{stem}.json")
        else:
            expected |= {f"{stem}_per_team.csv", f"{stem}_distributions.csv",
                         f"{stem}_summary.json"}
    if {p.name for p in out.iterdir()} != expected:
        return False

    def rows(name: str) -> int:
        with open(out / name, newline="", encoding="utf-8") as handle:
            return sum(1 for _ in csv.reader(handle)) - 1

    return (rows("task_features.csv") == size["teams"]
            and rows("annotated_corpus.csv") == size["utterances"] + size["edits"])


def ingest_args(inputs: Path, out: Path) -> list[str]:
    return ["ingest", "--transcripts", str(inputs / "transcripts.csv"),
            "--events", str(inputs / "events.csv"), "--network", str(inputs / "network.json"),
            "--tests", str(inputs / "tests.csv"), "--out", str(out)]


def child_cycle(inputs: Path, out: Path, size: dict, fmt: str, probe: Probe) -> Cycle:
    shutil.rmtree(out, ignore_errors=True)
    err_i, err_a = out.parent / "ingest.err", out.parent / "all.err"
    ingest = spawn(["-m", "align.cli", *ingest_args(inputs, out)], err_i, probe)
    all_ = spawn(["-m", "align.cli", "all", "--corpus", str(out), "--format", fmt], err_a,
                 probe)
    for child, err in ((ingest, err_i), (all_, err_a)):
        if child.code != 0:
            print(err.read_text(encoding="utf-8"), file=sys.stderr, end="")
    ok = ingest.code == 0 and all_.code == 0 and outputs_complete(out, size, fmt)
    ingest_s, all_s = ingest.steady(), all_.steady()
    return Cycle(ok, digest_dir(out) if ok else None,
                 {"ingest_s": ingest_s, "all_s": all_s,
                  "tokens_per_s": size["tokens"] / (ingest_s + all_s),
                  "ingest_peak_rss_mb": ingest.rss_mb, "all_peak_rss_mb": all_.rss_mb,
                  "ingest_cpu_s": ingest.cpu, "all_cpu_s": all_.cpu,
                  "ingest_wall_s": ingest.wall, "all_wall_s": all_.wall})


def inprocess_cycle(inputs: Path, out: Path, size: dict, fmt: str,
                    tracer: tracing.Tracer | None) -> tuple[Cycle, dict]:
    from align import cli

    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # start every cycle from the same heap
    spans = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    patches = tracing.patched(tracer) if tracer else contextlib.nullcontext()
    start = perf_counter()
    with patches, contextlib.redirect_stdout(io.StringIO()):
        with spans("cli.ingest"):
            code_i = cli.main(ingest_args(inputs, out))
        with spans("cli.all"):
            code_a = cli.main(["all", "--corpus", str(out), "--format", fmt])
    total = perf_counter() - start
    ok = code_i == 0 and code_a == 0 and outputs_complete(out, size, fmt)
    layers = tracing.layer_metrics(tracer, out) if tracer and ok else {}
    if tracer:
        tracer.kept.clear()  # the results it held would slow later cycles' GC
    return Cycle(ok, digest_dir(out) if ok else None, {"total_s": total}), layers


def import_child(err: Path, probe: Probe, flags: tuple[str, ...] = ()) -> Child:
    """A fresh interpreter importing align.cli."""
    child = spawn([*flags, "-c", IMPORT], err, probe)
    if child.code != 0:
        raise RuntimeError(f"{IMPORT} failed: {err.read_text(encoding='utf-8')}")
    return child


def scipy_import_s(err: Path) -> float:
    """Cumulative import seconds of scipy.stats in a fresh interpreter
    importing align.cli, from `-X importtime`."""
    import_child(err, Probe(), ("-X", "importtime"))
    for line in err.read_text(encoding="utf-8").splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.stats":
            return int(fields[1]) / 1e6
    return 0.0


def gate(cycles: list[Cycle], pinned: str | None) -> int:
    """Number of failed cycles: nonzero exit, incomplete outputs, or a digest
    that differs from the pinned one or, without a pin, from the majority."""
    digests = [c.digest for c in cycles if c.ok]
    reference = pinned
    if reference is None and digests:
        reference = max(sorted(set(digests)), key=digests.count)
    return sum(1 for c in cycles if not c.ok or c.digest != reference)


def measure(workload: str, shape: synth.Shape, seed: int, seconds: float, traced: bool,
            setup_samples: int, pinned: str | None, work: Path) -> dict:
    """One run: generate inputs, set up, loop cycles for `seconds`, report."""
    pin_to_one_core()
    inputs, out = work / "inputs", work / "corpus"
    size = synth.generate(shape, seed, inputs)
    fmt = shape.output_format
    err = work / "stderr.txt"

    probe = Probe()
    if traced:
        scipy_import_s(err)  # warm-up, untimed
        scipy_s = statistics.median(scipy_import_s(err) for _ in range(setup_samples + 1))
        sys.path.insert(0, str(SRC))
        inprocess_cycle(inputs, out, size, fmt, None)  # lazy first-call set-up, untimed
    else:
        import_child(err, probe)  # warm-up, untimed
        setup = [import_child(err, probe) for _ in range(setup_samples)]

    cycles: list[Cycle] = []
    untraced: list[float] = []
    tracers: list[float] = []
    layers: list[dict] = []
    last_tracer = None
    start = perf_counter()
    while True:
        begin = perf_counter()
        if not traced:
            cycles.append(child_cycle(inputs, out, size, fmt, probe))
            setup.append(import_child(err, probe))
        else:
            tracer = tracing.Tracer() if len(cycles) % 2 else None
            cycle, cycle_layers = inprocess_cycle(inputs, out, size, fmt, tracer)
            cycles.append(cycle)
            if tracer:
                tracers.append(cycle.times["total_s"])
                layers.append(cycle_layers)
                last_tracer = tracer
            else:
                untraced.append(cycle.times["total_s"])
        elapsed = perf_counter() - start
        # stop before a cycle that would overrun; traced runs need one of each
        if elapsed + (perf_counter() - begin) > seconds and (not traced or tracers):
            break

    failed = gate(cycles, pinned)
    report = {"workload": workload, "seed": seed, "size": size, "cycles": len(cycles),
              "failed": failed, "digests": sorted({c.digest for c in cycles if c.digest}),
              "pinned": pinned}
    if not traced:
        ok = [c.times for c in cycles if c.ok] or [c.times for c in cycles]
        values = {name: [t[name] for t in ok] for name in ok[0]}
        values["setup_s"] = [c.steady() for c in setup]
        values["setup_cpu_s"] = [c.cpu for c in setup]
        metrics = {name: statistics.median(v) for name, v in values.items()}
        metrics["slowdown"] = statistics.fmean(probe.samples) / PROBE_REFERENCE
        report["values"] = values
        report["samples"] = {"cycles": len(ok), "setup": len(setup)}
    else:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]} \
            if layers else {}
        metrics["setup.import_scipy_stats_s"] = scipy_s
        metrics["trace.untraced_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = statistics.median(tracers) - metrics["trace.untraced_s"]
        report["samples"] = {"untraced": len(untraced), "traced": len(tracers)}
        if last_tracer is not None:
            report["spans"] = last_tracer.spans
            report["self_time"] = tracing.self_time_by_name(last_tracer.spans)
    report["metrics"] = metrics
    return report


def units(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def print_report(report: dict, unit_of: dict[str, str]) -> None:
    cycles, failed = report["cycles"], report["failed"]
    print(f"workload {report['workload']} seed {report['seed']}: {report['size']}")
    print(f"closed loop, one client; samples {report['samples']}")
    for name in unit_of:
        value = report["metrics"].get(name)
        print(f"  {name:<36} {value if value is not None else 'missing'} {unit_of[name]}")
        if name in report.get("values", {}):
            print(f"  {'':<36} median of {[round(v, 4) for v in report['values'][name]]}")
    shown = {"ingest_cpu_s": "s", "all_cpu_s": "s", "setup_cpu_s": "s", "ingest_wall_s": "s",
             "all_wall_s": "s", "slowdown": "x, mean probe time over PROBE_REFERENCE"}
    for name, unit in shown.items():  # not gated: see the module docstring
        if name in report["metrics"]:
            print(f"  {name:<36} {report['metrics'][name]} {unit}")
    print(f"  {'fail_ratio':<36} {failed / cycles} ({failed} of {cycles} cycles)")
    gate_note = "pinned digest" if report["pinned"] else "cycles agree"
    print(f"  digest {', '.join(report['digests']) or '-'} ({gate_note})")
    if "self_time" in report:
        name, value = max(report["self_time"].items(), key=lambda kv: kv[1])
        print(f"  largest self time: {name} {value:.4f} s")


def run_one(workload: str, shape: synth.Shape, seed: int, seconds: float, traced: bool,
            setup_samples: int = SETUP_SAMPLES, pinned: str | None = None) -> dict:
    work = ROOT / ".bench_run" / f"work-{os.getpid()}"
    try:
        report = measure(workload, shape, seed, seconds, traced, setup_samples, pinned, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spans = report.pop("spans", None)
    if spans is not None:
        path = ROOT / ".bench_run" / f"trace-{workload}-{seed}.json"
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"],
                                    "spans": spans}) + "\n", encoding="utf-8")
    return report


def smoke_shape(shape: synth.Shape) -> synth.Shape:
    return dataclasses.replace(shape, teams=min(shape.teams, 4),
                               utterances=min(shape.utterances, 60))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so cleanup and child reaping run
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(synth.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size, untraced and traced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required without --smoke")
    if not (SRC / "align" / "cli.py").is_file():
        print(f"error: {SRC / 'align'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    if args.smoke:
        attempted = failed = 0
        for workload in synth.WORKLOADS:
            for traced in (False, True):
                report = run_one(workload, smoke_shape(synth.WORKLOADS[workload]), args.seed,
                                 0.0, traced, setup_samples=1)
                print_report(report, units(traced))
                attempted += report["cycles"]
                failed += report["failed"]
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 0 if failed == 0 else 1

    traced = bool(args.trace)
    unit_of = units(traced)
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    pinned = baseline["digests"][args.workload] if args.seed == baseline["seed"] else None
    report = run_one(args.workload, synth.WORKLOADS[args.workload], args.seed, args.seconds,
                     traced, pinned=pinned)
    print_report(report, unit_of)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["cycles"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"].get(name, 0.0), "unit": unit}
                    for name, unit in unit_of.items()},
    }
    print(json.dumps(result))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
