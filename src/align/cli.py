"""Command-line interface: ingest, routines, annotate, measures, analyze, all.

Exit status is 0 on success and 2 on input validation failure or on a file
that cannot be read or written. Every analysis here is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys
from pathlib import Path

from .corpus import (
    HUMAN_SPEAKERS,
    InputError,
    assemble_corpus,
    check_teams,
    load_corpus,
    load_event_log,
    load_network,
    load_test_scores,
    load_transcript,
    save_corpus,
    tokenize,
)

# Bound from .report once, on first use, so that `align ingest` neither compiles
# nor imports it. (`report` imports neither numpy nor scipy: only a p-value loads
# scipy's tails, and numpy with them.) A name already set on this module, such
# as a wrapper patched in by a tracer, wins over the one in .report; a name
# deleted after the binding stays deleted.
_REPORT_NAMES = ("ANALYSES", "RUNNERS", "Pipeline", "annotated_table", "emit",
                 "emit_annotated_corpus", "emit_measures", "emit_routine_table", "measures_table",
                 "routine_table", "summary_lines")

# each `align analyze` hypothesis, with the options its runner takes as keyword arguments
HYPOTHESES = {"h1.1": ("window",), "h1.2": ("markers",), "h2.1": ("window", "grouped"),
              "h2.2": ("oh_events", "mm_events")}


@functools.cache
def _bind_report() -> None:
    from . import report
    for name in _REPORT_NAMES:
        globals().setdefault(name, getattr(report, name))


def __getattr__(name: str):
    if name in _REPORT_NAMES:
        _bind_report()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _markers(text: str) -> frozenset[str]:
    """Comma-separated marker tokens, each read as transcripts are tokenized."""
    markers = set()
    for item in text.split(","):
        tokens = tokenize(item)
        if len(tokens) != 1:
            raise argparse.ArgumentTypeError(f"not one marker token: {item!r}")
        markers.update(tokens)
    return frozenset(markers)


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _seconds(text: str) -> float:
    """A finite positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"not a positive number of seconds: {text!r}")
    return value


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The parser, and its `analyze` subparser for the option check after parsing."""
    parser = argparse.ArgumentParser(
        prog="align",
        description="Verbal and behavioural alignment measures for situated task dialogues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="load raw files and write a corpus directory")
    ingest.add_argument("--transcripts", required=True)
    ingest.add_argument("--events", required=True)
    ingest.add_argument("--network", required=True)
    ingest.add_argument("--tests", required=True)
    ingest.add_argument("--out", required=True)
    ingest.add_argument("--first-visual", choices=HUMAN_SPEAKERS, default="B",
                        help="interlocutor in the visual view during turn 1")

    routines = sub.add_parser("routines", help="mine routine expressions")
    routines.add_argument("--corpus", required=True)
    routines.add_argument("--task-only", action="store_true",
                          help="keep only routines containing a node name")
    routines.add_argument("--out")

    annotate = sub.add_parser("annotate", help="write the instruction-annotated corpus")
    annotate.add_argument("--corpus", required=True)
    annotate.add_argument("--clear-on-verdict", action="store_true",
                          help="empty the pending cache after any match or mismatch")
    annotate.add_argument("--out")

    measures = sub.add_parser("measures", help="write task-level success measures")
    measures.add_argument("--corpus", required=True)
    measures.add_argument("--out")

    analyze = sub.add_parser("analyze", help="run one hypothesis analysis")
    analyze.add_argument("--hypothesis", required=True, choices=HYPOTHESES,
                         help="the analysis to run")
    analyze.add_argument("--corpus", required=True)
    analyze.add_argument("--format", choices=["csv", "json"], default="csv")
    analyze.add_argument("--out")
    # an option left out is not passed: the runner's signature holds its default
    options = analyze.add_argument_group("analysis options", argument_default=argparse.SUPPRESS)
    options.add_argument("--window", type=_seconds,
                         help="common analysis window in seconds (default: quickest team)")
    options.add_argument("--markers", type=_markers,
                         help="comma-separated marker tokens for h1.2 (default: uh,um)")
    options.add_argument("--grouped", action="store_true",
                         help="h2.1: one event per instructing utterance instead of per action")
    options.add_argument("--oh-events", choices=["token", "utterance"],
                         help="h2.2: one oh event per occurrence (default) or per utterance")
    options.add_argument("--mm-events", choices=["action", "utterance"],
                         help="h2.2: pool per-action (default) or per-utterance (mis)match times")
    analyze.add_argument("--clear-on-verdict", action="store_true")

    run_all = sub.add_parser("all", help="run every stage and all four analyses")
    run_all.add_argument("--corpus", required=True)
    run_all.add_argument("--format", choices=["csv", "json"], default="csv")
    run_all.add_argument("--out")
    run_all.add_argument("--clear-on-verdict", action="store_true")

    return parser, analyze


def main(argv: list[str] | None = None) -> int:
    # Everything align builds is acyclic, so cyclic GC passes would only re-walk
    # the growing corpus: the GC is off for the command, then back as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser, analyze = _build_parser()
        args = parser.parse_args(argv)
        if args.command != "ingest":
            _bind_report()
        if args.command == "analyze":
            # each analysis option is some runner's; one that this runner does not take is refused
            taken = HYPOTHESES[args.hypothesis]
            refused = sorted(vars(args).keys() & set().union(*HYPOTHESES.values()) - set(taken))
            if refused:
                analyze.error(f"argument {_flag(refused[0])}: {args.hypothesis} does not take it "
                              f"(it takes {', '.join(map(_flag, taken))})")
        if args.command == "ingest":
            network = load_network(args.network)
            corpus = assemble_corpus(
                network=network,
                utterances=load_transcript(args.transcripts),
                events=load_event_log(args.events, network),
                scores=load_test_scores(args.tests),
                first_visual=args.first_visual,
            )
            check_teams(corpus, teams_file=args.transcripts, scores_file=args.tests,
                        events_file=args.events)
            path = save_corpus(corpus, args.out)
            print(f"wrote {path} ({len(corpus.teams)} teams)")
            return 0

        corpus = load_corpus(args.corpus)
        out = Path(args.out or args.corpus)
        # routines and measures take no --clear-on-verdict: the matcher's default
        pipeline = Pipeline(corpus, clear_on_verdict=getattr(args, "clear_on_verdict", False))
        if args.command == "routines":
            path = emit_routine_table(pipeline, out / "routines.csv", task_only=args.task_only)
            print(f"wrote {path}")
        elif args.command == "annotate":
            path = emit_annotated_corpus(pipeline, out / "annotated_corpus.csv")
            print(f"wrote {path}")
        elif args.command == "measures":
            path = emit_measures(pipeline, out / "task_features.csv")
            print(f"wrote {path}")
        elif args.command == "analyze":
            options = {name: value for name, value in vars(args).items()
                       if name in HYPOTHESES[args.hypothesis]}
            report = RUNNERS[args.hypothesis](pipeline, **options)
            for path in emit(report, args.format, out):
                print(f"wrote {path}")
            print("\n".join(summary_lines(report)))
        elif args.command == "all":
            # one pass over the teams writes the three tables and keeps the analyses' rows
            analyses = [analysis(pipeline) for analysis in ANALYSES.values()]
            with routine_table(pipeline, out / "routines.csv") as routines, \
                    annotated_table(pipeline, out / "annotated_corpus.csv") as annotated, \
                    measures_table(pipeline, out / "task_features.csv") as measures:
                pipeline.run(routines, annotated, measures, *analyses)
            for analysis in analyses:
                report = analysis.report()
                emit(report, args.format, out)
                print("\n".join(summary_lines(report)))
            print(f"wrote outputs to {out}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that cannot be read or written
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()
    return 0


def run() -> None:
    """The `align` process: `python -m align.cli` and the installed console script.

    Once the command has returned or failed, the objects left in the heap are
    frozen, so the interpreter's collections at exit skip them instead of
    tracing the whole module graph for cycles: the OS takes the memory back
    either way, and atexit handlers and the flushes of stdout and stderr still
    run. Objects left in reference cycles are not finalized; every file the
    command opens is closed before `main` returns. `main` leaves the heap as
    it was, for callers that run it in-process.
    """
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
