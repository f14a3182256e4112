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
from contextlib import ExitStack
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
# deleted after the binding stays deleted. RUNNERS and emit_* are bound for bench/ alone.
_REPORT_NAMES = ("ANALYSES", "RUNNERS", "Pipeline", "annotated_table", "emit",
                 "emit_annotated_corpus", "emit_measures", "emit_routine_table", "measures_table",
                 "routine_table", "summary_lines")

# each command that reads a corpus, as the steps of its one pass over the teams: the tables it
# writes, as (report factory, file name), and the analyses it runs, by their keys in ANALYSES
# (stated here, as `align ingest` binds no report); `analyze` runs the one --hypothesis names
STEPS = {"routines": ([("routine_table", "routines.csv")], []),
         "annotate": ([("annotated_table", "annotated_corpus.csv")], []),
         "measures": ([("measures_table", "task_features.csv")], []),
         "analyze": ([], ["h1.1", "h1.2", "h2.1", "h2.2"])}
STEPS["all"] = tuple(sum(steps, []) for steps in zip(*STEPS.values()))  # the other four's steps


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


def _options(factory, given: int = 1) -> tuple[str, ...]:
    """A step factory's options: the names of its arguments after the `given` ones."""
    return factory.__code__.co_varnames[given:factory.__code__.co_argcount]


def _step(factory, args: argparse.Namespace, *given):
    """The step `factory(*given)`, passed by name each option of `args` that it takes."""
    taken = _options(factory, len(given))
    return factory(*given, **{name: value for name, value in vars(args).items() if name in taken})


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
    for flag in ("--transcripts", "--events", "--network", "--tests", "--out"):
        ingest.add_argument(flag, required=True)
    ingest.add_argument("--first-visual", choices=HUMAN_SPEAKERS, default="B",
                        help="interlocutor in the visual view during turn 1")

    # the options of the commands that read a corpus, each declared once
    options = {"--hypothesis": {"required": True, "choices": STEPS["analyze"][1],
                                "help": "the analysis to run"},
               "--corpus": {"required": True},
               "--task-only": {"action": "store_true",
                               "help": "keep only routines containing a node name"},
               "--format": {"choices": ["csv", "json"], "default": "csv"}, "--out": {},
               "--clear-on-verdict": {"action": "store_true"}}

    def add(command: argparse.ArgumentParser, *flags: str, **kwargs) -> None:
        for flag in flags:
            command.add_argument(flag, **options[flag], **kwargs)

    add(sub.add_parser("routines", help="mine routine expressions"),
        "--corpus", "--task-only", "--out")
    annotate = sub.add_parser("annotate", help="write the instruction-annotated corpus")
    add(annotate, "--corpus")
    add(annotate, "--clear-on-verdict", help="empty the pending cache after any match or mismatch")
    add(annotate, "--out")
    add(sub.add_parser("measures", help="write task-level success measures"), "--corpus", "--out")

    analyze = sub.add_parser("analyze", help="run one hypothesis analysis")
    add(analyze, "--hypothesis", "--corpus", "--format", "--out")
    # an option left out is not passed: the analysis's signature holds its default
    group = analyze.add_argument_group("analysis options", argument_default=argparse.SUPPRESS)
    group.add_argument("--window", type=_seconds,
                       help="common analysis window in seconds (default: quickest team)")
    group.add_argument("--markers", type=_markers,
                       help="comma-separated marker tokens for h1.2 (default: uh,um)")
    group.add_argument("--grouped", action="store_true",
                       help="h2.1: one event per instructing utterance instead of per action")
    group.add_argument("--oh-events", choices=["token", "utterance"],
                       help="h2.2: one oh event per occurrence (default) or per utterance")
    group.add_argument("--mm-events", choices=["action", "utterance"],
                       help="h2.2: pool per-action (default) or per-utterance (mis)match times")
    add(analyze, "--clear-on-verdict")

    add(sub.add_parser("all", help="run every stage and all four analyses"),
        "--corpus", "--format", "--out", "--clear-on-verdict")

    return parser, analyze


def main(argv: list[str] | None = None) -> int:
    # Everything align builds is acyclic, so cyclic GC passes would only re-walk
    # the growing corpus: the GC is off for the command, then back as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser, analyze = _build_parser()
        args = parser.parse_args(argv)
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

        _bind_report()
        if args.command == "analyze":
            # each analysis option is some analysis's; one that this one does not take is refused
            taken, every = _options(ANALYSES[args.hypothesis]), map(_options, ANALYSES.values())
            if refused := sorted(vars(args).keys() & set().union(*every) - set(taken)):
                analyze.error(f"argument {_flag(refused[0])}: {args.hypothesis} does not take it "
                              f"(it takes {', '.join(map(_flag, taken))})")

        out = Path(args.out or args.corpus)
        # routines and measures take no --clear-on-verdict: the matcher's default
        pipeline = Pipeline(load_corpus(args.corpus),
                            clear_on_verdict=getattr(args, "clear_on_verdict", False))
        tables, hypotheses = STEPS[args.command]
        analyses = [_step(ANALYSES[hypothesis], args, pipeline) for hypothesis in hypotheses
                    if getattr(args, "hypothesis", hypothesis) == hypothesis]
        with ExitStack() as stack:  # one pass: the tables write rows, the analyses keep theirs
            written = [stack.enter_context(_step(globals()[factory], args, pipeline, out / name))
                       for factory, name in tables]
            pipeline.run(*written, *analyses)
        each = args.command != "all"  # `all` names its output directory, not each file
        for table in written if each else ():
            print(f"wrote {table.path}")
        for analysis in analyses:
            report = analysis.report()
            paths = emit(report, args.format, out)
            print("\n".join([f"wrote {path}" for path in paths if each] + summary_lines(report)))
        if not each:
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
