"""Hypothesis analyses over a corpus, plus table/plot-data emission.

Four analyses mirror the measurement pipeline end to end:
- h1.1: when routine expressions get established, vs task success;
- h1.2: filler (uh/um) positions vs routine priming/establishment positions;
- h2.1: when instructions are matched/mismatched by actions, vs task success;
- h2.2: "oh" marker times vs match/mismatch action times.

They share one recipe, `_Analysis`: each analysis gives a team's row cells
and distribution series, and names each summary key with the test it runs
over a row column (Spearman against task error, Kruskal-Wallis across
learning groups, or a mean). An analysis and each table writer is a step of a
pass (`Pipeline.run`) that derives one team at a time, so `align all` writes
its tables and keeps its analyses' rows in one pass. Two helpers build the cells:
- `_views` turns event times (h1.1, h2.1) into absolute, common-window and
  normalized times, whose medians are the row's cells;
- `_compared` tests a marker sample against a comparison sample (h1.2, h2.2)
  with Mann-Whitney U and Cliff's delta.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from itertools import chain, groupby, islice, repeat
from operator import add, attrgetter, not_
from pathlib import Path
from typing import NamedTuple

from .corpus import HUMAN_SPEAKERS, Corpus, TeamCorpus, Utterance, relative_time, write_json
from .instructions import (
    MATCH,
    MISMATCH,
    AnnotatedAction,
    MatchRecord,
    grouped_records,
    match_instructions_to_actions,
    match_mismatch_times,
)
from .measures import TeamSuccess, common_window, learning_groups, team_success
from .routines import Routine, extract_routines, filter_task_routines, token_events
from .stats import interpret_rho, kruskal_wallis, mann_whitney_delta, spearman

FILLERS = frozenset({"uh", "um"})
OH = "oh"


class HypothesisReport(NamedTuple):
    """Per-team rows plus dialogue-level summary for one hypothesis.

    Rows are sorted by decreasing task performance: increasing error, with
    increasing duration breaking ties.
    """

    hypothesis: str
    per_team_rows: tuple[dict, ...]
    summary: dict
    distributions: dict[str, dict[int, tuple[float, ...]]]

    def to_dict(self) -> dict:
        return {
            "hypothesis": self.hypothesis,
            "per_team_rows": [dict(r) for r in self.per_team_rows],
            "summary": self.summary,
            "distributions": {
                series: {str(team): list(values) for team, values in by_team.items()}
                for series, by_team in self.distributions.items()
            },
        }


class TeamPipeline:
    """One team's derived data: its numbered utterances, routines, matcher run and
    success measures, each computed on first use and kept until the pipeline is dropped."""

    def __init__(self, team_corpus: TeamCorpus, corpus: Corpus, clear_on_verdict: bool = False):
        self.corpus = team_corpus
        self.network = corpus.network
        self.clear_on_verdict = clear_on_verdict

    @cached_property
    def success(self) -> TeamSuccess:
        return team_success(self.corpus, self.network.optimal_cost)

    @cached_property
    def utterances(self) -> tuple[Utterance, ...]:
        return self.corpus.utterances

    @cached_property
    def routines(self) -> list[Routine]:
        return extract_routines(list(self.utterances))

    @cached_property
    def task_routines(self) -> list[Routine]:
        return filter_task_routines(self.routines, self.network)

    @cached_property
    def matched(self) -> tuple[list[MatchRecord], list[AnnotatedAction]]:
        """(records, annotated) from the team's one matcher run."""
        return match_instructions_to_actions(self.corpus.stream(self.utterances), self.network,
                                             self.clear_on_verdict)

    @property
    def records(self) -> list[MatchRecord]:
        return self.matched[0]

    @property
    def annotated(self) -> list[AnnotatedAction]:
        return self.matched[1]

    @cached_property
    def grouped(self) -> dict[str, list[MatchRecord]]:
        """First Match and first Mismatch record per instructing utterance."""
        return {verdict: grouped_records(self.records, verdict) for verdict in (MATCH, MISMATCH)}

    def verdict_times(self, verdict: str, per_utterance: bool) -> list[float]:
        """Times of the verdict's records, or of its first record per utterance."""
        if per_utterance:
            return [r.time for r in self.grouped[verdict]]
        return match_mismatch_times(self.records, verdict)


class Pipeline:
    """A corpus's analyses, run as passes over its teams in team-id order."""

    def __init__(self, corpus: Corpus, clear_on_verdict: bool = False):
        self.corpus = corpus
        self.clear_on_verdict = clear_on_verdict

    @cached_property
    def window(self) -> float:
        return common_window([tc.duration for tc in self.corpus.teams])

    def run(self, *steps) -> None:
        """One pass: each step takes each team's TeamPipeline in turn, in team-id order.
        A team's pipeline, and all that is derived from it, is dropped as soon as the
        next team's is built, before a step derives anything of that team; the steps
        keep only the rows and cells that they take from it."""
        for tc in sorted(self.corpus.teams, key=attrgetter("team")):
            tp = TeamPipeline(tc, self.corpus, self.clear_on_verdict)
            for step in steps:
                step(tp)


def _median(values: list[float]) -> float | None:
    """np.median's value: the middle value, or the mean (a + b) / 2 of the two."""
    if not values:
        return None
    ordered = sorted(values)
    half = len(ordered) // 2
    return float(ordered[half]) if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


def collaborative_period(times: list[float]) -> tuple[float, float]:
    """(Q1, Q3) of one or more establishment times, none of them NaN, by linear
    interpolation: np.percentile(times, [25, 75])'s value, bit for bit.

    As numpy's _lerp computes it, the q-quantile at index i = q*(n - 1) of the
    sorted times lies between a = sorted[floor(i)] and the next time b, at
    t = i - floor(i): a + d*t with d = b - a, or b - d*(1 - t) when t >= 0.5.
    With one time, a and b are that time and t is 1. (Where the times mix 0.0
    and -0.0, numpy may sort the two either way and so give a zero quartile
    the other sign; the runners' times are never -0.0.)
    """
    ordered = sorted(map(float, times))
    last = len(ordered) - 1

    def quantile(q: float) -> float:
        index = last * q
        if index >= last:  # numpy's index -1 for both neighbours, so t = index + 1
            a = b = ordered[-1]
            t = index + 1
        else:
            below = math.floor(index)
            a, b, t = ordered[below], ordered[below + 1], index - below
        d = b - a
        return b - d * (1 - t) if t >= 0.5 else a + d * t
    return quantile(0.25), quantile(0.75)


def _pairwise_sum(values: list[float]) -> float:
    """numpy's pairwise sum of the floats: left to right from -0.0 below 8 values;
    up to 128, eight running sums over every eighth value, combined pairwise, then
    the values after the last multiple of 8; above 128, the sums of two halves,
    the first rounded down to a multiple of 8."""
    n = len(values)
    if n < 8:
        return reduce(add, values, -0.0)
    if n <= 128:
        end = n - n % 8
        r = [reduce(add, values[j:end:8]) for j in range(8)]
        return reduce(add, values[end:],
                      ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean_of(teams: list[TeamSuccess], values: dict[int, float | None]) -> float | None:
    """The mean of the teams' values, over teams with a value: np.mean's value, bit
    for bit, which adds numpy's pairwise sum to 0.0 and divides it once by the
    count. A sum that overflows is inf (or nan), as numpy's is; the bounds on
    input times keep every mean of normalized times far below it. The summary
    tests all take `teams`, which this one does not need."""
    present = [v for v in values.values() if v is not None]
    return (0.0 + _pairwise_sum(present)) / len(present) if present else None


def _spearman_vs_error(teams: list[TeamSuccess], values: dict[int, float | None]) -> dict | None:
    """Spearman of the teams' values against error, over teams with a value."""
    pairs = [(values[s.team], s.error) for s in teams if values.get(s.team) is not None]
    try:
        result = spearman([x for x, _ in pairs], [y for _, y in pairs])
    except ValueError:
        return None
    return {"rho": result.statistic, "p": result.p_value, "n": len(pairs),
            "magnitude": interpret_rho(result.statistic)}


def _kruskal_by_learning(teams: list[TeamSuccess], values: dict[int, float | None]) -> dict | None:
    """Kruskal-Wallis of the values of positive- vs non-positive-learning teams."""
    groups = [
        [values[s.team] for s in teams if s.team in group and values.get(s.team) is not None]
        for group in learning_groups(teams)
    ]
    try:
        result = kruskal_wallis(groups)
    except ValueError:
        return None
    return {"H": result.statistic, "p": result.p_value, "n": list(result.n)}


def _views(times: list[float], window: float, duration: float) -> dict[str, list[float]]:
    """A label's event times: `abs`, `common` (within the common window) and
    `norm` (percent of the team's duration)."""
    return {"abs": times, "common": [t for t in times if t <= window],
            "norm": [relative_time(t, duration) for t in times]}


def _compared(marker: list[float], sample: list[float], suffix: str) -> dict:
    """The `U{suffix}`, `p{suffix}` and `delta{suffix}` cells of the marker sample
    against `sample`: Mann-Whitney U and Cliff's delta, None unless both have values."""
    u = p = delta = None
    if marker and sample:
        (u, p, _), delta = mann_whitney_delta(marker, sample)
    return {f"U{suffix}": u, f"p{suffix}": p, f"delta{suffix}": delta}


class _Analysis:
    """The one analysis recipe, as a step of a pass: a row and distribution series
    per team, then tests over the rows.

    `team(tp)` returns the team's row cells after `team`, in the order of the
    csv columns, and its series by name. The report's rows are in report order;
    its summary holds `summary`, then each key of `tests`, in order, set to
    `test(successes, {team: the row's column})` for its `(test, column)`.
    """

    def __init__(self, hypothesis: str, team, tests: dict, summary: dict):
        self.hypothesis, self.team, self.tests, self.summary = hypothesis, team, tests, summary
        self.kept: list[tuple[TeamSuccess, dict, dict[str, tuple[float, ...]]]] = []

    def __call__(self, tp: TeamPipeline) -> None:
        cells, team_series = self.team(tp)
        self.kept.append((tp.success, cells,
                          {name: tuple(values) for name, values in team_series.items()}))

    def report(self) -> HypothesisReport:
        self.kept.sort(key=lambda kept: (kept[0].error, kept[0].duration, kept[0].team))
        rows = []
        by_series: dict[str, dict[int, tuple[float, ...]]] = {}
        for success, cells, team_series in self.kept:
            rows.append({"team": success.team, **cells})
            for name, values in team_series.items():
                by_series.setdefault(name, {})[success.team] = values

        successes = [success for success, *_ in self.kept]
        summary = dict(self.summary)
        for key, (test, column) in self.tests.items():
            summary[key] = test(successes, {row["team"]: row[column] for row in rows})
        return HypothesisReport(self.hypothesis, tuple(rows), summary, by_series)


def _h11(pipeline: Pipeline, window: float | None = None) -> _Analysis:
    """Establishment-time analysis: medians vs error, learning-group split."""
    window = pipeline.window if window is None else window

    def team(tp: TeamPipeline):
        times = _views([r.establishment.time for r in tp.task_routines], window,
                       tp.success.duration)
        q1, q3 = collaborative_period(times["norm"]) if times["norm"] else (None, None)
        row = {"n_routine": len(times["abs"]), "n_common": len(times["common"]),
               "median_abs": _median(times["abs"]), "median_common": _median(times["common"]),
               "median_norm": _median(times["norm"]), "q1_norm": q1, "q3_norm": q3}
        return row, {f"establishment_{view}": values for view, values in times.items()}

    return _Analysis("h1.1", team, {
        "spearman_median_abs_vs_error": (_spearman_vs_error, "median_abs"),
        "spearman_median_common_vs_error": (_spearman_vs_error, "median_common"),
        "spearman_median_norm_vs_error": (_spearman_vs_error, "median_norm"),
        "kruskal_learning_median_abs": (_kruskal_by_learning, "median_abs"),
        "kruskal_learning_median_norm": (_kruskal_by_learning, "median_norm"),
        "mean_of_medians_norm": (_mean_of, "median_norm"),
    }, {"common_window_sec": window})


def _h12(pipeline: Pipeline, markers: frozenset[str] = FILLERS) -> _Analysis:
    """Filler-position analysis against priming and establishment positions."""

    def team(tp: TeamPipeline):
        events = token_events(list(tp.utterances), tp.task_routines, markers)
        fillers = [float(p) for p in events.marker_positions]
        priming = [float(p) for p in events.priming_positions]
        estab = [float(p) for p in events.establishment_positions]
        total = sum(len(u.tokens) for u in tp.utterances)

        def median_pct(positions: list[float]) -> float | None:
            return _median([relative_time(p, total) for p in positions])

        row = {"n_filler": len(fillers), "n_routine": len(tp.task_routines),
               "median_filler": median_pct(fillers), "median_priming": median_pct(priming),
               "median_establishment": median_pct(estab),
               **_compared(fillers, priming, "_priming"), **_compared(fillers, estab, "_estab")}
        return row, {"filler_positions": fillers, "priming_positions": priming,
                     "establishment_positions": estab}

    return _Analysis("h1.2", team, {
        "spearman_delta_priming_vs_error": (_spearman_vs_error, "delta_priming"),
        "kruskal_learning_delta_priming": (_kruskal_by_learning, "delta_priming"),
        "spearman_delta_establishment_vs_error": (_spearman_vs_error, "delta_estab"),
        "kruskal_learning_delta_establishment": (_kruskal_by_learning, "delta_estab"),
    }, {})


def _h21(pipeline: Pipeline, window: float | None = None, grouped: bool = False) -> _Analysis:
    """Match/mismatch timing analysis: h1.1's time views of the verdicts' times.

    `grouped` switches the time series from per-action records to one event
    per instructing utterance.
    """
    window = pipeline.window if window is None else window

    def team(tp: TeamPipeline):
        duration = tp.success.duration
        match = _views(tp.verdict_times(MATCH, grouped), window, duration)
        mismatch = _views(tp.verdict_times(MISMATCH, grouped), window, duration)
        n_match, n_mismatch = len(tp.grouped[MATCH]), len(tp.grouped[MISMATCH])
        row = {"n_match_actions": len(tp.verdict_times(MATCH, False)),
               "n_mismatch_actions": len(tp.verdict_times(MISMATCH, False)),
               "n_match": n_match, "n_mismatch": n_mismatch,
               "ratio": n_match / n_mismatch if n_mismatch else None,
               "median_match_abs": _median(match["abs"]),
               "median_match_common": _median(match["common"]),
               "median_match_norm": _median(match["norm"]),
               "median_mismatch_abs": _median(mismatch["abs"]),
               "median_mismatch_common": _median(mismatch["common"]),
               "median_mismatch_norm": _median(mismatch["norm"])}
        return row, {"match_abs": match["abs"], "match_norm": match["norm"],
                     "mismatch_abs": mismatch["abs"], "mismatch_norm": mismatch["norm"]}

    return _Analysis("h2.1", team, {
        "spearman_median_match_abs_vs_error": (_spearman_vs_error, "median_match_abs"),
        "spearman_median_match_common_vs_error": (_spearman_vs_error, "median_match_common"),
        "spearman_median_match_norm_vs_error": (_spearman_vs_error, "median_match_norm"),
        "spearman_median_mismatch_abs_vs_error": (_spearman_vs_error, "median_mismatch_abs"),
        "kruskal_learning_median_match_abs": (_kruskal_by_learning, "median_match_abs"),
        "kruskal_learning_median_match_norm": (_kruskal_by_learning, "median_match_norm"),
        "mean_of_medians_match_norm": (_mean_of, "median_match_norm"),
        "mean_of_medians_mismatch_norm": (_mean_of, "median_mismatch_norm"),
    }, {"common_window_sec": window, "grouped_times": grouped})


def _h22(pipeline: Pipeline, oh_events: str = "token", mm_events: str = "action") -> _Analysis:
    """"oh" marker times vs pooled match+mismatch action times.

    An "oh" event takes the end time of its containing utterance;
    oh_events="token" emits one event per occurrence, "utterance" one per
    utterance containing the marker. mm_events="utterance" pools the
    per-instructing-utterance series instead of per-action times. Another value
    of either option raises a KeyError.
    """
    per_token = {"token": True, "utterance": False}[oh_events]
    mm_per_utterance = {"action": False, "utterance": True}[mm_events]

    def team(tp: TeamPipeline):
        duration = tp.success.duration
        oh_counts = [(utt.end, utt.tokens.count(OH)) for utt in tp.utterances
                     if OH in utt.tokens and utt.speaker in HUMAN_SPEAKERS]
        oh_times = [end for end, count in oh_counts
                    for _ in range(count if per_token else 1)]
        match_times = tp.verdict_times(MATCH, mm_per_utterance)
        mismatch_times = tp.verdict_times(MISMATCH, mm_per_utterance)
        norm = {name: [relative_time(t, duration) for t in times] for name, times in
                (("oh_norm", oh_times), ("match_norm", match_times),
                 ("mismatch_norm", mismatch_times))}
        row = {"n_oh": len(oh_counts), "n_oh_tokens": sum(count for _, count in oh_counts),
               "n_match": len(tp.grouped[MATCH]), "n_mismatch": len(tp.grouped[MISMATCH]),
               "median_oh": _median(norm["oh_norm"]), "median_match": _median(norm["match_norm"]),
               "median_mismatch": _median(norm["mismatch_norm"]),
               **_compared(oh_times, match_times + mismatch_times, "")}
        return row, norm

    return _Analysis("h2.2", team, {
        "spearman_delta_vs_error": (_spearman_vs_error, "delta"),
        "kruskal_learning_delta": (_kruskal_by_learning, "delta"),
    }, {"oh_events": oh_events, "mm_events": mm_events})


# each hypothesis's analysis, a step of a pass; `align all` runs the four in one pass. Its
# options are its arguments after the pipeline, which `align analyze` reads from its code.
ANALYSES = {"h1.1": _h11, "h1.2": _h12, "h2.1": _h21, "h2.2": _h22}


# RUNNERS and the emit_* names are for bench/'s tracer alone (to go with ROADMAP items 0, 5)
def _runner(analysis):
    """The runner of an analysis: its report after a pass of its own over the teams."""
    def run(pipeline: Pipeline, **options) -> HypothesisReport:
        step = analysis(pipeline, **options)
        pipeline.run(step)
        return step.report()
    return run


RUNNERS = {hypothesis: _runner(analysis) for hypothesis, analysis in ANALYSES.items()}


# ---------------------------------------------------------------------------
# Emission. Identical inputs produce byte-identical files: fixed column
# orders, shortest-roundtrip float repr, LF newlines, sorted JSON keys.

_SPECIAL = re.compile('[,"\r\n]').search  # a character that csv.writer quotes
_PLAIN = frozenset({float, int, bool})  # the types "%s" writes as csv.writer does
_BATCH = 256  # rows formatted and written at a time


def _quoted(cell: str) -> str:
    """The str cell as csv.writer writes it: in double quotes, its quotes doubled, if it holds
    a comma, a quote, CR or LF (csv.writer quotes a character of its line terminator, CR LF)."""
    return '"%s"' % cell.replace('"', '""') if _SPECIAL(cell) else cell


def _column_cells(column: list) -> list | None:
    """The column with None as "" and each str cell as `_quoted` writes it; None if
    "%s" writes every cell as it is. Each distinct cell is checked and quoted once,
    and the column is mapped at once."""
    kinds = set(map(type, column))
    if kinds <= _PLAIN or kinds == {str} and not _SPECIAL("".join(column)):
        return None
    if not kinds <= _PLAIN | {str, type(None)}:
        raise TypeError(f"a CSV cell is a str, float, int, bool or None, not {kinds}")
    cells = {cell: _quoted(cell) for cell in set(column) if type(cell) is str}
    cells[None] = ""
    return list(map(cells.get, column, column))


def _text(rows: list) -> str:
    """The lines of `rows`, a column at a time; a lone empty cell is "", as csv.writer writes it."""
    text = []
    for width, group in groupby(rows, len):
        cells = list(chain.from_iterable(group))
        for column in range(width):
            if (fixed := _column_cells(cells[column::width])) is not None:
                cells[column::width] = fixed
        if width == 1:
            cells = [cell if cell != "" else '""' for cell in cells]
        text.append((",".join(["%s"] * width) + "\n") * (len(cells) // width) % tuple(cells))
    return "".join(text)


class _CsvTable:
    """A CSV table, byte for byte as csv.writer with the line terminator CR LF writes
    it but with LF for each row's CR LF: "%s" writes a float and an int by repr and a
    bool as True or False. `write` takes rows as they come and writes them _BATCH at a
    time, batches running across calls and teams; the last go out when the table closes.

    As a step of a pass, the table writes `rows(tp)` for each team. Entering the
    table opens its file and writes the header.
    """

    def __init__(self, path: str | Path, header: list[str], rows=None):
        self.path, self.header, self.rows = Path(path), header, rows
        self.batch: list = []

    def write(self, rows: Iterable[Sequence]) -> None:
        rows = chain(self.batch, rows)
        while len(batch := list(islice(rows, _BATCH))) == _BATCH:
            self.handle.write(_text(batch))
        self.batch = batch

    def __call__(self, tp: TeamPipeline) -> None:
        self.write(self.rows(tp))

    def __enter__(self) -> _CsvTable:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.handle = open(self.path, "w", newline="", encoding="utf-8")
        self.handle.write(_text([self.header]))
        return self

    def __exit__(self, kind, *_) -> None:
        with self.handle:
            if kind is None:
                self.handle.write(_text(self.batch))


class _TextTable(_CsvTable):
    """A _CsvTable whose `rows(tp)` returns the team's rows formatted, written at once."""

    def __call__(self, tp: TeamPipeline) -> None:
        self.handle.write(self.rows(tp))


def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """A CSV table of `rows` (see _CsvTable)."""
    with _CsvTable(path, header) as table:
        table.write(rows)


def emit(report: HypothesisReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write a hypothesis report as csv tables or a single json document. The
    per-team table's columns are the keys of the first row, which every row holds."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    out = Path(out_dir)
    stem = report.hypothesis.replace(".", "")

    if fmt == "json":
        return [write_json(out / f"{stem}.json", report.to_dict())]

    per_team = out / f"{stem}_per_team.csv"
    dist_path = out / f"{stem}_distributions.csv"
    # the summary first: write_json refuses a non-finite value before any file is written
    summary = write_json(out / f"{stem}_summary.json", report.summary)
    _write_csv(per_team, list(report.per_team_rows[0]), map(dict.values, report.per_team_rows))
    _write_csv(dist_path, ["series", "team", "value"], chain.from_iterable(
        zip(repeat(name), repeat(team), values)
        for name, by_team in sorted(report.distributions.items())
        for team, values in sorted(by_team.items())))
    return [per_team, dist_path, summary]


def routine_table(pipeline: Pipeline, path: str | Path, task_only: bool = False) -> _CsvTable:
    """Routine table CSV across all teams."""
    names = pipeline.corpus.network.node_names

    def rows(tp: TeamPipeline):  # a column at a time, with no Python call per routine
        routines = tp.task_routines if task_only else tp.routines
        if not routines:
            return ()
        expression, initiator, priming, establishment, _ = zip(*routines)
        _, priming_position, priming_time = zip(*priming)
        _, establishment_position, establishment_time = zip(*establishment)
        return zip(repeat(tp.corpus.team), map(" ".join, expression), initiator, priming_time,
                   establishment_time, priming_position, establishment_position,
                   map(not_, map(names.isdisjoint, expression)))

    return _CsvTable(path, ["team", "expression", "initiator", "priming_time",
                            "establishment_time", "priming_token_pos", "establishment_token_pos",
                            "contains_referent"], rows)


def annotated_table(pipeline: Pipeline, path: str | Path) -> _TextTable:
    """Annotated corpus CSV: the stream with instructions and verdicts, a row per
    event. A says row's subject is its speaker, I for the robot, and its object
    the utterance text; an edit row's object is its edge's node names, `u-v`.
    A team's rows are formatted at once, each by the `%` template of its kind,
    which holds the team and the constant cells; `_quoted` quotes the str cells."""
    name = pipeline.corpus.network.id_to_name
    edges = {(u, v): _quoted(f"{name[u]}-{name[v]}") for u, v, _ in pipeline.corpus.network.edges}

    def rows(tp: TeamPipeline) -> str:
        says = f"{tp.corpus.team},%s,says,%s,%s,%s,%s,%s,-,,\n"
        edit = f"{tp.corpus.team},%s,%s,%s,%s,%s,%s,,%s,%s,%s\n"
        lines = []
        for action, instructions, record, _, _ in tp.annotated:
            subject, verb, time, turn, attempt, utterance, edge = action
            if record is None:
                spelled = _quoted(" ".join(map(str, instructions))) if instructions else ""
                lines.append(says % (utterance.speaker, _quoted(utterance.text), time, turn,
                                     attempt, spelled))
            else:
                verdict, _, given = record  # given: the matched instruction, or None
                matched = (_quoted(str(given)), given.agent) if given else ("", "")
                lines.append(edit % (subject, verb, edges[edge], time, turn, attempt, verdict,
                                     *matched))
        return "".join(lines)

    return _TextTable(path, ["team", "subject", "verb", "object", "time", "turn", "attempt",
                             "instructions", "verdict", "matched_instruction", "matched_agent"],
                      rows)


# task_features.csv column names that differ from the TeamSuccess field names
_MEASURE_COLUMNS = {"learn_a": "learn_A", "learn_b": "learn_B", "duration": "duration_sec"}


def measures_table(pipeline: Pipeline, path: str | Path) -> _CsvTable:
    """Task-level features CSV, one row per team."""
    # a row is a TeamSuccess, so its fields name the columns, in order
    return _CsvTable(path, [_MEASURE_COLUMNS.get(f, f) for f in TeamSuccess._fields],
                     lambda tp: [tp.success])


def _emitter(table):
    """The emitter of a table, for bench/ alone: the table, written by a pass of its own."""
    def emit_table(pipeline: Pipeline, *args, **kwargs) -> Path:
        with table(pipeline, *args, **kwargs) as step:
            pipeline.run(step)
        return step.path
    return emit_table


emit_routine_table = _emitter(routine_table)
emit_annotated_corpus = _emitter(annotated_table)
emit_measures = _emitter(measures_table)


def format_p(p: float | None) -> str:
    """Display convention for p-values: 3 decimals, flagged below .05."""
    if p is None:
        return "n/a"
    if p < 0.05:
        return "<.05"
    return f"{p:.3f}"


def summary_lines(report: HypothesisReport) -> list[str]:
    """Human-readable summary of a hypothesis report."""
    lines = [f"[{report.hypothesis}]"]
    for key, value in report.summary.items():
        if value is None:  # a test or a mean with too few values
            lines.append(f"  {key}: n/a")
        elif key.startswith("spearman"):
            lines.append(f"  {key}: rho={value['rho']:.2f} p={format_p(value['p'])} "
                         f"({value['magnitude']}, n={value['n']})")
        elif key.startswith("kruskal"):
            lines.append(f"  {key}: H={value['H']:.2f} p={format_p(value['p'])}")
        elif isinstance(value, float):
            lines.append(f"  {key}: {value:.1f}")
        else:
            lines.append(f"  {key}: {value}")
    return lines
