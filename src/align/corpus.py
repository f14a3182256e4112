"""Corpus ingestion: transcripts, event logs, network, test scores.

Builds the per-team chronological action stream (says/adds/removes) with
turn and attempt bookkeeping. A turn lasts for two edit actions; a new
attempt starts after each submitted solution.
"""

from __future__ import annotations

import csv
import io
import json
import math
import reprlib
import sys
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Sequence
from functools import cache, partial
from itertools import accumulate, chain, count, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import add, attrgetter, gt, itemgetter
from pathlib import Path
from typing import NamedTuple

HUMAN_SPEAKERS = ("A", "B")
ROBOT_SPEAKER = "I"
SPEAKERS = (*HUMAN_SPEAKERS, ROBOT_SPEAKER)
MAX_SCORE = 10  # top mark of the pre- and post-tests
# the bounds of input times: a normalized time, 100 * t / duration, is then at most
# 1e14, and no statistic overflows
MAX_TIME = 1e9  # seconds: the latest input time
MIN_DURATION = 1e-3  # seconds: the shortest team duration

ADD = "add"
REMOVE = "remove"

# stripped from both ends of every whitespace-delimited token
_PUNCT = ",.!?"


class InputError(ValueError):
    """Raised when an input file fails validation."""


def tokenize(text: str) -> list[str]:
    """Split an utterance into lowercase tokens.

    Terminal punctuation (.,!?) is stripped; word-internal apostrophes and
    trailing-hyphen fragments ("neuchat-") are kept. Standalone punctuation
    tokens disappear.
    """
    tokens = []
    for raw in text.split():
        word = raw.lower().strip(_PUNCT)
        if word:  # interned: a corpus of many tokens holds each distinct one once
            tokens.append(sys.intern(word))
    return tokens


class NetworkNode(NamedTuple):
    id: int
    name: str  # single distinctive token, case-folded for matching
    label: str
    x: float
    y: float


class Network:
    """Activity network: nodes with display info, edges with build costs.

    Edges are stored canonically with u < v (node ids). A network is valid
    once built: its ids and names are unique, its edges join two declared
    nodes with a positive cost that a float holds, and it is connected.
    Building it also makes its lookups once: `name_to_id` (by case-folded
    name), `node_names` (that lexicon, the task-specific referents),
    `id_to_name`, `edge_of` (each canonical edge u < v, by (u, v) and by
    (v, u)) and `optimal_cost`. Its attributes cannot be set, and two networks
    with equal nodes and edges are equal.
    """

    __slots__ = ("nodes", "edges", "name_to_id", "node_names", "id_to_name", "edge_of",
                 "optimal_cost")

    def __init__(self, nodes: tuple[NetworkNode, ...], edges: tuple[tuple[int, int, int], ...]):
        if len(nodes) < 2:
            raise InputError(f"a network needs at least two nodes, got {len(nodes)}")
        for node in nodes:  # a name is recognised only as one transcript token
            if (tokens := tokenize(node.name)) != [node.name.lower()]:
                raise InputError(f"node name {node.name!r} is not one token: "
                                 f"transcripts read it as {tokens}")
        name_to_id = {n.name.lower(): n.id for n in nodes}
        if len(name_to_id) != len(nodes):
            raise InputError("duplicate node names after case-folding")
        id_to_name = {n.id: n.name for n in nodes}
        if len(id_to_name) != len(nodes):
            node, count = Counter(n.id for n in nodes).most_common(1)[0]
            raise InputError(f"node id {reprlib.repr(node)} appears {count} times")
        edge_of = {}
        for u, v, cost in edges:
            edge = f"({reprlib.repr(u)},{reprlib.repr(v)})"  # an id may be any JSON integer
            if u not in id_to_name or v not in id_to_name:
                raise InputError(f"edge {edge} references undeclared node")
            if u == v:
                raise InputError(f"edge {edge} joins node {reprlib.repr(u)} to itself")
            if not u < v:
                raise InputError(f"edge {edge} not in canonical u < v order")
            if (u, v) in edge_of:
                raise InputError(f"duplicate edge {edge}")
            if _check_cost(cost, f"edge {edge} cost") <= 0:
                raise InputError(f"edge {edge} has non-positive cost")
            edge_of[u, v] = edge_of[v, u] = (u, v)
        # an unconnected network has no optimal cost: refused here, not at a submit
        for name, value in zip(self.__slots__, (
                nodes, edges, name_to_id, frozenset(name_to_id), id_to_name, edge_of,
                _spanning_cost(id_to_name, edges))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: a Network is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not Network:
            return NotImplemented
        return (self.nodes, self.edges) == (other.nodes, other.edges)

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"Network(nodes={self.nodes!r}, edges={self.edges!r})"

    def __reduce__(self):  # copy and pickle build a copy as its constructor builds one
        return Network, (self.nodes, self.edges)

    def edge(self, u: int, v: int) -> tuple[int, int]:
        """The canonical edge joining nodes u and v; InputError if there is none."""
        for node in (u, v):
            if node not in self.id_to_name:
                raise InputError(f"unknown node id {reprlib.repr(node)}")
        if (edge := self.edge_of.get((u, v))) is None:
            raise InputError(f"({self.id_to_name[u]},{self.id_to_name[v]}) is not a network edge")
        return edge

    def resolve_node(self, name: str) -> int:
        node_id = self.name_to_id.get(name.lower())
        if node_id is None:
            raise InputError(f"unknown node name: {name!r}")
        return node_id


def _spanning_cost(ids: Iterable[int], edges: Iterable[tuple[int, int, int]]) -> int:
    """Cost of a minimum spanning tree of the nodes `ids` (Kruskal)."""
    parent = {node: node for node in ids}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    total = 0
    joined = 0
    for u, v, cost in sorted(edges, key=lambda e: (e[2], e[0], e[1])):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += cost
            joined += 1
    if joined != len(parent) - 1:
        raise InputError("network is not connected; no spanning solution exists")
    return total


class UtteranceRow(NamedTuple):
    """One speaker's IPU as the transcript and corpus.json hold it: timing and raw text."""

    team: int
    speaker: str  # "A", "B", or "I" for the robot
    start: float
    end: float
    text: str


class Utterance(NamedTuple):
    """One speaker's IPU with timing, raw text, and token bookkeeping."""

    team: int
    speaker: str  # "A", "B", or "I" for the robot
    start: float
    end: float
    text: str
    tokens: tuple[str, ...]
    global_token_offset: int

    @property
    def is_human(self) -> bool:
        return self.speaker in HUMAN_SPEAKERS


class EditEvent(NamedTuple):
    team: int
    time: float
    kind: str  # ADD or REMOVE
    edge: tuple[int, int]  # canonical u < v

    u = property(lambda self: self.edge[0])  # the edge's ends, by their corpus.json keys
    v = property(lambda self: self.edge[1])


class SubmitEvent(NamedTuple):
    team: int
    time: float
    cost: int


class TestScores(NamedTuple):
    team: int
    speaker: str
    pre: int
    post: int


class ActionEvent(NamedTuple):
    """Unified says/adds/removes record with turn and attempt counters.

    `subject` is None for robot speech; edit subjects are derived from the
    view-swap parity (the visual-view interlocutor performs the edits).
    """

    subject: str | None
    verb: str  # "says", "adds", or "removes"
    time: float
    turn: int
    attempt: int
    utterance: Utterance | None = None
    edge: tuple[int, int] | None = None


def _reject_constant(token: str) -> float:
    """json.loads hook: NaN and Infinity are not JSON numbers."""
    raise ValueError(f"{token} is not a JSON number")


def _read_json(path: Path, what: str, parse):
    """`parse` of the JSON object `what` in the file `path`; every InputError names the file."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        return parse(_typed(data, dict, what))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad syntax, a non-UTF-8 byte, too deep
        raise InputError(f"{path}: invalid JSON ({exc})") from None


def _field_value(field: str, kind: Callable, column: str):
    """A field of `column` read as `kind`: int, float (a finite one), str.strip or str."""
    try:
        value = kind(field)
        if kind is float and not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise InputError(f"bad {column} value {field!r}") from None
    return value


def _parsed(fields: Sequence[str], kind: Callable) -> Sequence | None:
    """_field_value of each field, a column at a time; None if any field fails."""
    if kind is str:
        return fields
    try:
        values = list(map(kind, fields))
    except ValueError:
        return None
    if kind is not float or all(map(math.isfinite, values)):
        return values


def _read_csv(path: str | Path, columns: dict[str, Callable], row: Callable,
              build: Callable) -> list:
    """The records of a UTF-8 CSV file whose header is `columns`.

    Each column is read as the kind that `columns` gives it (see _field_value).
    A byte order mark may open the file, and blank lines are skipped. A valid
    file is read a column at a time: build(*columns) makes its records, or
    returns None or raises an InputError if a row fails a check. Then the file
    is read again a row at a time, row(*values) making each row's record, up
    to its first error, whatever its kind: a line that the csv module cannot
    parse, a wrong number of fields, a field of the wrong kind or a failed
    check. That error is raised, naming the file and line.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # its positions count in the bytes after a BOM
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    if [f.strip() for f in header] != list(columns):
        raise InputError(f"{path}: expected header {','.join(columns)}, got {','.join(header)}")
    try:
        records = list(filter(None, reader))
    except csv.Error:
        records = None
    del reader  # and its copy of the text, before the columns are built
    if records is not None and set(map(len, records)) <= {len(columns)}:
        raw = list(zip(*records)) or [()] * len(columns)
        del records  # each field is now held by its column alone
        values = list(map(_parsed, raw, columns.values()))
        try:
            if None not in values and (built := build(*values)) is not None:
                return built
        except InputError:
            pass
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)  # the header, which parsed once already
    built = []
    try:
        for fields in filter(None, reader):
            if len(fields) != len(columns):
                raise InputError(f"expected {len(columns)} fields, got {len(fields)}")
            built.append(row(*map(_field_value, fields, columns.values(), columns)))
    except (InputError, csv.Error) as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    return built


# Stored record kinds, each declared once: under the corpus.json list that
# holds them, an entry's keys and JSON types in the order the kind's builder
# takes them (after the team, for a team's records). The kind's row builder
# runs its checks and makes a record for the raw loaders and load_corpus
# alike; a column builder (_utterances, _edits, _scores) makes the records of valid
# rows a column at a time, and None if a row fails a check. A check's
# InputError has no location; the caller adds it.
_RECORDS = {
    "utterances": {"speaker": str, "start": float, "end": float, "text": str},
    "edits": {"time": float, "kind": str, "u": int, "v": int},
    "submits": {"time": float, "cost": int},
    "scores": {"speaker": str, "pre": int, "post": int},
    "nodes": {"id": int, "name": str, "label": str, "x": float, "y": float},
    "edges": {"u": int, "v": int, "cost": int},
}


def _named(kind: type, *columns: Iterable) -> list:
    """The records of named-tuple `kind` whose fields are `columns`' values, made
    as kind._make makes one, by tuple.__new__, but with no Python call per record."""
    return list(map(partial(tuple.__new__, kind), zip(*columns)))


def _check_speaker(speaker: str, allowed: tuple[str, ...]) -> str:
    if speaker not in allowed:
        raise InputError(f"speaker must be one of {', '.join(allowed)}, got {speaker!r}")
    return speaker


def _check_time(time: float, name: str) -> float:
    """`time`, counted from the task's start at 0 up to MAX_TIME; -0.0 reads as 0.0."""
    if time < 0:
        raise InputError(f"{name} {time} is negative; times count from the task's start at 0")
    if time > MAX_TIME:
        raise InputError(f"{name} {time} is above {MAX_TIME}")
    return time or 0.0


def _utterance(team: int, speaker: str, start: float, end: float, text: str) -> UtteranceRow:
    _check_speaker(speaker, SPEAKERS)
    start = _check_time(start, "start")
    if start > end:
        raise InputError(f"start {start} after end {end}")
    return UtteranceRow(team, speaker, start, _check_time(end, "end"), text)


def _utterances(team: Iterable[int], speaker: Sequence[str], start: Sequence[float],
                end: Sequence[float], text: Sequence[str]) -> list[UtteranceRow] | None:
    if (frozenset(SPEAKERS).issuperset(speaker) and min(start, default=0.0) >= 0
            and max(end, default=0.0) <= MAX_TIME
            and not any(map(gt, start, end))):  # so no end is negative, nor start above MAX_TIME
        zeroed = partial(map, add, repeat(0.0))  # t + 0.0 is t, but 0.0 for -0.0
        return _named(UtteranceRow, team, speaker, zeroed(start), zeroed(end), text)


def _edit(team: int, network: Network, time: float, kind: str, u: int, v: int) -> EditEvent:
    if kind not in (ADD, REMOVE):
        raise InputError(f"unknown edit kind {kind!r}")
    return EditEvent(team, _check_time(time, "time"), kind, network.edge(u, v))


def _edits(team: Iterable[int], network: Iterable[Network], time: Sequence[float],
           kind: Sequence[str], u: Sequence[int], v: Sequence[int]) -> list[EditEvent] | None:
    """The edits a column at a time; `network` repeats the team's network. Each time
    is the float that was parsed, not a copy, but 0.0 for -0.0 as _check_time reads it."""
    edges = list(map(next(network).edge_of.get, zip(u, v)))  # None where Network.edge raises
    if (min(time, default=0.0) >= 0 and max(time, default=0.0) <= MAX_TIME
            and {ADD, REMOVE}.issuperset(kind) and None not in edges):
        if 0.0 in time:  # -0.0 among them
            time = [t or 0.0 for t in time]
        return _named(EditEvent, team, time, kind, edges)


def _check_cost(cost: int, name: str) -> int:
    """`cost`, if a float holds it: the success measures divide costs as floats."""
    if cost > sys.float_info.max:
        raise InputError(f"{name} {reprlib.repr(cost)} is above the largest float "
                         f"{sys.float_info.max!r}")
    return cost


def _submit(team: int, network: Network, time: float, cost: int) -> SubmitEvent:
    time = _check_time(time, "time")
    if _check_cost(cost, "submitted cost") < network.optimal_cost:
        raise InputError(f"submitted cost {reprlib.repr(cost)} below optimal "
                         f"{reprlib.repr(network.optimal_cost)} (a solution spans all nodes)")
    return SubmitEvent(team, time, cost)


def _score(team: int, speaker: str, pre: int, post: int) -> TestScores:
    _check_speaker(speaker, HUMAN_SPEAKERS)
    for name, value in (("pre", pre), ("post", post)):
        if not 0 <= value <= MAX_SCORE:
            raise InputError(f"{name} score {reprlib.repr(value)} outside 0..{MAX_SCORE}")
    return TestScores(team, speaker, pre, post)


def _scores(team: Iterable[int], speaker: Sequence[str], pre: Sequence[int],
            post: Sequence[int]) -> list[TestScores] | None:
    scores = frozenset(range(MAX_SCORE + 1))
    if (frozenset(HUMAN_SPEAKERS).issuperset(speaker) and scores.issuperset(pre)
            and scores.issuperset(post)):
        return _named(TestScores, team, speaker, pre, post)


def load_transcript(path: str | Path) -> list[UtteranceRow]:
    """Load a transcripts CSV (team,speaker,start_sec,end_sec,utterance).

    Returns its checked rows, stable-sorted by (team, start, end): each team's
    rows in the order that TeamCorpus numbers their tokens. Nothing is
    tokenized here; the text of each row is kept as it is written.
    """
    records = _read_csv(path, {"team": int, "speaker": str.strip, "start_sec": float,
                               "end_sec": float, "utterance": str}, _utterance, _utterances)
    return sorted(records, key=itemgetter(0, 2, 3))


def number_utterances(team: int, rows: list[tuple[str, float, float, str]]) -> list[Utterance]:
    """Tokenize one team's (speaker, start, end, text) rows in the order given,
    which is (start, end) order for the rows of a TeamCorpus.

    Each utterance's global token offset is the number of tokens before it,
    which numbers every token of the team uniquely.
    """
    speakers, starts, ends, texts = zip(*rows) if rows else ((),) * 4
    tokens = list(map(tuple, map(tokenize, texts)))
    return _named(Utterance, repeat(team), speakers, starts, ends, texts, tokens,
                  accumulate(map(len, tokens), initial=0))


def load_event_log(path: str | Path, network: Network) -> list[EditEvent | SubmitEvent | tuple]:
    """Load an events CSV (team,time_sec,event,u,v,cost): its edits, submits
    and stops, sorted by (team, time), records of equal (team, time) in file order.

    Edges are resolved against the network's node names and canonicalized
    u < v. An optional `stop` event marks the experimenter ending the task;
    its record is the pair (team, time).
    """
    unused = {ADD: ("cost",), REMOVE: ("cost",), "submit": ("u", "v"), "stop": ("u", "v", "cost")}

    def event(team: int, time: float, kind: str, u: str, v: str,
              cost: str) -> EditEvent | SubmitEvent | tuple[int, float]:
        time, kind = _check_time(time, "time_sec"), kind.lower()
        for name in unused.get(kind, ()):
            if value := {"u": u, "v": v, "cost": cost}[name]:
                raise InputError(f"{kind} events leave {name} empty, got {value!r}")
        if kind in (ADD, REMOVE):
            return _edit(team, network, time, kind, network.resolve_node(u),
                         network.resolve_node(v))
        if kind == "submit":
            if not cost:
                raise InputError("submit without cost")
            return _submit(team, network, time, _field_value(cost, int, "cost"))
        if kind == "stop":
            return team, time
        raise InputError(f"unknown event kind {kind!r}")
    # one row layout for every event: u and v are node names, only submits set a cost,
    # and an event leaves the fields it does not use empty
    columns = {"team": int, "time_sec": float, "event": str.strip, "u": str.strip,
               "v": str.strip, "cost": str.strip}
    records = _read_csv(path, columns, event, lambda *values: list(map(event, *values)))
    records.sort(key=itemgetter(0, 1))
    return records


def load_network(path: str | Path) -> Network:
    """Load the network JSON: {nodes:[{id,name,label,x,y}], edges:[{u,v,cost}]}."""
    return _read_json(Path(path), "the network", _network_from_json)


def load_test_scores(path: str | Path) -> list[TestScores]:
    """Load the tests CSV (team,speaker,pre,post) with 0..MAX_SCORE validation."""
    scores = _read_csv(path, {"team": int, "speaker": str.strip, "pre": int, "post": int},
                       _score, _scores)
    return sorted(scores, key=attrgetter("team", "speaker"))


def build_action_stream(
    utterances: list[Utterance],
    edits: list[EditEvent],
    submits: list[SubmitEvent],
    first_visual: str = "B",
) -> list[ActionEvent]:
    """Merge the utterances and events of one team, as a TeamCorpus holds them, in time order.

    The turn counter increments after every second edit action; the attempt
    counter increments after each submission. Says events carry the counters
    in force at their start time. Simultaneous events are ordered
    says < edit < submit.

    `first_visual` names the interlocutor in the visual view during turn 1;
    that interlocutor performs the turn's edits, alternating each swap.
    """
    if first_visual not in HUMAN_SPEAKERS:
        raise ValueError(f"first_visual must be A or B, got {first_visual!r}")

    SAYS, EDIT, SUBMIT = 0, 1, 2
    # (time, kind, index, record): each (kind, index) is unique, so the sort never compares records
    merged: list[tuple[float, int, int, object]] = []
    for kind, records, time in ((SAYS, utterances, attrgetter("start")),
                                (EDIT, edits, attrgetter("time")),
                                (SUBMIT, submits, attrgetter("time"))):
        merged += zip(map(time, records), repeat(kind), count(), records)
    merged.sort()

    other = "A" if first_visual == "B" else "B"
    action = partial(tuple.__new__, ActionEvent)
    stream: list[ActionEvent] = []
    turn = 1
    attempt = 1
    edits_in_turn = 0
    for time, kind, _, payload in merged:
        if kind == SAYS:
            subject = payload.speaker if payload.speaker in HUMAN_SPEAKERS else None
            stream.append(action((subject, "says", time, turn, attempt, payload, None)))
        elif kind == EDIT:
            actor = first_visual if turn % 2 == 1 else other
            verb = "adds" if payload.kind == ADD else "removes"
            stream.append(action((actor, verb, time, turn, attempt, None, payload.edge)))
            edits_in_turn += 1
            if edits_in_turn == 2:
                turn += 1
                edits_in_turn = 0
        else:
            attempt += 1
    return stream


def relative_time(time: float, team_duration: float) -> float:
    """Map an absolute time to percent progress through the team's activity;
    `team_duration` is at least MIN_DURATION, as `check_teams` makes every
    team's, so a time of at most MAX_TIME maps to at most 1e14."""
    return 100.0 * time / team_duration


class TeamCorpus(NamedTuple):
    """All ingested data for one team, with derived utterances, stream and duration.

    `utterance_rows` are the team's transcript rows in (start, end) order, as
    load_transcript sorts them and corpus.json stores them. `utterances`
    tokenizes and numbers them (number_utterances), and `duration` scans the
    events, afresh on each access: a reader that needs either twice keeps it.
    """

    team: int
    utterance_rows: tuple[UtteranceRow, ...]
    edits: tuple[EditEvent, ...]
    submits: tuple[SubmitEvent, ...]
    stops: tuple[float, ...] = ()
    scores: tuple[TestScores, ...] = ()
    first_visual: str = "B"

    @property
    def utterances(self) -> tuple[Utterance, ...]:
        return tuple(number_utterances(self.team, [row[1:] for row in self.utterance_rows]))

    def stream(self, utterances: Sequence[Utterance]) -> list[ActionEvent]:
        """The action stream of the team's edits, submits and numbered `utterances`."""
        return build_action_stream(list(utterances), list(self.edits), list(self.submits),
                                   self.first_visual)

    @property
    def duration(self) -> float:
        """Time of the last logged event; a team that `check_teams` accepted has a submit."""
        return max([e.time for e in self.edits] + [s.time for s in self.submits] + list(self.stops))

    @property
    def n_turns(self) -> int:
        return 1 + len(self.edits) // 2


class Corpus(NamedTuple):
    """A network plus per-team corpora, keyed by team id."""

    network: Network
    teams: tuple[TeamCorpus, ...] = ()


def assemble_corpus(
    network: Network,
    utterances: list[UtteranceRow],
    events: list[EditEvent | SubmitEvent | tuple],
    scores: list[TestScores],
    first_visual: str = "B",
) -> Corpus:
    """Group loaded rows by team into a Corpus, keeping each team's row order.
    `utterances` and `events` are the rows that load_transcript and
    load_event_log return: a stop's record is its (team, time)."""
    by_team: dict[int, dict[type, list]] = defaultdict(
        lambda: {UtteranceRow: [], EditEvent: [], SubmitEvent: [], tuple: [], TestScores: []})
    for row in chain(utterances, events, scores):
        by_team[row[0]][type(row)].append(row)
    teams = tuple(
        TeamCorpus(team_id, tuple(rows[UtteranceRow]), tuple(rows[EditEvent]),
                   tuple(rows[SubmitEvent]), tuple(time for _, time in rows[tuple]),
                   tuple(rows[TestScores]), first_visual)
        for team_id, rows in sorted(by_team.items())
    )
    return Corpus(network, teams)


def check_teams(corpus: Corpus, *, teams_file: str | Path, scores_file: str | Path,
                events_file: str | Path) -> None:
    """Reject a corpus without teams, or a team the success measures cannot score.

    Every team appears once, with one test-score row for each interlocutor, at
    least one submitted solution and a duration (its last event's time) of at
    least MIN_DURATION. Each message names the file that holds the rows or times at fault.
    """
    if not corpus.teams:
        raise InputError(f"{teams_file}: no teams")
    appearances = Counter(tc.team for tc in corpus.teams)
    for tc in corpus.teams:
        team = reprlib.repr(tc.team)
        if appearances[tc.team] > 1:
            raise InputError(f"{teams_file}: team {team} appears twice")
        for speaker in HUMAN_SPEAKERS:
            rows = sum(s.speaker == speaker for s in tc.scores)
            if rows != 1:
                has = f"has {rows} test-score rows" if rows else "has no test scores"
                raise InputError(f"{scores_file}: team {team} {has} for speaker {speaker}")
        if not tc.submits:
            raise InputError(f"{events_file}: team {team} submitted no solution")
        if not (duration := tc.duration) >= MIN_DURATION:
            raise InputError(f"{events_file}: team {team} has duration {duration}; "
                             f"its last event must come at least {MIN_DURATION} s after time 0")


# ---------------------------------------------------------------------------
# Corpus (de)serialization. corpus.json stores the raw rows; tokens, offsets
# and counters are derived from them on first use, deterministically, so a
# round-trip reproduces them exactly.

# the JSON text of each scalar, by exact type: the stdlib encoder's spellings (of a finite float)
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}
_Records = NamedTuple("_Records", [("kind", str), ("records", tuple)])  # of one stored kind


@cache
def _layout(kind: str, indent: str) -> tuple[list[str], str]:
    """The sorted keys of `kind` and the % template of its corpus.json entry, `indent` deep."""
    keys = sorted(_RECORDS[kind])
    entry = f",\n{indent}  ".join(f"{encode_basestring_ascii(key)}: %s" for key in keys)
    return keys, f"{{\n{indent}  {entry}\n{indent}}}"


def _column(values: list):
    """The JSON texts of `values` if all are of one scalar type and finite, else None."""
    kind, *others = set(map(type, values))
    if not others and kind in _SCALARS and (kind is not float or all(map(math.isfinite, values))):
        return map(_SCALARS[kind], values)


@cache
def _encoder(indent: str) -> Callable:
    """The stdlib's C encoder of a container of scalars nested `indent` deep, as
    json.dumps(indent=2, sort_keys=True, allow_nan=False) writes its items, but
    with no line break after its opening bracket nor before its closing one."""
    return c_make_encoder(None, None, encode_basestring_ascii, None, ": ", f",\n{indent}  ",
                          True, False, False)


def _json(value, indent: str) -> str:
    """`value` as json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    writes it, nested `indent` deep; a dict's keys are strings."""
    kind = type(value)
    if kind is _Records:  # as their corpus.json entries: a column at a time, a template per entry
        if not value.records:
            return "[]"
        inner = indent + "  "
        keys, template = _layout(value.kind, inner)
        columns = [list(map(attrgetter(key), value.records)) for key in keys]
        texts = [_column(column) for column in columns]
        rows = zip(*texts) if None not in texts else (  # a value at a time, in json.dumps' order
            tuple(_json(item, inner + "  ") for item in row) for row in zip(*columns))
        return f"[\n{inner}" + f",\n{inner}".join(map(template.__mod__, rows)) + f"\n{indent}]"
    if kind is dict or kind is list or kind is tuple:
        first, last = "{}" if kind is dict else "[]"
        if not value:
            return first + last
        inner = indent + "  "
        items = value.values() if kind is dict else value
        if _SCALARS.keys() >= set(map(type, items)) and (  # scalars, by the C encoder
                kind is not dict or set(map(type, value)) == {str}):
            try:
                text = "".join(_encoder(indent)(value, 0))
                return f"{first}\n{inner}{text[1:-1]}\n{indent}{last}"
            except ValueError:  # its message does not name the non-finite float: see below
                pass
        if kind is dict:
            items = [f"{encode_basestring_ascii(key)}: {_json(item, inner)}"
                     for key, item in sorted(value.items())]
        else:
            items = [_json(item, inner) for item in value]
        return f"{first}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{last}"
    if kind not in _SCALARS:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return _SCALARS[kind](value)


def _pieces(value, indent: str, levels: int) -> list[str]:
    """Strings that join to _json(value, indent): the brackets, separators and keys
    of the outer `levels` container levels, and one _json text per item below them."""
    kind = type(value)
    if not levels or not (kind is dict or kind is list or kind is tuple) or not value:
        return [_json(value, indent)]
    inner, (first, last) = indent + "  ", "{}" if kind is dict else "[]"
    pieces, head = [], f"{first}\n{inner}"
    for key, item in sorted(value.items()) if kind is dict else enumerate(value):
        pieces.append(f"{head}{encode_basestring_ascii(key)}: " if kind is dict else head)
        pieces += _pieces(item, inner, levels - 1)
        head = f",\n{inner}"
    return pieces + [f"\n{indent}{last}"]


def write_json(path: Path, data) -> Path:
    """Write `data` to `path`, making its directory, as UTF-8 JSON: indented
    by 2, keys sorted, a final newline, the bytes json.dumps writes. The text
    is encoded in full before the file is opened and then written in pieces,
    so writing holds about one copy of it. NaN and Infinity are not JSON
    numbers: an InputError naming `path`, and no file is written."""
    try:
        pieces = _pieces(data, "", 2) + ["\n"]
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.writelines(pieces)
    return path


def save_corpus(corpus: Corpus, out_dir: str | Path) -> Path:
    payload = {
        "network": {"nodes": _Records("nodes", corpus.network.nodes),
                    "edges": [dict(zip(_RECORDS["edges"], e)) for e in corpus.network.edges]},
        "teams": [{"team": tc.team, "first_visual": tc.first_visual, "stops": list(tc.stops),
                   "utterances": _Records("utterances", tc.utterance_rows),
                   **{kind: _Records(kind, getattr(tc, kind))
                      for kind in ("edits", "submits", "scores")}}
                  for tc in corpus.teams],
    }
    return write_json(Path(out_dir) / "corpus.json", payload)


_JSON_TYPES = {int: "an integer", float: "a finite number", str: "a string", list: "a list",
               dict: "an object"}


def _typed(value: object, kind: type, what: str):
    """`value` if its JSON type is `kind`. A float may be any number a float
    holds finitely, integers included, and is returned as a float; a boolean
    is never a number."""
    if kind is float:
        if type(value) in (float, int) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is kind:
        return value
    raise InputError(f"{what} must be {_JSON_TYPES[kind]}, got {reprlib.repr(value)}")


def _field(entry: dict, key: str, kind: type):
    try:
        value = entry[key]
    except KeyError:
        raise InputError(f"missing key {key!r}") from None
    return _typed(value, kind, key)


def _records(entry: dict, key: str) -> list[dict]:
    items, what = _field(entry, key, list), f"each of {key}"
    for item in items:
        _typed(item, dict, what)
    return items


def _columns(entry: dict, key: str) -> list[list]:
    """The values of the records under `key`, a list per key of _RECORDS. A column with
    a value of another kind, or none, is read again an item at a time for its first error."""
    items, columns = _records(entry, key), []
    for name, kind in _RECORDS[key].items():
        column = list(map(dict.get, items, repeat(name)))
        if not (set(map(type, column)) <= {kind}
                and (kind is not float or all(map(math.isfinite, column)))):
            column = [_field(item, name, kind) for item in items]
        columns.append(column)
    return columns


def _built(entry: dict, key: str, row, *context, build=None) -> list:
    """row(*context, *values) for each record under `key`, in record order, so the
    first error in that order is raised. `build`, if given, takes each item of
    `context` repeated and the columns, and makes the same records a column at
    a time, or None if a record fails a check."""
    context, columns = list(map(repeat, context)), _columns(entry, key)
    if build is None or (records := build(*context, *columns)) is None:
        records = list(map(row, *context, *columns))
    return records


def _network_from_json(data: dict) -> Network:
    """Network from its JSON form, with exact JSON types."""
    edges = _built(data, "edges", lambda u, v, cost: (min(u, v), max(u, v), cost))
    return Network(nodes=tuple(_built(data, "nodes", NetworkNode)), edges=tuple(sorted(edges)))


def _team_from_json(entry: dict, network: Network) -> TeamCorpus:
    """One team of corpus.json, checked like the raw rows it was saved from."""
    team = _field(entry, "team", int)
    rows = _built(entry, "utterances", _utterance, team, build=_utterances)
    first_visual = "B"
    if "first_visual" in entry:
        first_visual = _check_speaker(_field(entry, "first_visual", str), HUMAN_SPEAKERS)
    return TeamCorpus(
        team=team,
        utterance_rows=tuple(sorted(rows, key=itemgetter(2, 3))),  # as load_transcript sorts
        edits=tuple(_built(entry, "edits", _edit, team, network, build=_edits)),
        submits=tuple(_built(entry, "submits", _submit, team, network)),
        stops=tuple(_check_time(_typed(time, float, "each of stops"), "stop time")
                    for time in _field(entry, "stops", list)),
        scores=tuple(_built(entry, "scores", _score, team, build=_scores)),
        first_visual=first_visual,
    )


def load_corpus(corpus_dir: str | Path) -> Corpus:
    """Load a corpus directory written by save_corpus, with the raw loaders' checks.

    Every malformed entry raises an InputError naming corpus.json and the team.
    """
    path = Path(corpus_dir) / "corpus.json"
    if not path.exists():
        raise InputError(f"{path}: corpus file not found (run `align ingest` first)")
    network, entries = _read_json(path, "the corpus", lambda data: (
        _network_from_json(_field(data, "network", dict)), _records(data, "teams")))

    teams = []
    for index, entry in enumerate(entries):
        try:
            teams.append(_team_from_json(entry, network))
        except InputError as exc:
            team = entry.get("team")
            where = f"team {reprlib.repr(team)}" if type(team) is int else f"teams[{index}]"
            raise InputError(f"{path}: {where}: {exc}") from None
    corpus = Corpus(network=network, teams=tuple(teams))
    check_teams(corpus, teams_file=path, scores_file=path, events_file=path)
    return corpus
