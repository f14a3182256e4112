"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's code paths: statistics come from the
direct pair-count definitions, p-values from exhaustive permutation
enumeration, routines from literal span-containment checks, instructions
from the documented draft rules, matcher verdicts from a
replay-from-scratch reconstruction of the pending cache, and the raw CSV
loaders' records and first errors from reading and checking one row at a
time, a corpus.json team's edits and submits from checking one entry at a
time, CSV tables from the stdlib's csv.writer, and the annotated corpus's
cells from the instruction and verdict oracles by the README's cell rules.
"""

from __future__ import annotations

import csv
import io
import math
import reprlib
import sys
from itertools import combinations, groupby, permutations
from operator import attrgetter, itemgetter
from pathlib import Path

from align.corpus import EditEvent, InputError, SubmitEvent, TestScores, UtteranceRow


# --- statistics ---------------------------------------------------------------

# Values of any number type are compared as the floats they convert to, as
# the statistics are computed on float samples.

def u_direct(x, y) -> float:
    """U by pair counting: #{x_i > y_j} + 0.5 * #{x_i = y_j}."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    gt = sum(1 for a in x for b in y if a > b)
    eq = sum(1 for a in x for b in y if a == b)
    return gt + 0.5 * eq


def delta_direct(x, y) -> float:
    x, y = [float(v) for v in x], [float(v) for v in y]
    gt = sum(1 for a in x for b in y if a > b)
    lt = sum(1 for a in x for b in y if a < b)
    return (gt - lt) / (len(x) * len(y))


def rho_direct(x, y) -> float:
    """Spearman rho as Pearson correlation of average ranks."""

    def avg_ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        ranks = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            mean_rank = (i + j) / 2 + 1
            for k in range(i, j + 1):
                ranks[order[k]] = mean_rank
            i = j + 1
        return ranks

    rx, ry = avg_ranks([float(v) for v in x]), avg_ranks([float(v) for v in y])
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den


def h_direct(groups) -> float:
    """Kruskal-Wallis H with average ranks and tie correction.

    Returns 0.0 for all-identical pooled data (the tie factor vanishes).
    """
    pooled = [float(v) for g in groups for v in g]
    n = len(pooled)
    order = sorted(range(n), key=lambda i: pooled[i])
    ranks = [0.0] * n
    i = 0
    tie_term = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        size = j - i + 1
        tie_term += size**3 - size
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    h = 0.0
    start = 0
    for g in groups:
        r = sum(ranks[start:start + len(g)])
        h += r * r / len(g)
        start += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - tie_term / (n**3 - n)
    if correction == 0.0:
        return 0.0
    return h / correction


def exact_mwu_p(x, y, convention: str = "ordinary") -> float:
    """Two-sided permutation p for U, by |U - mn/2| deviation.

    convention="ordinary" counts P(dev >= obs); "mid" counts
    P(dev > obs) + 0.5 * P(dev = obs), the exhaustive counterpart of the
    normal approximation without continuity correction.
    """
    pooled = list(x) + list(y)
    m = len(x)
    center = m * len(y) / 2.0
    observed = abs(u_direct(x, y) - center)
    over = equal = total = 0
    indices = range(len(pooled))
    for chosen in combinations(indices, m):
        chosen_set = set(chosen)
        xs = [pooled[i] for i in chosen]
        ys = [pooled[i] for i in indices if i not in chosen_set]
        deviation = abs(u_direct(xs, ys) - center)
        if deviation > observed + 1e-12:
            over += 1
        elif deviation >= observed - 1e-12:
            equal += 1
        total += 1
    if convention == "mid":
        return (over + 0.5 * equal) / total
    return (over + equal) / total


def exact_kw_p(groups, convention: str = "ordinary") -> float:
    """Permutation p for H over all labeled group assignments."""
    pooled = [v for g in groups for v in g]
    sizes = [len(g) for g in groups]
    observed = h_direct(groups)
    counts = [0, 0, 0]  # over, equal, total

    def assign(remaining_indices, remaining_sizes, acc):
        if not remaining_sizes:
            relabeled = [[pooled[i] for i in block] for block in acc]
            h = h_direct(relabeled)
            if h > observed + 1e-12:
                counts[0] += 1
            elif h >= observed - 1e-12:
                counts[1] += 1
            counts[2] += 1
            return
        size = remaining_sizes[0]
        for block in combinations(remaining_indices, size):
            taken = set(block)
            left = [i for i in remaining_indices if i not in taken]
            assign(left, remaining_sizes[1:], acc + [block])

    assign(list(range(len(pooled))), sizes, [])
    if convention == "mid":
        return (counts[0] + 0.5 * counts[1]) / counts[2]
    return (counts[0] + counts[1]) / counts[2]


def exact_spearman_p(x, y, convention: str = "ordinary") -> float:
    """Two-sided permutation p for rho over all orderings of y."""
    observed = abs(rho_direct(x, y))
    over = equal = total = 0
    y = list(y)
    for perm in permutations(range(len(y))):
        r = abs(rho_direct(x, [y[i] for i in perm]))
        if r > observed + 1e-12:
            over += 1
        elif r >= observed - 1e-12:
            equal += 1
        total += 1
    if convention == "mid":
        return (over + 0.5 * equal) / total
    return (over + equal) / total


# --- routines -----------------------------------------------------------------

def oracle_routines(utterances):
    """Literal shared-subsequence enumeration with span-containment freeness.

    Returns {expression: (initiator, priming (ui, pos), establishment
    (ui, pos), occurrences [(ui, pos, speaker, free)])} with pos local to
    the utterance. Containment is checked directly against every longer
    shared expression's occurrence spans.
    """
    human = [(i, u) for i, u in enumerate(utterances) if u.is_human]
    speakers = {u.speaker for _, u in human if u.tokens}
    if len(speakers) < 2:
        return {}

    spans = {}  # gram -> [(ui, start)]
    produced = {}
    for ui, utt in human:
        toks = utt.tokens
        for a in range(len(toks)):
            for b in range(a + 1, len(toks) + 1):
                gram = toks[a:b]
                spans.setdefault(gram, []).append((ui, a))
                produced.setdefault(gram, set()).add(utt.speaker)

    shared = {g for g, who in produced.items() if len(who) >= 2}

    result = {}
    for gram in shared:
        size = len(gram)
        occs = []
        for ui, start in spans[gram]:
            contained = False
            for other in shared:
                if len(other) <= size:
                    continue
                for uj, s2 in spans[other]:
                    if uj == ui and s2 <= start and s2 + len(other) >= start + size:
                        contained = True
                        break
                if contained:
                    break
            occs.append((ui, start, utterances[ui].speaker, not contained))
        if not any(free for *_, free in occs):
            continue
        first_ui, first_start, initiator, _ = occs[0]
        estab = next((ui, s) for ui, s, spk, _ in occs if spk != initiator)
        result[gram] = (initiator, (first_ui, first_start), estab, occs)
    return result


# --- matcher ------------------------------------------------------------------

def oracle_instructions(tokens, node_names):
    """(verb, u, v) instructions by the documented draft rules, token by token.

    A token is a node if it names one, else a verb if a lexicon lists it. A
    verb flushes a draft that already has a verb (emitting it when it holds a
    node) and becomes the draft's verb; a node before any verb survives. A
    second, different node completes the draft; a missing verb is the
    previous instruction's, or Add. A draft left holding a node is emitted.
    """
    from align.instructions import ADD_VERBS, REMOVE_VERBS

    out = []
    verb = node = None
    for token in tokens:
        if token in node_names:
            if node is None:
                node = token
            elif token != node:
                out.append((verb or (out[-1][0] if out else "Add"), node, token))
                verb = node = None
        elif token in ADD_VERBS or token in REMOVE_VERBS:
            if verb is not None:
                if node is not None:
                    out.append((verb, node, None))
                node = None
            verb = "Add" if token in ADD_VERBS else "Remove"
    if node is not None:
        out.append((verb or (out[-1][0] if out else "Add"), node, None))
    return out


def _oracle_check(instr, action, network):
    """Whether the edit `action` realizes the (verb, u, v, ...) tuple `instr`."""
    verb, u, v = instr[:3]
    action_verb = "Add" if action.verb == "adds" else "Remove"
    if verb != action_verb:
        return False
    id_to_name = {n.id: n.name.lower() for n in network.nodes}
    a, b = (id_to_name[action.edge[0]], id_to_name[action.edge[1]])
    if v is None:
        return u in (a, b)
    return {u, v} <= {a, b}


def oracle_verdicts(stream, network, clear_on_verdict=False):
    """Replay the cache rules from scratch before every edit.

    Returns [(verdict, actor, instruction or None)] with instructions as
    (verb, u, v, agent) tuples, one per edit action in stream order.
    """
    verdicts = []
    for k, action in enumerate(stream):
        if action.verb == "says":
            continue
        # rebuild pending from scratch over stream[:k]
        pending = []
        turn, attempt = 1, 1
        for prior in stream[:k]:
            if prior.turn > turn or prior.attempt > attempt:
                pending = []
                turn, attempt = prior.turn, prior.attempt
            if prior.verb == "says":
                if prior.subject is not None:
                    for verb, u, v in oracle_instructions(prior.utterance.tokens,
                                                          network.node_names):
                        pending.append((verb, u, v, prior.subject))
            else:
                others = [p for p in pending if p[3] != prior.subject]
                if others:
                    if clear_on_verdict:
                        pending = []
                    else:
                        pending = [p for p in pending if not _oracle_check(p, prior, network)]

        if action.turn > turn or action.attempt > attempt:
            pending = []
        others = [p for p in pending if p[3] != action.subject]
        if not others:
            verdicts.append(("Nonmatch", action.subject, None))
        else:
            matched = None
            for p in others:
                if _oracle_check(p, action, network):
                    matched = p
            if matched is not None:
                verdicts.append(("Match", action.subject, matched))
            else:
                verdicts.append(("Mismatch", action.subject, others[-1]))
    return verdicts


def oracle_pending(stream, network, clear_on_verdict=False):
    """The pending cache after each stream event, by one forward replay.

    Returns one tuple per event of (verb, u, v, agent, stream index of the
    says event) tuples. Each event starts from a copy of the cache before
    it, so no event's cache shares a list with another's.
    """
    caches = []
    pending = []
    turn, attempt = 1, 1
    for index, action in enumerate(stream):
        pending = list(pending)
        if action.turn > turn or action.attempt > attempt:
            pending = []
            turn, attempt = action.turn, action.attempt
        if action.verb == "says":
            if action.subject is not None:
                pending += [(verb, u, v, action.subject, index) for verb, u, v
                            in oracle_instructions(action.utterance.tokens, network.node_names)]
        elif any(p[3] != action.subject for p in pending):
            if clear_on_verdict:
                pending = []
            else:
                pending = [p for p in pending if not _oracle_check(p, action, network)]
        caches.append(tuple(pending))
    return caches


# --- raw CSV loaders ----------------------------------------------------------

# Reference loaders that read and check each row in turn, so the first error
# in file order is the one raised, with the exact message that align.corpus
# raises. The library reads a column at a time and must agree with them.

def _oracle_rows(path, columns, handle) -> None:
    """handle(*fields) for each non-blank row of a UTF-8 CSV file whose header
    is `columns`; an error in a row names the file and the reader's line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")  # a byte order mark may open the file
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, [])
        if [f.strip() for f in header] == list(columns):
            for fields in filter(None, reader):
                if len(fields) != len(columns):
                    raise InputError(f"expected {len(columns)} fields, got {len(fields)}")
                handle(*fields)
            return
    except (InputError, csv.Error) as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    raise InputError(f"{path}: expected header {','.join(columns)}, got {','.join(header)}")


def _oracle_read(kind, column: str, value: str):
    """A field read as `kind`: stripped, or a finite number."""
    if kind is str:
        return value.strip()
    try:
        number = kind(value)
        if kind is float and not math.isfinite(number):
            raise ValueError
    except ValueError:
        raise InputError(f"bad {column} value {value!r}") from None
    return number


def _oracle_speaker(speaker: str, allowed: str) -> None:
    if speaker not in allowed:
        raise InputError(f"speaker must be one of {', '.join(allowed)}, got {speaker!r}")


def _oracle_time(time: float, name: str) -> float:
    """A time in 0..1e9 s, the bound spelled out rather than read from align.corpus."""
    if time < 0:
        raise InputError(f"{name} {time} is negative; times count from the task's start at 0")
    if time > 1e9:
        raise InputError(f"{name} {time} is above 1000000000.0")
    return time or 0.0


def oracle_load_transcript(path):
    """Transcript rows, sorted by team and then, within a team, by (start, end)."""
    loaded = []

    def row(team, speaker, start, end, text):
        team, speaker = _oracle_read(int, "team", team), _oracle_read(str, "speaker", speaker)
        start, end = _oracle_read(float, "start_sec", start), _oracle_read(float, "end_sec", end)
        _oracle_speaker(speaker, ("A", "B", "I"))
        start = _oracle_time(start, "start")
        if start > end:
            raise InputError(f"start {start} after end {end}")
        loaded.append(UtteranceRow(team, speaker, start, _oracle_time(end, "end"), text))
    _oracle_rows(path, ["team", "speaker", "start_sec", "end_sec", "utterance"], row)
    loaded.sort(key=attrgetter("team"))
    return [r for _, rows in groupby(loaded, key=attrgetter("team"))
            for r in sorted(rows, key=itemgetter(2, 3))]


def oracle_load_event_log(path, network):
    """Edits, submits and (team, time) stops, sorted by team and then, within a
    team, by time, events of equal time in file order."""
    events = []
    unused = {"add": ("cost",), "remove": ("cost",), "submit": ("u", "v"),
              "stop": ("u", "v", "cost")}

    def row(team, time, kind, u, v, cost):
        team = _oracle_read(int, "team", team)
        time = _oracle_time(_oracle_read(float, "time_sec", time), "time_sec")
        kind = kind.strip().lower()
        for name in unused.get(kind, ()):
            if value := {"u": u, "v": v, "cost": cost}[name].strip():
                raise InputError(f"{kind} events leave {name} empty, got {value!r}")
        if kind in ("add", "remove"):
            edge = network.edge(network.resolve_node(u.strip()), network.resolve_node(v.strip()))
            events.append(EditEvent(team, time, kind, edge))
        elif kind == "submit":
            if not cost.strip():
                raise InputError("submit without cost")
            cost = _oracle_read(int, "cost", cost.strip())
            if cost > sys.float_info.max:
                raise InputError(f"submitted cost {reprlib.repr(cost)} is above the largest "
                                 f"float {sys.float_info.max!r}")
            if cost < network.optimal_cost:
                raise InputError(f"submitted cost {reprlib.repr(cost)} below optimal "
                                 f"{reprlib.repr(network.optimal_cost)} "
                                 "(a solution spans all nodes)")
            events.append(SubmitEvent(team, time, cost))
        elif kind == "stop":
            events.append((team, time))
        else:
            raise InputError(f"unknown event kind {kind!r}")
    _oracle_rows(path, ["team", "time_sec", "event", "u", "v", "cost"], row)
    events.sort(key=itemgetter(0))
    return [e for _, team in groupby(events, key=itemgetter(0))
            for e in sorted(team, key=itemgetter(1))]


def oracle_load_test_scores(path):
    scores = []

    def row(team, speaker, pre, post):
        team, speaker = _oracle_read(int, "team", team), _oracle_read(str, "speaker", speaker)
        pre, post = _oracle_read(int, "pre", pre), _oracle_read(int, "post", post)
        _oracle_speaker(speaker, ("A", "B"))
        for name, value in (("pre", pre), ("post", post)):
            if not 0 <= value <= 10:
                raise InputError(f"{name} score {reprlib.repr(value)} outside 0..10")
        scores.append(TestScores(team, speaker, pre, post))
    _oracle_rows(path, ["team", "speaker", "pre", "post"], row)
    return sorted(scores, key=attrgetter("team", "speaker"))


# --- corpus.json events -------------------------------------------------------

_JSON_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _oracle_typed(value, kind, key: str):
    """A corpus.json value of JSON type `kind`: a float is any number, integers
    included, that a float holds, read as a float; a boolean is never a number."""
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is not float and type(value) is kind:
        return value
    raise InputError(f"{key} must be {_JSON_KINDS[kind]}, got {reprlib.repr(value)}")


def oracle_team_events(edits: list[dict], submits: list[dict], network, team: int):
    """The EditEvents and SubmitEvents of one corpus.json team's `edits` and
    `submits` entries, or the first error in load_corpus' order: all edits
    before any submit; within each list, the JSON type of every value, a key at
    a time in the order time, kind, u, v (time, cost), entry by entry; then each
    entry's checks, one entry at a time."""
    names = {node.id: node.name for node in network.nodes}
    declared = {(u, v) for u, v, _ in network.edges}

    def edit(time, kind, u, v):
        if kind not in ("add", "remove"):
            raise InputError(f"unknown edit kind {kind!r}")
        time = _oracle_time(time, "time")
        for node in (u, v):
            if node not in names:
                raise InputError(f"unknown node id {reprlib.repr(node)}")
        edge = (min(u, v), max(u, v))
        if u == v or edge not in declared:
            raise InputError(f"({names[u]},{names[v]}) is not a network edge")
        return EditEvent(team, time, kind, edge)

    def submit(time, cost):
        time = _oracle_time(time, "time")
        if cost > sys.float_info.max:
            raise InputError(f"submitted cost {reprlib.repr(cost)} is above the largest "
                             f"float {sys.float_info.max!r}")
        if cost < network.optimal_cost:
            raise InputError(f"submitted cost {reprlib.repr(cost)} below optimal "
                             f"{reprlib.repr(network.optimal_cost)} (a solution spans all nodes)")
        return SubmitEvent(team, time, cost)

    records = []
    for entries, keys, check in ((edits, {"time": float, "kind": str, "u": int, "v": int}, edit),
                                 (submits, {"time": float, "cost": int}, submit)):
        values = [[_oracle_typed(entry[key], kind, key) for entry in entries]
                  for key, kind in keys.items()]
        records.append([check(*entry) for entry in zip(*values)])
    return records


# --- tables -------------------------------------------------------------------

def oracle_csv(rows) -> bytes:
    """The bytes that csv.writer with the line terminator CR LF writes for `rows`,
    with each row's CR LF as LF; a CR LF inside a quoted cell stays."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    lines = []
    for row in rows:
        writer.writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")
        buffer.seek(0)
        buffer.truncate()
    return "".join(lines).encode()


def _oracle_spelled(verb, u, v) -> str:
    """An instruction as the annotated corpus spells it: `Add(u,v)`, `?` for no v."""
    return f"{verb}({u},{'?' if v is None else v})"


def oracle_annotated_rows(stream, network, clear_on_verdict=False):
    """The cells after `team` of each `annotated_corpus.csv` row of one team's
    action `stream`, as csv.reader reads them back, one row per event.

    By the README's rules: a says row holds its speaker (I for the robot),
    `says`, the utterance text, its time, turn and attempt, the instructions
    that `oracle_instructions` recognizes in an interlocutor's utterance (none
    in the robot's), spelled and joined by spaces, then `-` and two empty
    cells. An edit row holds its actor, `adds` or `removes`, its edge's node
    names as network.json spells them, `u-v`, its time, turn and attempt, an
    empty instructions cell, then `oracle_verdicts`' verdict, the matched
    instruction spelled and the interlocutor who gave it, both empty for
    Nonmatch. Times are written by repr, counters as integers.
    """
    name = {node.id: node.name for node in network.nodes}
    verdicts = iter(oracle_verdicts(stream, network, clear_on_verdict))
    rows = []
    for action in stream:
        cells = [repr(action.time), str(action.turn), str(action.attempt)]
        if action.verb == "says":
            utterance = action.utterance
            instructions = [] if action.subject is None else oracle_instructions(
                utterance.tokens, network.node_names)
            rows.append([utterance.speaker, "says", utterance.text, *cells,
                         " ".join(_oracle_spelled(*i) for i in instructions), "-", "", ""])
        else:
            verdict, actor, instruction = next(verdicts)
            u, v = action.edge
            matched = ["", ""] if instruction is None else [_oracle_spelled(*instruction[:3]),
                                                            instruction[3]]
            rows.append([actor, action.verb, f"{name[u]}-{name[v]}", *cells, "", verdict,
                         *matched])
    return rows
