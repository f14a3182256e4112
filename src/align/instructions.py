"""Rule-based instruction recognition and instruction-to-action matching.

Utterances yield (verb, node, node) edit instructions, possibly partial
(second node unknown). A per-team state machine caches pending instructions,
clears them at every view swap or submission, and labels each edit action
Match, Mismatch, or Nonmatch against the other interlocutor's pending
instructions.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

from .corpus import ActionEvent, Network

ADD_VERBS = frozenset({"add", "build", "connect", "do", "go", "put"})
REMOVE_VERBS = frozenset({"away", "cut", "delete", "erase", "remove", "rub"})

NODE = "Node"
ADD = "Add"
REMOVE = "Remove"

MATCH = "Match"
MISMATCH = "Mismatch"
NONMATCH = "Nonmatch"

_ACTION_VERBS = {"adds": ADD, "removes": REMOVE}


class Instruction(NamedTuple):
    """An inferred edit intent; v is None when only one node was mentioned."""

    verb: str  # ADD or REMOVE
    u: str
    v: str | None = None
    agent: str | None = None
    utterance_index: int | None = None  # stream index of the says event

    @property
    def is_partial(self) -> bool:
        return self.v is None

    def __str__(self) -> str:
        return f"{self.verb}({self.u},{self.v if self.v is not None else '?'})"


# the records of the matcher, made with every field given and no Python call per record
_instruction = partial(tuple.__new__, Instruction)


@lru_cache(maxsize=16)
def _labels(node_names: frozenset[str]) -> dict[str, str]:
    """The label of each recognised token: a node name before an add verb
    before a remove verb."""
    return {**dict.fromkeys(REMOVE_VERBS, REMOVE), **dict.fromkeys(ADD_VERBS, ADD),
            **dict.fromkeys(node_names, NODE)}


def recognise_instructions(
    tokens: list[str] | tuple[str, ...], node_names: frozenset[str],
    agent: str | None = None, utterance_index: int | None = None,
) -> list[Instruction]:
    """Infer the sequence of edit instructions in one utterance, each
    stamped with `agent` and `utterance_index`.

    A draft (verb, u, v) is built left to right over the tokens that
    `_labels` knows. A verb flushes a draft holding a verb and first node as
    a partial instruction and starts over with the new verb; a node gathered
    before any verb survives ("gallen ... do that" still instructs on
    gallen). A node fills u, then v (ignoring a repeated node name),
    completing the instruction; a missing verb defaults to the previous
    instruction's verb, or Add. A draft still holding a node at the end of
    the utterance is flushed as a partial instruction.
    """
    labels = _labels(node_names)
    out: list[Instruction] = []
    verb: str | None = None
    u: str | None = None
    for token in filter(labels.__contains__, tokens):
        if labels[token] != NODE:
            if verb is not None:  # already inferring: flush and restart
                if u is not None:
                    out.append(_instruction((verb, u, None, agent, utterance_index)))
                u = None
            verb = labels[token]
        elif u is None:
            u = token
        elif token != u:
            verb = verb or (out[-1].verb if out else ADD)
            out.append(_instruction((verb, u, token, agent, utterance_index)))
            verb = u = None
    if u is not None:
        verb = verb or (out[-1].verb if out else ADD)
        out.append(_instruction((verb, u, None, agent, utterance_index)))
    return out


def check_match(instruction: Instruction, action: ActionEvent, network: Network) -> bool:
    """True when the edit action (verb adds or removes) realizes the instruction.

    Partial instructions match on their single node; full instructions need
    both nodes, in either edge orientation. Add never matches a removal and
    vice versa.
    """
    if instruction.verb != _ACTION_VERBS[action.verb]:
        return False
    id_by_name = network.name_to_id
    u, v = action.edge
    if instruction.is_partial:
        return id_by_name[instruction.u] in (u, v)
    return {id_by_name[instruction.u], id_by_name[instruction.v]} <= {u, v}


class MatchRecord(NamedTuple):
    """Verdict binding one edit action to a pending instruction (or none)."""

    verdict: str  # MATCH, MISMATCH, or NONMATCH
    action: ActionEvent
    instruction: Instruction | None
    time = property(lambda self: self.action.time)


class AnnotatedAction(NamedTuple):
    """One stream event with its recognized instructions and verdict."""

    action: ActionEvent
    instructions: tuple[Instruction, ...]  # inferred at this says event
    record: MatchRecord | None  # set on edit events
    pending: list[Instruction]  # the matcher's pending list after this event, shared
    pending_size: int  # its length after this event; later says events append past it

    @property
    def pending_after(self) -> tuple[Instruction, ...]:
        """The pending instructions after this event (read by the benchmark's tracer)."""
        return tuple(self.pending[:self.pending_size])


_record = partial(tuple.__new__, MatchRecord)
_annotated = partial(tuple.__new__, AnnotatedAction)


def match_instructions_to_actions(
    stream: list[ActionEvent] | tuple[ActionEvent, ...],
    network: Network,
    clear_on_verdict: bool = False,
) -> tuple[list[MatchRecord], list[AnnotatedAction]]:
    """Run the pending-cache matcher over one team's action stream.

    Pending instructions are cleared whenever the turn or attempt counter
    advances. Says events by the interlocutors append their instructions;
    robot speech is a no-op. Every edit action yields exactly one record:
    Match against the last satisfying other-agent instruction (removing all
    satisfied instructions from the cache), Mismatch against the other
    agent's most recent instruction, or Nonmatch when they have none
    pending. `clear_on_verdict` empties the whole cache after any Match or
    Mismatch instead of removing only the satisfied instructions.
    """
    records: list[MatchRecord] = []
    annotated: list[AnnotatedAction] = []
    # Each AnnotatedAction shares `pending` and records its length. A list,
    # once handed out, is only ever appended to (says events extend it):
    # every edit verdict that removes instructions and every clear binds
    # `pending` to a new list. So the first `pending_size` items of a shared
    # list never change.
    pending: list[Instruction] = []
    turn = 1
    attempt = 1

    for index, action in enumerate(stream):
        if action.turn > turn or action.attempt > attempt:
            pending = []
            turn = action.turn
            attempt = action.attempt

        if action.verb == "says":
            inferred: tuple[Instruction, ...] = ()
            if action.subject is not None:
                inferred = tuple(recognise_instructions(action.utterance.tokens, network.node_names,
                                                        action.subject, index))
                pending.extend(inferred)
            annotated.append(_annotated((action, inferred, None, pending, len(pending))))
            continue

        actor = action.subject
        others = [p for p in pending if p.agent != actor]
        if not others:
            record = _record((NONMATCH, action, None))
        else:
            satisfied = [check_match(p, action, network) for p in pending]
            matched = [p for p, hit in zip(pending, satisfied) if hit and p.agent != actor]
            if matched:  # later matches win
                record = _record((MATCH, action, matched[-1]))
            else:
                record = _record((MISMATCH, action, others[-1]))
            if clear_on_verdict:
                pending = []
            else:
                pending = [p for p, hit in zip(pending, satisfied) if not hit]
        records.append(record)
        annotated.append(_annotated((action, (), record, pending, len(pending))))

    return records, annotated


def match_mismatch_times(records: list[MatchRecord], verdict: str) -> list[float]:
    """Action times of the records with the requested verdict."""
    return [r.time for r in records if r.verdict == verdict]


def grouped_records(records: list[MatchRecord], verdict: str) -> list[MatchRecord]:
    """First record per distinct instructing utterance.

    Collapses repeated verdicts against instructions from the same utterance
    into one event, for utterance-level counts and time series.
    """
    seen: set[int] = set()
    grouped = []
    for record in records:
        if record.verdict != verdict or record.instruction is None:
            continue
        key = record.instruction.utterance_index
        if key in seen:
            continue
        seen.add(key)
        grouped.append(record)
    return grouped
