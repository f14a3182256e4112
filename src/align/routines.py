"""Shared routine expressions: mining, priming/establishment, task filtering.

A routine is a token sequence produced by both interlocutors, at least once
not inside a longer shared expression's occurrence at the same text span.
Priming is its first production; establishment is the first production by
the other interlocutor.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .corpus import Network, Utterance


class RoutineEvent(NamedTuple):
    """Where a routine was primed or established."""

    utterance_index: int
    token_position: int
    time: float  # end time of the containing utterance


class Routine(NamedTuple):
    expression: tuple[str, ...]
    initiator: str
    priming: RoutineEvent
    establishment: RoutineEvent
    # global token position of each occurrence's first token, in document
    # order; read by the benchmark's tracer, no output reads it
    all_occurrences: tuple[int, ...]

    def contains_referent(self, names: frozenset[str]) -> bool:
        """True when the expression holds at least one node name of `names`."""
        return not names.isdisjoint(self.expression)


# the miner's records, made with every field given and no Python call per record
_event = partial(tuple.__new__, RoutineEvent)
_routine = partial(tuple.__new__, Routine)


def extract_routines(utterances: list[Utterance]) -> list[Routine]:
    """Mine every routine expression from one team's utterances.

    Robot speech is skipped; mining is over the two human interlocutors.
    Occurrence enumeration allows overlapping matches, and an expression
    qualifies if any single occurrence is free. Each routine is one record:
    its priming and establishment events and the global start positions of
    its occurrences; no per-occurrence object is built. Output is sorted by
    establishment time.

    Mining is level-wise (Apriori): an (n+1)-gram can be shared only if the
    n-grams starting at its first and second token are both shared, so
    level n+1 extends only those positions. The work grows with the number
    of shared-gram occurrences, not with all O(L^2) spans of an utterance.
    """
    # Every human token in one sequence, in document order; the None after
    # each utterance is never shared, so no gram spans two utterances.
    tokens: list[str | None] = []
    owner: list[int] = []  # utterance index of each sequence position
    position: list[int | None] = []  # global token position
    for ui, utt in enumerate(utterances):
        if utt.is_human and utt.tokens:
            tokens += utt.tokens
            tokens.append(None)
            owner += [ui] * (len(utt.tokens) + 1)
            position += range(utt.global_token_offset, utt.global_token_offset + len(utt.tokens))
            position.append(None)
    sequence = tuple(tokens)
    speaker = [utterances[ui].speaker for ui in owner]

    def shared_grams(frontier: list[int], size: int) -> dict[tuple[str, ...], list[int]]:
        """Group the frontier's start positions by gram; keep grams both speakers produce."""
        grams: dict[tuple[str, ...], list[int]] = {}
        for p in frontier:
            grams.setdefault(sequence[p:p + size], []).append(p)
        return {gram: starts for gram, starts in grams.items()
                if len(starts) > 1 and any(speaker[p] != speaker[starts[0]] for p in starts)}

    def event(p: int) -> RoutineEvent:
        return _event((owner[p], position[p], utterances[owner[p]].end))

    routines = []
    size = 1
    frontier = [p for p, tok in enumerate(sequence) if tok is not None]
    level = shared_grams(frontier, size)
    starts = {p for found in level.values() for p in found}
    while level:
        frontier = [p for p in frontier if p in starts and p + 1 in starts]
        longer = shared_grams(frontier, size + 1)
        longer_starts = {p for found in longer.values() for p in found}
        for gram, found in level.items():
            # an occurrence is inside a longer shared occurrence iff a
            # one-token extension of it is shared; a routine needs one free
            if all(p - 1 in longer_starts or p in longer_starts for p in found):
                continue
            initiator = speaker[found[0]]
            establishment = next(p for p in found if speaker[p] != initiator)
            routines.append(_routine((gram, initiator, event(found[0]), event(establishment),
                                      tuple(map(position.__getitem__, found)))))
        size += 1
        level, starts = longer, longer_starts

    routines.sort(key=lambda r: (r.establishment.time, r.establishment.utterance_index,
                                 r.establishment.token_position, r.expression))
    return routines


def filter_task_routines(routines: list[Routine], network: Network) -> list[Routine]:
    """Keep the routines that contain a referent: the task routines."""
    names = network.node_names
    return [r for r in routines if r.contains_referent(names)]


class TokenEvents(NamedTuple):
    """Global token positions of routine events and marker tokens."""

    priming_positions: tuple[int, ...]
    establishment_positions: tuple[int, ...]
    marker_positions: tuple[int, ...]


def token_events(
    utterances: list[Utterance],
    routines: list[Routine],
    markers: frozenset[str] | set[str],
) -> TokenEvents:
    """Locate priming/establishment first-token positions and marker tokens.

    One priming and one establishment position per routine; one marker
    position per marker token in the two interlocutors' speech.
    """
    marker_positions = []
    for utt in utterances:
        if not utt.is_human:
            continue
        for i, tok in enumerate(utt.tokens):
            if tok in markers:
                marker_positions.append(utt.global_token_offset + i)
    return TokenEvents(
        priming_positions=tuple(sorted(r.priming.token_position for r in routines)),
        establishment_positions=tuple(sorted(r.establishment.token_position for r in routines)),
        marker_positions=tuple(sorted(marker_positions)),
    )
