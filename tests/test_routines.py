"""Routine mining: examples, brute-force oracle equivalence, invariants."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from align.corpus import number_utterances
from align.routines import (
    RoutineEvent,
    extract_routines,
    filter_task_routines,
    token_events,
)
from _builders import MICRO_VOCAB, network, random_micro_dialogue, random_phrase_dialogue
from _oracles import oracle_routines


def _dialogue(rows):
    return number_utterances(1, rows)


# --- examples -----------------------------------------------------------------

def test_full_repeat_yields_only_the_maximal_routine():
    utterances = _dialogue([
        ("A", 0.0, 1.0, "mount zurich to mount bern"),
        ("B", 2.0, 3.0, "mount zurich to mount bern"),
    ])
    routines = extract_routines(utterances)
    assert [r.expression for r in routines] == [("mount", "zurich", "to", "mount", "bern")]
    routine = routines[0]
    assert routine.initiator == "A"
    assert routine.priming.utterance_index == 0
    assert routine.establishment.utterance_index == 1
    assert routine.establishment.time == 3.0


def test_shared_single_token_is_a_routine():
    utterances = _dialogue([
        ("A", 0.0, 1.0, "mount bern"),
        ("B", 2.0, 3.0, "mount davos"),
    ])
    routines = extract_routines(utterances)
    assert [r.expression for r in routines] == [("mount",)]
    assert routines[0].initiator == "A"


def test_single_speaker_yields_nothing():
    utterances = _dialogue([
        ("A", 0.0, 1.0, "mount bern"),
        ("A", 2.0, 3.0, "mount bern again"),
    ])
    assert extract_routines(utterances) == []


def test_robot_speech_is_ignored():
    utterances = _dialogue([
        ("I", 0.0, 1.0, "mount bern"),
        ("A", 2.0, 3.0, "mount bern"),
        ("B", 4.0, 5.0, "mount bern"),
    ])
    routines = extract_routines(utterances)
    assert [r.expression for r in routines] == [("mount", "bern")]
    assert routines[0].priming.utterance_index == 1  # robot priming doesn't count


def test_expression_only_inside_a_longer_shared_one_is_a_routine_once_said_alone():
    shared = [
        ("A", 0.0, 1.0, "mount zurich to mount bern"),
        ("B", 2.0, 3.0, "mount zurich to mount bern"),
    ]
    # both speakers say "zurich", but only inside the longer shared expression
    assert ("zurich",) not in {r.expression for r in extract_routines(_dialogue(shared))}

    utterances = _dialogue(shared + [("B", 4.0, 5.0, "zurich"), ("A", 6.0, 7.0, "zurich")])
    zurich = {r.expression: r for r in extract_routines(utterances)}[("zurich",)]
    starts = tuple(u.global_token_offset + i for u in utterances
                   for i, token in enumerate(u.tokens) if token == "zurich")
    assert len(starts) == 4
    assert zurich.all_occurrences == starts
    # priming and establishment are the first productions, bound or free
    assert zurich.initiator == "A"
    assert zurich.priming == RoutineEvent(0, starts[0], utterances[0].end)
    assert zurich.establishment == RoutineEvent(1, starts[1], utterances[1].end)


# --- oracle equivalence ---------------------------------------------------------

def _as_comparable(utterances, routines):
    return {
        r.expression: (
            r.initiator,
            (r.priming.utterance_index,
             r.priming.token_position - utterances[r.priming.utterance_index].global_token_offset),
            (r.establishment.utterance_index,
             r.establishment.token_position
             - utterances[r.establishment.utterance_index].global_token_offset),
            r.all_occurrences,
        )
        for r in routines
    }


def _oracle_comparable(utterances):
    """The oracle's routines, each occurrence as its global start position."""
    return {
        gram: (initiator, priming, establishment,
               tuple(utterances[ui].global_token_offset + pos for ui, pos, _, _ in occs))
        for gram, (initiator, priming, establishment, occs) in oracle_routines(utterances).items()
    }


def test_matches_brute_force_oracle_on_random_micro_dialogues():
    rng = random.Random(101)
    for _ in range(200):
        utterances = random_micro_dialogue(rng)
        got = _as_comparable(utterances, extract_routines(utterances))
        assert got == _oracle_comparable(utterances)


def test_matches_brute_force_oracle_on_long_phrase_dialogues():
    rng = random.Random(404)
    longest = 0
    overlapping = False
    for _ in range(40):
        utterances = random_phrase_dialogue(rng, utterances=16)
        routines = extract_routines(utterances)
        assert _as_comparable(utterances, routines) == _oracle_comparable(utterances)
        for r in routines:
            longest = max(longest, len(r.expression))
            # occurrences closer than the expression's length share an utterance
            starts = r.all_occurrences
            overlapping = overlapping or any(
                b - a < len(r.expression) for a, b in zip(starts, starts[1:]))
    # the batch reaches deep levels and overlapping occurrences
    assert longest >= 6
    assert overlapping


_rows = st.lists(
    st.tuples(st.sampled_from("AABBI"),
              st.lists(st.sampled_from(MICRO_VOCAB[:4]), max_size=6).map(" ".join)),
    max_size=8,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rows)
def test_property_matches_oracle_on_small_dialogues(rows):
    utterances = _dialogue([(speaker, float(i), i + 0.5, text)
                            for i, (speaker, text) in enumerate(rows)])
    routines = extract_routines(utterances)
    assert _as_comparable(utterances, routines) == _oracle_comparable(utterances)
    keys = [(r.establishment.time, r.establishment.utterance_index,
             r.establishment.token_position, r.expression) for r in routines]
    assert keys == sorted(keys)
    for r in routines:
        assert list(r.all_occurrences) == sorted(set(r.all_occurrences))


def _routines_repr(hash_seed: str) -> list[str]:
    """repr of the routines of each of 50 seeded random dialogues, mined in
    a fresh interpreter under one hash seed."""
    code = ("import random\n"
            "from align.routines import extract_routines\n"
            "from _builders import random_micro_dialogue, random_phrase_dialogue\n"
            "rng = random.Random(606)\n"
            "dialogues = [random_micro_dialogue(rng) for _ in range(25)]\n"
            "dialogues += [random_phrase_dialogue(rng, utterances=16) for _ in range(25)]\n"
            "for utterances in dialogues:\n"
            "    print(repr(extract_routines(utterances)))")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed})
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout.decode().splitlines()


def test_routines_do_not_depend_on_the_hash_seed():
    first = _routines_repr("1")
    assert len(first) == 50
    assert sum(line.count("Routine(") for line in first) > 100
    # seeds 1 and 2 iterate {"A", "B"} in the same order; seed 3 does not
    for seed in ("2", "3"):
        other = _routines_repr(seed)
        assert len(other) == 50
        assert [i for i, (a, b) in enumerate(zip(first, other)) if a != b] == [], seed


# --- invariants ------------------------------------------------------------------

def test_priming_precedes_establishment():
    rng = random.Random(202)
    for _ in range(100):
        utterances = random_micro_dialogue(rng)
        for r in extract_routines(utterances):
            assert r.priming.utterance_index < r.establishment.utterance_index
            assert r.priming.time < r.establishment.time
            assert r.priming.token_position < r.establishment.token_position


def test_appending_keeps_surviving_event_locations_and_sharedness():
    # Appending can remove a routine outright: new utterances may complete a
    # longer shared expression that covers every previously free occurrence
    # (A:"x y" B:"y x" make [x] routine; adding A:"y x" B:"x y" kills it).
    # What does hold: a surviving routine keeps its priming/establishment,
    # and a removed one lost freeness, never sharedness.
    rng = random.Random(303)
    for _ in range(100):
        utterances = random_micro_dialogue(rng, max_utterances=6)
        before = {r.expression: r for r in extract_routines(utterances)}
        extra = random_micro_dialogue(rng, max_utterances=2)
        offset = (utterances[-1].global_token_offset + len(utterances[-1].tokens)
                  if utterances else 0)
        shift = utterances[-1].end if utterances else 0.0
        appended = utterances + [
            type(u)(team=u.team, speaker=u.speaker, start=u.start + shift + 1,
                    end=u.end + shift + 1, text=u.text, tokens=u.tokens,
                    global_token_offset=u.global_token_offset + offset)
            for u in extra
        ]
        after = {r.expression: r for r in extract_routines(appended)}
        produced_after = {}
        for u in appended:
            if u.is_human:
                for a in range(len(u.tokens)):
                    for b in range(a + 1, len(u.tokens) + 1):
                        produced_after.setdefault(u.tokens[a:b], set()).add(u.speaker)
        for expression, old in before.items():
            if expression in after:
                new = after[expression]
                assert new.priming == old.priming
                assert new.establishment == old.establishment
            else:
                # removal can only happen through lost freeness
                assert len(produced_after[expression]) == 2


def test_refiltering_is_idempotent():
    net = network()
    utterances = _dialogue([
        ("A", 0.0, 1.0, "mount zurich to mount bern"),
        ("B", 2.0, 3.0, "mount zurich to mount bern"),
        ("A", 4.0, 5.0, "what about"),
        ("B", 6.0, 7.0, "what about"),
    ])
    routines = extract_routines(utterances)
    once = filter_task_routines(routines, net)
    assert filter_task_routines(once, net) == once


# --- task filtering -----------------------------------------------------------

def test_filter_keeps_referent_expressions():
    net = network()
    utterances = _dialogue([
        ("A", 0.0, 1.0, "mount zurich to mount bern"),
        ("B", 2.0, 3.0, "mount zurich to mount bern"),
        ("A", 4.0, 5.0, "what about"),
        ("B", 6.0, 7.0, "what about"),
    ])
    routines = extract_routines(utterances)
    expressions = {r.expression for r in routines}
    assert ("mount", "zurich", "to", "mount", "bern") in expressions
    assert ("what", "about") in expressions
    kept = {r.expression for r in filter_task_routines(routines, net)}
    assert ("mount", "zurich", "to", "mount", "bern") in kept
    assert ("what", "about") not in kept


def test_filter_empty_input():
    assert filter_task_routines([], network()) == []


# --- token events ---------------------------------------------------------------

def test_token_events_positions():
    utterances = _dialogue([
        ("A", 0.0, 1.0, "uh mount bern"),
        ("B", 2.0, 3.0, "mount bern"),
    ])
    routines = extract_routines(utterances)
    assert [r.expression for r in routines] == [("mount", "bern")]
    events = token_events(utterances, routines, {"uh", "um"})
    assert events.marker_positions == (0,)
    assert events.priming_positions == (1,)
    assert events.establishment_positions == (3,)


def test_token_events_no_markers():
    utterances = _dialogue([
        ("A", 0.0, 1.0, "mount bern"),
        ("B", 2.0, 3.0, "mount bern"),
    ])
    events = token_events(utterances, extract_routines(utterances), {"uh", "um"})
    assert events.marker_positions == ()


def test_token_events_skip_robot_markers():
    utterances = _dialogue([
        ("I", 0.0, 1.0, "uh hello"),
        ("A", 2.0, 3.0, "uh mount bern"),
        ("B", 4.0, 5.0, "mount bern"),
    ])
    events = token_events(utterances, [], {"uh"})
    assert events.marker_positions == (2,)  # robot "uh" at position 0 skipped
