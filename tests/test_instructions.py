"""Instruction recognition, matching semantics, excerpt golden traces."""

from __future__ import annotations

import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from align.corpus import build_action_stream, number_utterances, tokenize
from align.instructions import (
    ADD_VERBS,
    MATCH,
    MISMATCH,
    NONMATCH,
    REMOVE_VERBS,
    Instruction,
    check_match,
    grouped_records,
    match_instructions_to_actions,
    match_mismatch_times,
    recognise_instructions,
)
from _builders import make_edits, make_submits, network
from _oracles import oracle_instructions, oracle_pending, oracle_verdicts

NET = network()
NAMES = NET.node_names


def _instructions(text):
    return [(i.verb, i.u, i.v) for i in recognise_instructions(tokenize(text), NAMES)]


# --- recognised tokens ------------------------------------------------------------

def test_verb_then_node_is_a_partial_instruction():
    assert _instructions("Go to Mount Basel.") == [("Add", "basel", None)]


def test_node_only_defaults_to_add():
    assert _instructions("maybe we start from mount zermatt") == [("Add", "zermatt", None)]


def test_no_verb_or_node_no_instruction():
    assert _instructions("hello there") == []


def test_remove_lexicon():
    # a verb flushes the draft before it: "cut" ends the instruction on zurich
    assert _instructions("rub away zurich cut") == [("Remove", "zurich", None)]
    for verb in ("rub", "away", "cut"):
        assert _instructions(f"{verb} zurich") == [("Remove", "zurich", None)]


_NODES = sorted(NAMES)
_VERBS = sorted(ADD_VERBS | REMOVE_VERBS)
_OTHER = ["to", "mount", "then", "it", "uh", "oh", "okay"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.sets(st.sampled_from(_VERBS), min_size=1))
def test_property_a_node_named_like_a_verb_is_a_node(data, verb_names):
    names = NAMES | verb_names
    tokens = data.draw(st.lists(st.sampled_from(_VERBS + _NODES + _OTHER), max_size=15))
    tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(st.sampled_from(
        sorted(verb_names))))
    assert [(i.verb, i.u, i.v) for i in recognise_instructions(tokens, names)] == \
        oracle_instructions(tokens, names)


# --- instruction recognition -------------------------------------------------------

def test_partial_instruction_from_trailing_draft():
    assert _instructions("maybe we start from mount zermatt") == [("Add", "zermatt", None)]


def test_full_instruction_with_leading_verb():
    assert _instructions("then do mount bern to mount zermatt") == [("Add", "bern", "zermatt")]


def test_verb_flushes_partial_then_new_instruction():
    assert _instructions("erase mount zurich connect mount bern to mount gallen") == \
        [("Remove", "zurich", None), ("Add", "bern", "gallen")]


def test_leading_remove_verb_is_kept():
    # as printed, the draft would drop a verb with no instruction in progress
    assert _instructions("erase mount zurich") == [("Remove", "zurich", None)]


def test_repeated_node_name_is_ignored():
    assert _instructions("mount bern mount bern") == [("Add", "bern", None)]


def test_second_instruction_defaults_to_previous_verb():
    assert _instructions("erase zurich to bern then gallen to davos") == \
        [("Remove", "zurich", "bern"), ("Remove", "gallen", "davos")]


def test_verb_without_node_yields_nothing():
    assert _instructions("just do it") == []
    assert _instructions("you can't do that") == []


def test_davos_negotiation_line():
    assert _instructions("No lets do Mount Davos to, where do you wanna go?") == \
        [("Add", "davos", None)]


def test_node_before_verb_survives_to_the_flush():
    # the negotiated pair of cached instructions: "oh Mount Davos" then
    # "to Mount Gallen yeah do that" give (davos,?) and (gallen,?)
    assert _instructions("oh Mount Davos") == [("Add", "davos", None)]
    assert _instructions("to Mount Gallen yeah do that.") == [("Add", "gallen", None)]


# --- check_match -----------------------------------------------------------------

def _edit_action(kind, u_name, v_name, subject="B", turn=1, attempt=1, time=1.0):
    edge = NET.edge(NET.resolve_node(u_name), NET.resolve_node(v_name))
    from align.corpus import ActionEvent

    verb = "adds" if kind == "add" else "removes"
    return ActionEvent(subject=subject, verb=verb, time=time, turn=turn,
                       attempt=attempt, edge=edge)


def test_check_match_partial():
    action = _edit_action("add", "Gallen", "Davos")
    assert check_match(Instruction("Add", "gallen"), action, NET)
    assert check_match(Instruction("Add", "davos"), action, NET)
    assert not check_match(Instruction("Add", "zermatt"), action, NET)


def test_check_match_full_requires_both_nodes():
    action = _edit_action("add", "Interlaken", "Bern")
    assert not check_match(Instruction("Add", "bern", "zermatt"), action, NET)
    assert check_match(Instruction("Add", "bern", "interlaken"), action, NET)


def test_check_match_verb_mismatch():
    action = _edit_action("add", "Bern", "Zurich")
    assert not check_match(Instruction("Remove", "bern"), action, NET)


def test_check_match_symmetric_in_edge_orientation():
    first = _edit_action("add", "Gallen", "Davos")
    second = _edit_action("add", "Davos", "Gallen")
    for instr in (Instruction("Add", "gallen"), Instruction("Add", "davos", "gallen")):
        assert check_match(instr, first, NET) == check_match(instr, second, NET)


_times = st.integers(0, 6).map(float)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from("ABI"), _times, st.lists(st.sampled_from(_OTHER),
                                                                    max_size=3))),
       st.lists(st.tuples(_times, st.sampled_from(["add", "remove"]),
                          st.integers(0, len(NET.edges) - 1))),
       st.lists(st.tuples(_times, st.integers(12, 20))),
       st.sampled_from("AB"))
def test_property_the_stream_holds_only_says_and_edits(utterance_rows, edit_rows, submit_rows,
                                                      first_visual):
    # the matcher calls check_match on every event that is not a says event,
    # so each of those must be an edit that carries its edge
    names = {n.id: n.name for n in NET.nodes}
    utterances = number_utterances(1, sorted([(speaker, t, t + 0.5, " ".join(words))
                                              for speaker, t, words in utterance_rows],
                                             key=lambda row: row[1:3]))
    edits = make_edits(1, NET, [(t, kind, names[NET.edges[e][0]], names[NET.edges[e][1]])
                                for t, kind, e in edit_rows])
    stream = build_action_stream(utterances, edits, make_submits(1, submit_rows), first_visual)
    assert {action.verb for action in stream} <= {"says", "adds", "removes"}
    assert [a.utterance for a in stream if a.verb == "says"] == sorted(
        utterances, key=lambda u: u.start)
    assert sorted((a.verb, a.edge) for a in stream if a.verb != "says") == sorted(
        ({"add": "adds", "remove": "removes"}[e.kind], e.edge) for e in edits)


# --- matcher golden traces ---------------------------------------------------------

def _stream(team, utterance_rows, edit_rows, submit_rows=(), first_visual="B"):
    utterances = number_utterances(team, utterance_rows)
    edits = make_edits(team, NET, list(edit_rows))
    submits = make_submits(team, list(submit_rows))
    return build_action_stream(utterances, edits, submits, first_visual)


def test_team10_trace_partial_instructions_then_match():
    stream = _stream(
        10,
        [
            ("A", 1.0, 2.0, "Maybe we start from, Mount Zermatt?"),
            ("B", 3.0, 4.0, "No lets do Mount Davos to, where do you wanna go?"),
            ("A", 5.0, 6.0, "to Mount, St Gallen."),
            ("B", 7.0, 8.0, "Okay."),
        ],
        [(9.0, "add", "Gallen", "Davos")],
        first_visual="B",
    )
    records, annotated = match_instructions_to_actions(stream, NET)

    says_instructions = [[(i.agent, str(i)) for i in a.instructions]
                         for a in annotated if a.action.verb == "says"]
    assert says_instructions == [
        [("A", "Add(zermatt,?)")],
        [("B", "Add(davos,?)")],
        [("A", "Add(gallen,?)")],
        [],  # backchannel leaves the cache untouched
    ]
    assert len(records) == 1
    record = records[0]
    assert record.verdict == MATCH
    assert record.actor == "B"
    assert record.instruction.agent == "A"
    assert str(record.instruction) == "Add(gallen,?)"
    # the satisfied instructions leave the cache; Add(zermatt,?) stays
    assert [str(i) for i in annotated[-1].pending_after] == ["Add(zermatt,?)"]


def test_team17_trace_matches_then_mismatch():
    stream = _stream(
        17,
        [
            ("A", 1.0, 2.0, "go to Mount Basel."),
            ("A", 4.0, 5.0, "Yeah, and then go to Mount Zurich."),
            ("A", 10.0, 11.0, "Then do Mount Bern to Mount Zermatt."),
            ("A", 12.0, 13.0, "Maybe that's better."),
            ("B", 14.0, 15.0, "You can't do that."),
            ("A", 16.0, 17.0, "Oh."),
            ("A", 18.0, 19.0, "Then do ..."),
            ("B", 20.0, 21.0, "Mount Bern to Mount Interlaken?"),
            ("A", 22.0, 23.0, "Yeah."),
            ("A", 24.0, 25.0, "I think that's 4 though."),
        ],
        [
            (3.0, "add", "Basel", "Bern"),      # turn 1, actor B
            (6.0, "add", "Basel", "Zurich"),    # turn 1, actor B
            (7.0, "add", "Zurich", "Bern"),     # turn 2, actor A (bridging edits)
            (8.0, "add", "Zurich", "Gallen"),   # turn 2, actor A
            (26.0, "add", "Interlaken", "Bern"),  # turn 3, actor B
        ],
        first_visual="B",
    )
    records, _ = match_instructions_to_actions(stream, NET)
    key = [(r.verdict, r.actor, str(r.instruction) if r.instruction else None)
           for r in records]
    assert key[0] == (MATCH, "B", "Add(basel,?)")
    assert key[1] == (MATCH, "B", "Add(zurich,?)")
    # B's own matching Add(bern,interlaken) is filtered; the other agent's
    # full instruction wins the mismatch slot
    assert key[4] == (MISMATCH, "B", "Add(bern,zermatt)")
    assert records[4].instruction.agent == "A"


def test_team20_trace_nonmatch_and_mismatch():
    stream = _stream(
        20,
        [
            ("B", 1.0, 2.0, "I'm just gonna ..."),
            ("A", 5.0, 6.0, "what about Mount Gallen?"),
            ("B", 7.0, 8.0, "Oh I think we have to connect all of them."),
        ],
        [
            (3.0, "add", "Luzern", "Zurich"),       # turn 1, actor A (filler edit)
            (4.0, "add", "Luzern", "Zermatt"),      # turn 1, actor A: Nonmatch
            (9.0, "add", "Luzern", "Interlaken"),   # turn 2, actor B: Mismatch
        ],
        first_visual="A",
    )
    records, _ = match_instructions_to_actions(stream, NET)
    assert (records[1].verdict, records[1].actor) == (NONMATCH, "A")
    assert records[1].instruction is None
    assert (records[2].verdict, records[2].actor) == (MISMATCH, "B")
    assert str(records[2].instruction) == "Add(gallen,?)"
    assert records[2].instruction.agent == "A"


def test_team20_full_excerpt_needs_clear_on_verdict():
    """The published excerpt continues Mismatch -> Nonmatch for consecutive
    same-actor edits, which only the cache-clearing variant produces."""
    rows = [
        ("B", 1.0, 2.0, "I'm just gonna ..."),
        ("A", 5.0, 6.0, "what about Mount Gallen?"),
        ("B", 7.0, 8.0, "Oh I think we have to connect all of them."),
    ]
    edits = [
        (3.0, "add", "Luzern", "Zurich"),
        (4.0, "add", "Luzern", "Zermatt"),
        (9.0, "add", "Luzern", "Interlaken"),
        (10.0, "add", "Luzern", "Davos"),
    ]
    stream = _stream(20, rows, edits, first_visual="A")

    records, _ = match_instructions_to_actions(stream, NET, clear_on_verdict=True)
    assert [r.verdict for r in records] == [NONMATCH, NONMATCH, MISMATCH, NONMATCH]

    # default (printed-algorithm) semantics keep the unsatisfied instruction
    records, _ = match_instructions_to_actions(stream, NET)
    assert [r.verdict for r in records] == [NONMATCH, NONMATCH, MISMATCH, MISMATCH]


def test_mismatch_example_trace():
    # "Go to Mount Basel" answered by connecting Interlaken-Bern instead
    stream = _stream(
        8,
        [
            ("B", 1.0, 2.0, "Go to Mount Basel."),
            ("A", 3.0, 4.0, "That's, it's expensive."),
            ("B", 5.0, 6.0, "Just do it."),
            ("A", 7.0, 8.0, "You can't, you can't, I can't because there's a mountain there"),
            ("A", 9.0, 10.0, "So I'm going, so I'm going here."),
        ],
        [(11.0, "add", "Interlaken", "Bern")],
        first_visual="A",
    )
    records, _ = match_instructions_to_actions(stream, NET)
    assert [(r.verdict, r.actor, str(r.instruction)) for r in records] == \
        [(MISMATCH, "A", "Add(basel,?)")]


def test_negotiated_partial_instructions_both_cached():
    stream = _stream(
        10,
        [
            ("A", 1.0, 2.0, "What about Mount um Davos to Mount Gallen?"),
            ("B", 3.0, 4.0, "oh Mount Davos"),
            ("A", 5.0, 6.0, "yeah to Mount Gallen."),
            ("B", 7.0, 8.0, "to Mount Gallen yeah do that."),
        ],
        [(9.0, "add", "Gallen", "Davos")],
        first_visual="A",
    )
    records, annotated = match_instructions_to_actions(stream, NET)
    cached = [str(i) for a in annotated if a.action.verb == "says" for i in a.instructions]
    assert "Add(davos,?)" in cached and "Add(gallen,?)" in cached
    assert records[-1].verdict == MATCH
    assert records[-1].actor == "A"


def test_instruction_cached_after_simultaneous_swap_and_submit_survives():
    # turn and attempt advance together after edit2+submit; the single
    # boundary clear must not repeat on the following actions, or the
    # instruction cached right after the boundary would be lost
    rows = [
        ("B", 5.0, 6.0, "go to mount basel"),   # turn 2, attempt 2
        ("A", 7.0, 8.0, "okay"),                 # same period, no entities
    ]
    edits = [(1.0, "add", "Zurich", "Bern"), (2.0, "add", "Zurich", "Gallen"),
             (9.0, "add", "Basel", "Bern")]
    stream = _stream(31, rows, edits, [(3.0, 12)], first_visual="B")
    boundary_edit = stream[-1]
    assert (boundary_edit.turn, boundary_edit.attempt) == (2, 2)
    records, _ = match_instructions_to_actions(stream, NET)
    assert records[-1].verdict == MATCH
    assert str(records[-1].instruction) == "Add(basel,?)"


def test_robot_speech_is_a_no_op():
    utterances = number_utterances(5, [("I", 1.0, 2.0, "go to mount basel")])
    edits = make_edits(5, NET, [(3.0, "add", "Basel", "Bern")])
    stream = build_action_stream(utterances, edits, [])
    records, annotated = match_instructions_to_actions(stream, NET)
    assert annotated[0].instructions == ()
    assert records[0].verdict == NONMATCH


def test_swap_and_submit_clear_pending():
    rows = [("A", 1.0, 2.0, "go to mount basel")]
    # two edits close the turn; the instruction may not match across the swap
    edits = [(3.0, "add", "Zurich", "Bern"), (4.0, "add", "Zurich", "Gallen"),
             (5.0, "add", "Basel", "Bern")]
    stream = _stream(21, rows, edits, first_visual="B")
    records, _ = match_instructions_to_actions(stream, NET)
    assert [r.verdict for r in records] == [MISMATCH, MISMATCH, NONMATCH]

    # same layout, but a submit (not a swap) separates instruction and action
    rows = [("A", 1.0, 2.0, "go to mount basel")]
    edits = [(5.0, "add", "Basel", "Bern")]
    stream = _stream(22, rows, edits, [(3.0, 12)], first_visual="B")
    records, _ = match_instructions_to_actions(stream, NET)
    assert [r.verdict for r in records] == [NONMATCH]


# --- matcher properties and oracle ---------------------------------------------

_PHRASES = [
    "go to mount basel",
    "erase mount zurich",
    "mount bern to mount interlaken",
    "then do mount bern to mount zermatt",
    "what about mount gallen",
    "okay",
    "oh no",
    "connect mount luzern to mount davos",
    "maybe we start from mount zermatt",
    "take it away from mount neuchatel",
]


def _random_stream(rng):
    team = 1
    utterance_rows = []
    edit_rows = []
    submit_rows = []
    t = 0.0
    for _ in range(rng.randrange(1, 13)):
        t += 1.0
        kind = rng.random()
        if kind < 0.5:
            utterance_rows.append((rng.choice("AB"), t, t + 0.5, rng.choice(_PHRASES)))
        elif kind < 0.85:
            u, v, _ = NET.edges[rng.randrange(len(NET.edges))]
            names = {n.id: n.name for n in NET.nodes}
            edit_rows.append((t, rng.choice(["add", "remove"]), names[u], names[v]))
        else:
            submit_rows.append((t, 12 + rng.randrange(4)))
    utterances = number_utterances(team, utterance_rows)
    edits = make_edits(team, NET, edit_rows)
    submits = make_submits(team, submit_rows)
    return build_action_stream(utterances, edits, submits, rng.choice("AB"))


@pytest.mark.parametrize("clear_on_verdict", [False, True])
def test_matcher_equals_replay_oracle(clear_on_verdict):
    rng = random.Random(404 + clear_on_verdict)
    for _ in range(200):
        stream = _random_stream(rng)
        records, _ = match_instructions_to_actions(stream, NET, clear_on_verdict)
        expected = oracle_verdicts(stream, NET, clear_on_verdict)
        got = [
            (r.verdict, r.actor,
             (r.instruction.verb, r.instruction.u, r.instruction.v, r.instruction.agent)
             if r.instruction else None)
            for r in records
        ]
        assert got == expected
        # every edit yields exactly one record
        assert len(records) == sum(1 for a in stream if a.verb != "says")
        # never against one's own instruction
        assert all(r.instruction.agent != r.actor for r in records if r.instruction)
        # no stale instructions across turn/attempt boundaries
        for r in records:
            says = stream[r.instruction.utterance_index] if r.instruction else None
            if says is not None:
                assert (says.turn, says.attempt) == (r.action.turn, r.action.attempt)


_phrases = st.lists(st.sampled_from(_NODES + _VERBS + _OTHER), max_size=8)


@st.composite
def _long_streams(draw):
    """One team's stream: 110-140 utterances of the two interlocutors, each
    opening with a node name, then an edit, so at least 110 instructions are
    pending at that edit; then a random tail of speech (robot's too), edits
    and submissions."""
    opening = draw(st.lists(st.tuples(st.sampled_from("AB"), st.sampled_from(_NODES), _phrases),
                            min_size=110, max_size=140))
    tail = draw(st.lists(st.one_of(
        st.tuples(st.just("says"), st.sampled_from("ABI"), _phrases),
        st.tuples(st.just("edit"), st.sampled_from(["add", "remove"]),
                  st.integers(0, len(NET.edges) - 1)),
        st.tuples(st.just("submit"), st.integers(12, 20))), max_size=40))
    names = {n.id: n.name for n in NET.nodes}
    utterances = [(speaker, float(t), t + 0.5, " ".join([node, *words]))
                  for t, (speaker, node, words) in enumerate(opening)]
    edits = [(float(len(opening)), draw(st.sampled_from(["add", "remove"])), "Bern", "Zurich")]
    submits = []
    for t, event in enumerate(tail, start=len(opening) + 1):
        if event[0] == "says":
            utterances.append((event[1], float(t), t + 0.5, " ".join(event[2])))
        elif event[0] == "edit":
            u, v, _ = NET.edges[event[2]]
            edits.append((float(t), event[1], names[u], names[v]))
        else:
            submits.append((float(t), event[1]))
    return build_action_stream(number_utterances(1, utterances), make_edits(1, NET, edits),
                               make_submits(1, submits), draw(st.sampled_from("AB")))


# Shrinking 110-180-event streams reruns the matcher and the oracles at every
# step: a failure took about 5 minutes to report with it, seconds without it.
@pytest.mark.parametrize("clear_on_verdict", [False, True])
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(stream=_long_streams())
def test_property_matcher_equals_replay_oracle_on_large_pending_caches(stream, clear_on_verdict):
    records, annotated = match_instructions_to_actions(stream, NET, clear_on_verdict)
    first_edit = next(i for i, action in enumerate(stream) if action.verb != "says")
    assert len(annotated[first_edit - 1].pending_after) > 100
    # the cache after every event, read back once the whole stream is matched
    assert [tuple((i.verb, i.u, i.v, i.agent, i.utterance_index) for i in ann.pending_after)
            for ann in annotated] == oracle_pending(stream, NET, clear_on_verdict)
    got = [(r.verdict, r.actor, (r.instruction.verb, r.instruction.u, r.instruction.v,
                                 r.instruction.agent) if r.instruction else None)
           for r in records]
    assert got == oracle_verdicts(stream, NET, clear_on_verdict)
    for index, (action, ann) in enumerate(zip(stream, annotated)):
        if action.verb == "says" and action.subject is not None:
            assert ann.instructions == tuple(
                Instruction(verb, u, v, action.subject, index)
                for verb, u, v in oracle_instructions(action.utterance.tokens, NAMES))
        else:
            assert ann.instructions == ()


# --- record utilities ---------------------------------------------------------

def test_match_mismatch_times_and_grouping():
    stream = _stream(
        30,
        [("A", 1.0, 2.0, "go to mount basel")],
        [(3.0, "add", "Zurich", "Bern"), (4.0, "add", "Zurich", "Gallen")],
        first_visual="B",
    )
    records, _ = match_instructions_to_actions(stream, NET)
    assert [r.verdict for r in records] == [MISMATCH, MISMATCH]
    assert match_mismatch_times(records, MISMATCH) == [3.0, 4.0]
    assert match_mismatch_times(records, MATCH) == []
    # both mismatches trace to the same instructing utterance: one group
    grouped = grouped_records(records, MISMATCH)
    assert len(grouped) == 1 and grouped[0].time == 3.0
