"""Ingestion, tokenization, and action-stream bookkeeping."""

from __future__ import annotations

import codecs
import copy
import csv
import io
import json
import math
import pickle
import random
import re
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from align import corpus as corpus_module
from align.corpus import (
    MAX_TIME,
    MIN_DURATION,
    SPEAKERS,
    Corpus,
    EditEvent,
    InputError,
    Network,
    NetworkNode,
    SubmitEvent,
    TeamCorpus,
    UtteranceRow,
    assemble_corpus,
    build_action_stream,
    check_teams,
    load_corpus,
    load_event_log,
    load_network,
    load_test_scores,
    load_transcript,
    number_utterances,
    relative_time,
    save_corpus,
    tokenize,
    write_json,
)
from _builders import (DATA, make_edits, make_submits, make_team, network, strict_json,
                       times_mapped, valid_corpora, write_random_raw_files)
from _oracles import (oracle_csv, oracle_load_event_log, oracle_load_test_scores,
                      oracle_load_transcript, oracle_team_events)


# --- tokenize ---------------------------------------------------------------

def test_tokenize_strips_case_and_terminal_punctuation():
    assert tokenize("Mount Zurich to Mount Bern.") == ["mount", "zurich", "to", "mount", "bern"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_fragments_and_fillers():
    assert tokenize("Mount Neuchat- um Mount Interlaken") == \
        ["mount", "neuchat-", "um", "mount", "interlaken"]


def test_tokenize_drops_standalone_punctuation():
    assert tokenize("what about Mount Davos to Mount , Saint Gallen ?") == \
        ["what", "about", "mount", "davos", "to", "mount", "saint", "gallen"]


def test_tokenize_keeps_word_internal_apostrophes():
    assert tokenize("isn't it connected?") == ["isn't", "it", "connected"]


# --- network ----------------------------------------------------------------

def test_network_fixture_shape():
    net = network()
    assert len(net.nodes) == 10
    assert len(net.edges) == 20
    assert all(u < v for u, v, _ in net.edges)


def test_network_optimal_cost_matches_networkx():
    import networkx as nx

    net = network()
    g = nx.Graph()
    for u, v, cost in net.edges:
        g.add_edge(u, v, weight=cost)
    expected = sum(d["weight"] for _, _, d in nx.minimum_spanning_tree(g).edges(data=True))
    assert net.optimal_cost == expected == 12


def test_network_rejects_unknown_edge_endpoint(tmp_path):
    data = json.loads((DATA / "network.json").read_text())
    data["edges"][0]["u"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InputError):
        load_network(path)


@pytest.mark.parametrize("edge, message", [
    ((1, 2, 10**400), "edge (1,2) cost 100000000000000000...0000000000000000000 is above the "
                      "largest float 1.7976931348623157e+308"),
    ((2, 1, 1), "edge (2,1) not in canonical u < v order"),
])
def test_network_built_directly_rejects_bad_edges(edge, message):
    nodes = tuple(NetworkNode(id=i, name=f"node{i}", label="", x=0.0, y=0.0) for i in (1, 2))
    with pytest.raises(InputError) as excinfo:
        Network(nodes=nodes, edges=(edge,))
    assert str(excinfo.value) == message


def test_network_is_checked_when_built_immutable_and_equal_by_value():
    nodes = tuple(NetworkNode(id=i, name=f"node{i}", label="", x=0.0, y=0.0) for i in (1, 2, 3))
    net = Network(nodes, ((1, 2, 4), (2, 3, 5)))
    assert (net.optimal_cost, net.id_to_name[3]) == (9, "node3")
    assert net.edge_of == {(1, 2): (1, 2), (2, 1): (1, 2), (2, 3): (2, 3), (3, 2): (2, 3)}
    assert net == Network(nodes=tuple(nodes), edges=((1, 2, 4), (2, 3, 5)))
    assert hash(net) == hash(Network(nodes, ((1, 2, 4), (2, 3, 5))))
    assert net != Network(nodes, ((1, 2, 4), (2, 3, 6))) and net != (nodes, net.edges)
    for name in ("nodes", "edges", "optimal_cost", "edge_of", "extra"):
        with pytest.raises(AttributeError):
            setattr(net, name, None)
        with pytest.raises(AttributeError):
            delattr(net, name)
    assert net.optimal_cost == 9 and not hasattr(net, "extra")
    assert copy.deepcopy(net) == pickle.loads(pickle.dumps(net)) == net
    with pytest.raises(InputError, match="^network is not connected"):
        Network(nodes, ((1, 2, 4),))
    with pytest.raises(InputError, match="^duplicate node names after case-folding$"):
        Network((*nodes, nodes[0]._replace(id=4, name="NODE1")), ((1, 2, 4), (2, 3, 5)))


def test_network_rejects_duplicate_names(tmp_path):
    data = json.loads((DATA / "network.json").read_text())
    data["nodes"][1]["name"] = "luzern"  # case-folded duplicate of node 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InputError):
        load_network(path)


# --- transcripts ------------------------------------------------------------

def test_load_transcript_sorts_rows_by_team_then_time():
    rows = load_transcript(DATA / "transcripts.csv")
    assert rows == sorted(rows, key=lambda r: (r.team, r.start, r.end))
    assert all(type(row) is UtteranceRow for row in rows)


def test_team_corpus_numbers_tokens_in_time_order():
    team = _load_fixture_corpus().teams[0]
    assert [u.start for u in team.utterances] == sorted(u.start for u in team.utterances)
    offset = 0
    for u in team.utterances:
        assert u.global_token_offset == offset
        offset += len(u.tokens)


def test_team_corpus_tokenizes_rows():
    team10 = next(tc for tc in _load_fixture_corpus().teams if tc.team == 10)
    first_human = next(u for u in team10.utterances if u.is_human)
    assert first_human.tokens == ("maybe", "we", "start", "from", "mount", "zermatt")


def test_load_transcript_accepts_robot_speaker():
    rows = load_transcript(DATA / "transcripts.csv")
    assert any(row.speaker == "I" for row in rows)
    robot = [u for tc in _load_fixture_corpus().teams for u in tc.utterances if u.speaker == "I"]
    assert robot and not robot[0].is_human


def test_load_transcript_rejects_bad_speaker(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("team,speaker,start_sec,end_sec,utterance\n1,C,0,1,hello\n")
    with pytest.raises(InputError, match="line 2"):
        load_transcript(path)


def test_load_transcript_rejects_malformed_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("team,speaker,start_sec,end_sec,utterance\n1,A,zero,1,hello\n")
    with pytest.raises(InputError, match="line 2"):
        load_transcript(path)


def test_load_transcript_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("team,speaker,start_sec,end_sec,utterance\n")
    assert load_transcript(path) == []


def test_global_offsets_cumulative(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "team,speaker,start_sec,end_sec,utterance\n"
        "1,A,0,1,one two three\n"
        "1,B,2,3,four five\n"
    )
    team = TeamCorpus(1, tuple(load_transcript(path)), (), ())
    assert [u.global_token_offset for u in team.utterances] == [0, 3]


# --- event log --------------------------------------------------------------

def test_load_event_log_parses_and_canonicalizes():
    events = load_event_log(DATA / "events.csv", network())
    edits = [e for e in events if type(e) is EditEvent]
    submits = [s for s in events if type(s) is SubmitEvent]
    team10 = [e for e in edits if e.team == 10]
    assert team10[0].edge == (4, 7)  # Gallen,Davos written in either order
    assert all(e.edge[0] < e.edge[1] for e in edits)
    assert {s.cost for s in submits if s.team == 10} == {12, 14}


def test_load_event_log_rejects_unknown_node(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("team,time_sec,event,u,v,cost\n7,100.0,add,Basel,Atlantis,\n")
    with pytest.raises(InputError, match="unknown node"):
        load_event_log(path, network())


def test_load_event_log_rejects_non_network_edge(tmp_path):
    # Montreux-Davos is not one of the 20 edges
    path = tmp_path / "e.csv"
    path.write_text("team,time_sec,event,u,v,cost\n7,1.0,add,Montreux,Davos,\n")
    with pytest.raises(InputError, match="not a network edge"):
        load_event_log(path, network())


def test_load_event_log_rejects_submit_without_cost(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("team,time_sec,event,u,v,cost\n7,1.0,submit,,,\n")
    with pytest.raises(InputError, match="submit without cost"):
        load_event_log(path, network())


def test_load_event_log_rejects_below_optimal_cost(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("team,time_sec,event,u,v,cost\n7,1.0,submit,,,5\n")
    with pytest.raises(InputError, match="below optimal"):
        load_event_log(path, network())


def test_load_event_log_stop_records():
    events = load_event_log(DATA / "events.csv", network())
    assert (20, 20.0) in events
    assert events == sorted(events, key=lambda event: event[:2])


@pytest.mark.parametrize("order", [("stop", "submit", "add"), ("add", "stop", "submit"),
                                   ("submit", "add", "stop")])
def test_load_event_log_keeps_one_team_and_time_in_file_order(tmp_path, order):
    """A stop, a submit and an add of one team at one time come back in file order,
    after an earlier event of that team written below them and before a later one
    written above them."""
    net = network()
    rows = {"stop": "7,5.0,stop,,,", "submit": f"7,5.0,submit,,,{net.optimal_cost}",
            "add": "7,5.0,add,Zurich,Bern,"}
    path = tmp_path / "e.csv"
    path.write_text("\n".join(["team,time_sec,event,u,v,cost", "7,9.0,remove,Bern,Zurich,",
                               *map(rows.get, order), "7,-0.0,stop,,,"]) + "\n")
    records = {"stop": (7, 5.0), "submit": SubmitEvent(7, 5.0, net.optimal_cost),
               "add": EditEvent(7, 5.0, "add", (8, 9))}
    expected = [(7, 0.0), *map(records.get, order), EditEvent(7, 9.0, "remove", (8, 9))]
    assert repr(load_event_log(path, net)) == repr(expected)  # the stop at -0.0 reads as 0.0


@pytest.mark.parametrize("row, message", [
    ("7,1e10,stop,,,", "time_sec 10000000000.0 is above 1000000000.0"),
    ("7,-0.5,stop,,,", "time_sec -0.5 is negative; times count from the task's start at 0"),
    ("7,3.0,stop,,,12", "stop events leave cost empty, got '12'"),
    ("7,3.0,Stop,,Bern,", "stop events leave v empty, got 'Bern'"),
    ("7,3.0,submit,Bern,,12", "submit events leave u empty, got 'Bern'"),
    ("7,3.0,submit,,,11", "submitted cost 11 below optimal 12 (a solution spans all nodes)"),
    ("7,3.0,add,Zurich,Bern,3", "add events leave cost empty, got '3'"),
    ("7,3.0,remove,Zurich,zurich,", "(Zurich,Zurich) is not a network edge"),
    ("7,3.0,jump,,,", "unknown event kind 'jump'"),
], ids=["stop-late", "stop-negative", "stop-cost", "stop-v", "submit-u", "submit-below-optimal",
        "add-cost", "remove-one-node", "unknown-kind"])
def test_load_event_log_refuses_a_row_in_a_later_block_with_the_oracles_error(
        tmp_path, monkeypatch, row, message):
    """A bad row after two blocks of valid rows raises the oracle's error, naming its line."""
    monkeypatch.setattr(corpus_module, "_BLOCK", 2)
    path = tmp_path / "e.csv"
    valid = ["7,1.0,add,Zurich,Bern,", "7,2.0,stop,,,", "7,2.0,submit,,,12",
             "7,2.5,remove,Bern,Zurich,"]
    path.write_text("\n".join(["team,time_sec,event,u,v,cost", *valid, row, *valid]) + "\n")
    with pytest.raises(InputError) as excinfo:
        load_event_log(path, network())
    assert str(excinfo.value) == f"{path}: line 6: {message}"
    with pytest.raises(InputError, match="^" + re.escape(str(excinfo.value)) + "$"):
        oracle_load_event_log(path, network())


# --- test scores ------------------------------------------------------------

def test_load_test_scores():
    scores = load_test_scores(DATA / "tests.csv")
    by_key = {(s.team, s.speaker): (s.pre, s.post) for s in scores}
    assert by_key[(10, "A")] == (6, 8)


def test_load_test_scores_rejects_out_of_range(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("team,speaker,pre,post\n1,A,11,5\n")
    with pytest.raises(InputError, match="outside 0..10"):
        load_test_scores(path)


# --- raw CSV loaders: records and first errors -------------------------------

@pytest.mark.parametrize("name, load", [
    ("transcripts.csv", load_transcript),
    ("events.csv", lambda path: load_event_log(path, network())),
    ("tests.csv", load_test_scores)])
def test_raw_loaders_read_a_leading_byte_order_mark(tmp_path, name, load):
    # Excel's "CSV UTF-8" opens the file with one
    path = tmp_path / name
    path.write_bytes(codecs.BOM_UTF8 + (DATA / name).read_bytes())
    assert load(path) == load(DATA / name)


def test_a_byte_order_mark_after_the_first_character_is_data(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("team,speaker,start_sec,end_sec,utterance\n"
                    "1,A,0,1,\ufeffhello\n", encoding="utf-8")
    assert [row.text for row in load_transcript(path)] == ["\ufeffhello"]
    path.write_text("\ufeff\ufeffteam,speaker,start_sec,end_sec,utterance\n", encoding="utf-8")
    with pytest.raises(InputError, match="^.*: expected header team,speaker,start_sec,end_sec,"
                                         "utterance, got \ufeffteam,"):
        load_transcript(path)


def test_not_utf8_after_a_byte_order_mark_names_its_line(tmp_path):
    # the bad byte opens its line: a count that is 3 bytes short would miss a line
    path = tmp_path / "t.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"team,speaker,start_sec,end_sec,utterance\n"
                     b"1,A,0,1,ok\n\xff,A,2,3,x\n")
    with pytest.raises(InputError) as excinfo:
        load_transcript(path)
    assert str(excinfo.value) == f"{path}: line 3: not UTF-8 (invalid start byte)"


def _transcript_lines(rows: int) -> list[bytes]:
    """The lines of a valid transcript of `rows` rows, each about 30 bytes."""
    return [b"team,speaker,start_sec,end_sec,utterance\n"] + [
        b"%d,A,%d,%d.5,bern to zurich uh\n" % (i // 50, i, i) for i in range(rows)]


def test_a_late_non_utf8_byte_wins_over_a_wrong_header(tmp_path):
    """The file is decoded whole before its header is checked, as the row-at-a-time
    oracle does: a bad byte on the last of 2,000 rows, past the first 8 KB that a
    text file decodes, is the error, not the wrong header before it."""
    path = tmp_path / "t.csv"
    lines = _transcript_lines(2_000)
    lines[0] = lines[0].replace(b"start_sec", b"start")
    path.write_bytes(b"".join(lines) + b"1,A,0,1,\xff\n")
    assert len(b"".join(lines)) > 8192
    with pytest.raises(InputError) as excinfo:
        load_transcript(path)
    assert str(excinfo.value) == f"{path}: line 2002: not UTF-8 (invalid start byte)"
    with pytest.raises(InputError, match="^" + re.escape(str(excinfo.value)) + "$"):
        oracle_load_transcript(path)


@pytest.mark.parametrize("block", [1, 3, corpus_module._BLOCK])
def test_a_non_utf8_byte_in_a_later_block_names_its_line(tmp_path, monkeypatch, block):
    """A file whose one fault is a bad byte in a later block of rows, far past the
    first 8 KB, raises the oracle's error, naming the byte's line."""
    monkeypatch.setattr(corpus_module, "_BLOCK", block)
    path = tmp_path / "t.csv"
    lines = _transcript_lines(5_000)
    lines[4_500] = lines[4_500].replace(b"uh", b"\xe9h")  # a Latin-1 byte, not UTF-8
    path.write_bytes(b"".join(lines))
    with pytest.raises(InputError) as excinfo:
        load_transcript(path)
    assert str(excinfo.value) == f"{path}: line 4501: not UTF-8 (invalid continuation byte)"
    with pytest.raises(InputError, match="^" + re.escape(str(excinfo.value)) + "$"):
        oracle_load_transcript(path)


def _csv_line(fields: list[str], end: str) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator=end).writerow(fields)
    return out.getvalue()


_FIELD_LIMIT = csv.field_size_limit()
_text = st.text(st.sampled_from('ab ,"\n\r\ufeffé'), max_size=6)
_seconds = st.floats(0, 100).map(repr) | st.sampled_from(["0", "-0.0", " 7 ", "1e2"])
_teams = st.sampled_from(["1", "2", " 3", "-4", "10"])
# times above the bound of 1e9 s: the next float after it, and two far beyond
_ABOVE_BOUND = [math.nextafter(1e9, math.inf), 1e16, 1.7e308]


@st.composite
def _transcript_row(draw):
    start = draw(_seconds)
    end = repr(float(start) + draw(st.floats(0, 10)))
    return [draw(_teams), draw(st.sampled_from(["A", "B", "I", " A", "B "])), start,
            draw(st.sampled_from([end, start])), draw(_text)]


@st.composite
def _event_row(draw):
    net = network()
    kind = draw(st.sampled_from(["add", "remove", "submit", "stop", "ADD", " Submit"]))
    u = v = cost = ""
    if kind.strip().lower() in ("add", "remove"):
        a, b, _ = draw(st.sampled_from(net.edges))
        u, v = draw(st.permutations([net.id_to_name[a], net.id_to_name[b].upper()]))
    elif kind.strip().lower() == "submit":
        cost = str(net.optimal_cost + draw(st.integers(0, 3)))
    return [draw(_teams), draw(_seconds), kind, u, v, cost]


_score = st.integers(0, 10).map(str)
_score_row = st.tuples(_teams, st.sampled_from(["A", "B", " B"]), _score, _score).map(list)

# per raw file: header, a valid row, and the bad values of each column
_RAW_FILES = {
    "transcripts": (["team", "speaker", "start_sec", "end_sec", "utterance"], _transcript_row(), [
        ["x", "1.5", "", "nan"], ["C", "a", ""],
        ["nan", "inf", "-inf", "abc", "-1.0", "1e999", *map(repr, _ABOVE_BOUND)],
        ["-2.5", "-0.0", "inf", "x", *map(repr, _ABOVE_BOUND)], []]),
    "events": (["team", "time_sec", "event", "u", "v", "cost"], _event_row(), [
        ["x", ""], ["nan", "-1.0", "x", "-Infinity", *map(repr, _ABOVE_BOUND)], ["jump", ""],
        ["Atlantis", "", "Montreux"], ["Atlantis", "", "Davos"],
        ["5", "12.5", "", "1" + "0" * 400, " 14 "]]),
    "tests": (["team", "speaker", "pre", "post"], _score_row, [
        ["x"], ["I", "C"], ["11", "-1", "6.5"], ["11", "-1", ""]]),
}


def _row_kind(kind: str, fields: list[str]) -> str:
    """A valid row's kind: utterance, score, or an event's edit, submit or stop."""
    if kind != "events":
        return {"transcripts": "utterance", "tests": "score"}[kind]
    event = fields[2].strip().lower()
    return "edit" if event in ("add", "remove") else event


@st.composite
def _raw_csv(draw, kind: str) -> str:
    """A raw CSV file of `kind` with zero to three corrupted fields or lines,
    blank lines, quoted newlines and either line ending. A fault's row is drawn
    by its kind first (an events file's edits, submits and stops), so that a kind
    with few rows, such as a stop, is faulted as often as the others. Half the
    files have one fault: a lone fault must be caught by the column-at-a-time
    checks themselves, where a second one may send the file to the row-at-a-time
    path."""
    header, row, bad = _RAW_FILES[kind]
    rows = draw(st.lists(row, max_size=8))
    by_kind = {}  # row kind -> the indices of its rows
    for i, fields in enumerate(rows):
        by_kind.setdefault(_row_kind(kind, fields), []).append(i)
    raw = {}  # row index -> a line written as it is
    i = 0
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3])) if rows else 0):
        if draw(st.booleans()):  # else a second error in the same row
            i = draw(st.sampled_from(by_kind[draw(st.sampled_from(sorted(by_kind)))]))
        column = draw(st.integers(0, min(len(rows[i]), len(header)) - 1))
        how = draw(st.sampled_from(["value"] * 4 + ["drop", "add", "limit", "cr", "nul"]))
        if how == "value" and bad[column]:
            rows[i][column] = draw(st.sampled_from(bad[column]))
        elif how == "drop":
            del rows[i][-1]
        elif how == "add":
            rows[i].append("extra")
        elif how == "limit":
            rows[i][column] = "x" * (_FIELD_LIMIT + 1)
        elif how == "cr":
            raw[i] = "1,\rA,0,1\n"  # a bare carriage return ends a line outside quotes
        elif how == "nul":  # Python 3.10's csv module refuses it, and cannot write it
            raw[i] = ",".join(rows[i][:-1] + ["a\x00b"]) + "\n"
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [_csv_line(header, end)] + [raw.get(i) or _csv_line(fields, end)
                                        for i, fields in enumerate(rows)]
    for at in draw(st.lists(st.integers(1, len(lines)), max_size=2)):
        lines.insert(at, end)
    return "".join(lines)


_LOADERS = {
    "transcripts": (load_transcript, oracle_load_transcript),
    "events": (lambda path: load_event_log(path, network()),
               lambda path: oracle_load_event_log(path, network())),
    "tests": (load_test_scores, oracle_load_test_scores),
}


@pytest.mark.parametrize("block", [1, 3, corpus_module._BLOCK])
@pytest.mark.parametrize("kind", _RAW_FILES)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_property_raw_loaders_equal_the_row_at_a_time_oracle(kind, block, data):
    """Each raw loader returns the records of the oracle, which reads and checks
    one row at a time, or raises its first error, message and line alike, whatever
    the rows that _read_csv parses at a time: with blocks of 1 and 3 rows, faults,
    blank lines and quoted newlines fall in later blocks and at their edges."""
    text = data.draw(_raw_csv(kind))
    load, oracle = _LOADERS[kind]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "_BLOCK", block)
        path = Path(tmp) / f"{kind}.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = oracle(path)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                load(path)
            assert str(got.value) == str(exc)
        else:  # and alike in repr: a -0.0 that reads as 0.0 in one reads so in the other
            assert repr(load(path)) == repr(expected)


@st.composite
def _faulty_team_rows(draw, key: str) -> list[list]:
    """Valid rows of one team's utterances or scores with zero to three value
    faults: a speaker outside the allowed set, a negative time, an end (and
    maybe its start) above the bound, a start after its end, or a score
    outside 0..10."""
    if key == "utterances":
        start = st.floats(0, 100) | st.just(-0.0)
        rows = draw(st.lists(st.tuples(st.sampled_from(SPEAKERS), start, st.floats(0, 10),
                                       st.text("ab ,é", max_size=4)), max_size=8))
        rows = [[speaker, start, start + length, text] for speaker, start, length, text in rows]
        faults = {"speaker": st.sampled_from(["C", "a", "", "AB"]),
                  "negative": st.floats(-100, -1e-3), "after": st.floats(1e-3, 10),
                  "above": st.sampled_from(_ABOVE_BOUND)}
    else:
        rows = [[speaker, draw(st.integers(0, 10)), draw(st.integers(0, 10))]
                for speaker in draw(st.permutations(["A", "B"]))]
        faults = {"speaker": st.sampled_from(["C", "I", "a"]),
                  "pre": st.sampled_from([-1, 11, 100]), "post": st.sampled_from([-1, 11, 100])}
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(sorted(faults)))
        value = draw(faults[fault])
        if fault == "after":  # the start moves past the end
            row[1] = row[2] + value
        elif fault == "above":  # the end, and the start with it or not
            row[2] = value
            row[1] = value if draw(st.booleans()) else row[1]
        else:
            row[{"speaker": 0, "negative": 1, "pre": 1, "post": 2}[fault]] = value
    return rows


# per kind: the CSV header, the corpus.json keys, the oracle, and the loaded team's records
_TEAM_KINDS = {
    "utterances": (["team", "speaker", "start_sec", "end_sec", "utterance"],
                   ["speaker", "start", "end", "text"], oracle_load_transcript,
                   attrgetter("utterance_rows")),
    "scores": (["team", "speaker", "pre", "post"], ["speaker", "pre", "post"],
               oracle_load_test_scores,
               lambda team: tuple(sorted(team.scores, key=attrgetter("speaker")))),
}


def _same_rows_as_csv_and_as_a_team(rows: list[list], key: str, tmp: Path) -> tuple[Path, Path]:
    """`rows` of team 10 written as a raw CSV file and as team 10's `key` in the
    fixture corpus's corpus.json: the CSV path and the corpus directory."""
    header, keys = _TEAM_KINDS[key][:2]
    csv_path = tmp / f"{key}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header] + [[10, *row] for row in rows])
    data = json.loads(save_corpus(_load_fixture_corpus(), tmp / "corpus").read_text())
    team = next(entry for entry in data["teams"] if entry["team"] == 10)
    team[key] = [dict(zip(keys, row)) for row in rows]
    (tmp / "corpus" / "corpus.json").write_text(json.dumps(data))
    return csv_path, tmp / "corpus"


@pytest.mark.parametrize("key", _TEAM_KINDS)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_property_load_corpus_raises_the_first_error_of_the_row_at_a_time_oracle(key, data):
    """The same rows as a raw CSV file and as a corpus.json team: load_corpus
    raises the oracle's first error, naming the team where the oracle names the
    line, or reads the oracle's records."""
    *_, oracle, records = _TEAM_KINDS[key]
    rows = data.draw(_faulty_team_rows(key))
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, corpus_dir = _same_rows_as_csv_and_as_a_team(rows, key, Path(tmp))
        try:
            expected = oracle(csv_path)
        except InputError as exc:
            message = str(exc).split(": ", 2)[2]  # after "<path>: line <n>: "
            with pytest.raises(InputError) as got:
                load_corpus(corpus_dir)
            assert str(got.value) == f"{corpus_dir / 'corpus.json'}: team 10: {message}"
        else:
            team = next(tc for tc in load_corpus(corpus_dir).teams if tc.team == 10)
            assert records(team) == tuple(expected)


# per key of an edit or submit entry: values of another JSON type, or out of a float's range
_WRONG_TYPES = {"time": ["12.5", True, None, [1.0], 10**400],
                "kind": [1, None, ["add"]],
                "u": [1.0, "1", True, None], "v": [2.0, "2", False],
                "cost": [12.0, "12", True, None]}


@st.composite
def _faulty_team_events(draw) -> tuple[list[dict], list[dict]]:
    """Valid corpus.json entries of one team's edits and (at least one) submits,
    with zero to three faults: a time below 0, above the bound or -0.0, an unknown
    kind, an unknown node id, a self-loop, a pair of nodes that is no network
    edge, u > v, a cost below the optimum or above the float maximum, or a value
    of the wrong JSON type. -0.0 and u > v are read, as 0.0 and as the edge u < v."""
    net = network()
    edges = [(u, v) for u, v, _ in net.edges]
    times = st.floats(0, 100)
    edits = [{"time": draw(times), "kind": draw(st.sampled_from(["add", "remove"])),
              "u": u, "v": v} for u, v in draw(st.lists(st.sampled_from(edges), max_size=8))]
    submits = [{"time": draw(times), "cost": draw(st.integers(net.optimal_cost, 40))}
               for _ in range(draw(st.integers(1, 3)))]
    non_edges = [(u, v) for u in range(1, 11) for v in range(u + 1, 11) if (u, v) not in edges]
    faults = {"negative": st.floats(-100, -1e-3), "above": st.sampled_from(_ABOVE_BOUND),
              "minus zero": st.just(-0.0), "kind": st.sampled_from(["Add", "stop", "", "adds"]),
              "node": st.sampled_from([0, 11, -1, 10**30]), "self-loop": st.integers(1, 10),
              "non-edge": st.sampled_from(non_edges), "u > v": st.just(None),
              "below": st.sampled_from([-5, 0, net.optimal_cost - 1]),
              "huge": st.sampled_from([_FLOAT_MAX + 2**971, 10**400]), "type": st.just(None)}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(sorted(faults)))
        if fault in ("below", "huge"):
            entries = submits
        elif fault in ("kind", "node", "self-loop", "non-edge", "u > v"):
            entries = edits
        else:
            entries = draw(st.sampled_from([edits, submits]))
        if not entries:
            continue
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        value = draw(faults[fault])
        if fault in ("negative", "above", "minus zero"):
            entry["time"] = value
        elif fault == "kind":
            entry["kind"] = value
        elif fault == "node":
            entry[draw(st.sampled_from("uv"))] = value
        elif fault == "self-loop":
            entry["u"] = entry["v"] = value
        elif fault == "non-edge":
            entry["u"], entry["v"] = value
        elif fault == "u > v":
            entry["u"], entry["v"] = entry["v"], entry["u"]
        elif fault in ("below", "huge"):
            entry["cost"] = value
        else:  # a value of the wrong JSON type
            key = draw(st.sampled_from(sorted(entry)))
            entry[key] = draw(st.sampled_from(_WRONG_TYPES[key]))
    return edits, submits


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_faulty_team_events())
def test_property_load_corpus_reads_edits_and_submits_as_the_entry_at_a_time_oracle(events):
    """A corpus.json team's edits and submits: load_corpus reads the oracle's records,
    with -0.0 read as 0.0, or raises the oracle's first error naming the team."""
    edits, submits = events
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = Path(tmp) / "corpus"
        data = json.loads(save_corpus(_load_fixture_corpus(), corpus_dir).read_text())
        team = next(entry for entry in data["teams"] if entry["team"] == 10)
        # a stop keeps the team's duration above the floor whatever its event times
        team.update(edits=edits, submits=submits, stops=[60.0])
        (corpus_dir / "corpus.json").write_text(json.dumps(data))
        try:
            expected = oracle_team_events(edits, submits, network(), 10)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                load_corpus(corpus_dir)
            assert str(got.value) == f"{corpus_dir / 'corpus.json'}: team 10: {exc}"
        else:
            loaded = next(tc for tc in load_corpus(corpus_dir).teams if tc.team == 10)
            assert [list(loaded.edits), list(loaded.submits)] == expected
            assert [math.copysign(1, e.time) for e in (*loaded.edits, *loaded.submits)] == [
                math.copysign(1, e.time) for e in (*expected[0], *expected[1])]


# --- action stream ----------------------------------------------------------

def test_four_edits_two_turns():
    net = network()
    edits = make_edits(1, net, [(10, "add", "Gallen", "Davos"), (20, "add", "Zurich", "Bern"),
                                (30, "add", "Basel", "Bern"), (40, "add", "Luzern", "Zurich")])
    stream = build_action_stream([], edits, [])
    assert [a.turn for a in stream] == [1, 1, 2, 2]


def test_submit_bumps_attempt():
    net = network()
    edits = make_edits(1, net, [(10, "add", "Gallen", "Davos"), (20, "add", "Zurich", "Bern"),
                                (30, "add", "Basel", "Bern")])
    submits = make_submits(1, [(25, 12)])
    stream = build_action_stream([], edits, submits)
    last = stream[-1]
    assert (last.turn, last.attempt) == (2, 2)


def test_utterance_between_second_and_third_edit_gets_turn_two():
    net = network()
    utterances = number_utterances(1, [("A", 25, 26, "hello there")])
    edits = make_edits(1, net, [(10, "add", "Gallen", "Davos"), (20, "add", "Zurich", "Bern"),
                                (30, "add", "Basel", "Bern")])
    stream = build_action_stream(utterances, edits, [])
    says = next(a for a in stream if a.verb == "says")
    assert says.turn == 2


def test_counter_property_random_streams():
    import random

    net = network()
    rng = random.Random(7)
    names = [n.name for n in net.nodes]
    for _ in range(50):
        n_edits = rng.randrange(0, 9)
        n_submits = rng.randrange(0, 4)
        edges = [net.edges[rng.randrange(len(net.edges))] for _ in range(n_edits)]
        edit_rows = []
        t = 0.0
        for u, v, _ in edges:
            t += rng.random() * 5 + 0.1
            kind = rng.choice(["add", "remove"])
            edit_rows.append((t, kind, names[u - 1], names[v - 1]))
        submit_rows = []
        for _ in range(n_submits):
            t += rng.random() * 5 + 0.1
            submit_rows.append((t, 12 + rng.randrange(5)))
        stream = build_action_stream([], make_edits(1, net, edit_rows),
                                     make_submits(1, submit_rows))
        edit_events = [a for a in stream if a.verb != "says"]
        assert len(edit_events) == n_edits
        # k-th edit (1-based) is stamped with turn 1 + (k-1)//2
        assert [a.turn for a in edit_events] == [1 + k // 2 for k in range(n_edits)]
        # attempt never exceeds 1 + number of submits, and edits after the
        # last submit carry exactly that value
        assert all(a.attempt <= 1 + n_submits for a in stream)
        if edit_rows and submit_rows and edit_rows[-1][0] > submit_rows[-1][0]:
            assert edit_events[-1].attempt == 1 + n_submits


def test_edit_actors_alternate_by_turn():
    net = network()
    edits = make_edits(1, net, [(10, "add", "Gallen", "Davos"), (20, "add", "Zurich", "Bern"),
                                (30, "add", "Basel", "Bern"), (40, "add", "Luzern", "Zurich")])
    stream = build_action_stream([], edits, [], first_visual="B")
    assert [a.subject for a in stream] == ["B", "B", "A", "A"]
    stream = build_action_stream([], edits, [], first_visual="A")
    assert [a.subject for a in stream] == ["A", "A", "B", "B"]


def test_robot_says_has_no_subject():
    utterances = number_utterances(1, [("I", 0, 1, "hello children")])
    stream = build_action_stream(utterances, [], [])
    assert stream[0].subject is None


# --- relative time ----------------------------------------------------------

def test_relative_time_endpoints():
    assert relative_time(0, 1200) == 0.0
    assert relative_time(1200, 1200) == 100.0
    assert relative_time(300, 1200) == 25.0


# --- corpus assembly and round-trip ------------------------------------------

def _load_fixture_corpus():
    net = network()
    return assemble_corpus(
        network=net,
        utterances=load_transcript(DATA / "transcripts.csv"),
        events=load_event_log(DATA / "events.csv", net),
        scores=load_test_scores(DATA / "tests.csv"),
    )


def test_corpus_round_trip(tmp_path):
    corpus = _load_fixture_corpus()
    save_corpus(corpus, tmp_path)
    reloaded = load_corpus(tmp_path)
    assert reloaded.network == corpus.network
    for original, restored in zip(corpus.teams, reloaded.teams):
        assert restored.utterances == original.utterances  # tokens and offsets identical
        assert restored.edits == original.edits
        assert restored.submits == original.submits
        assert (restored.stream(restored.utterances)
                == original.stream(original.utterances))  # counters identical
        assert restored.duration == original.duration


@settings(max_examples=100, deadline=None, derandomize=True)
@given(valid_corpora())
def test_property_valid_corpora_round_trip(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        first = save_corpus(corpus, Path(tmp) / "first")
        reloaded = load_corpus(first.parent)
        assert reloaded.network == corpus.network
        assert reloaded.teams == corpus.teams
        for team in reloaded.teams:  # load_corpus keeps the rows in time order
            times = [(u.start, u.end) for u in team.utterance_rows]
            assert times == sorted(times)
        second = save_corpus(reloaded, Path(tmp) / "second")
        assert second.read_bytes() == first.read_bytes()


def _all_runs_in_both_formats(corpus_dir: Path) -> None:
    """`align all` exits 0 in both formats and writes no NaN or Infinity into a JSON
    file, nor into an analysis's CSV table. Each CSV file holds the bytes csv.writer
    writes for the rows csv.reader reads from it, and the annotated corpus has a row
    per utterance and per edit."""
    from align.cli import main
    for fmt in ("csv", "json"):
        out = corpus_dir / fmt
        assert main(["all", "--corpus", str(corpus_dir), "--format", fmt, "--out", str(out)]) == 0
        written = sorted(out.glob("*.json"))
        assert len(written) == 4
        for path in written:
            strict_json(path)
    tables = sorted((corpus_dir / "csv").glob("*.csv"))
    assert len(tables) == 11
    for path in tables:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert path.read_bytes() == oracle_csv(rows), path.name
        if path.name.startswith("h"):  # series names and numbers, all finite
            assert not {cell for row in rows for cell in row} & {"inf", "-inf", "nan"}, path.name
        if path.name == "annotated_corpus.csv":
            teams = load_corpus(corpus_dir).teams
            assert len(rows) == 1 + sum(len(tc.utterance_rows) + len(tc.edits) for tc in teams)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(valid_corpora())
def test_property_valid_corpora_run_end_to_end(corpus):
    """`align all` exits 0 on every corpus load_corpus accepts, in both formats,
    and writes no NaN or Infinity into a JSON file."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = save_corpus(corpus, tmp).parent
        _all_runs_in_both_formats(corpus_dir)


def _write_raw_files(corpus: Corpus, tmp: Path) -> dict[str, Path]:
    """The corpus as the four raw input files, every CSV field quoted."""
    name = corpus.network.id_to_name
    tables = {
        "transcripts": (["team", "speaker", "start_sec", "end_sec", "utterance"],
                        [[tc.team, u.speaker, u.start, u.end, u.text]
                         for tc in corpus.teams for u in tc.utterances]),
        "events": (["team", "time_sec", "event", "u", "v", "cost"],
                   [[tc.team, e.time, e.kind, name[e.edge[0]], name[e.edge[1]], ""]
                    for tc in corpus.teams for e in tc.edits]
                   + [[tc.team, s.time, "submit", "", "", s.cost]
                      for tc in corpus.teams for s in tc.submits]
                   + [[tc.team, time, "stop", "", "", ""]
                      for tc in corpus.teams for time in tc.stops]),
        "tests": (["team", "speaker", "pre", "post"],
                  [[tc.team, s.speaker, s.pre, s.post] for tc in corpus.teams for s in tc.scores]),
    }
    paths = {}
    for kind, (header, rows) in tables.items():
        paths[kind] = tmp / f"{kind}.csv"
        with open(paths[kind], "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow(header)
            writer.writerows(rows)
    paths["network"] = tmp / "network.json"
    paths["network"].write_text(json.dumps({
        "nodes": [node._asdict() for node in corpus.network.nodes],
        "edges": [{"u": u, "v": v, "cost": cost} for u, v, cost in corpus.network.edges]}))
    return paths


@settings(max_examples=100, deadline=None, derandomize=True)
# Python 3.10's csv reader refuses a NUL character (ingest exits 2 naming the line), and a
# lone surrogate has no UTF-8 encoding, so no raw file holds one
@given(valid_corpora(texts=st.text(st.characters(exclude_characters="\x00",
                                                 exclude_categories=("Cs",)), max_size=30)))
def test_property_valid_raw_files_run_end_to_end(corpus):
    """`align ingest` reads the raw files of every valid corpus back as that
    corpus, and `align all` exits 0 on it in both formats, writing no NaN or
    Infinity into a JSON file."""
    from align.cli import main
    by_time = attrgetter("time")
    first_visual = corpus.teams[0].first_visual
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_raw_files(corpus, Path(tmp))
        corpus_dir = Path(tmp) / "corpus"
        assert main(["ingest", "--transcripts", str(paths["transcripts"]),
                     "--events", str(paths["events"]), "--network", str(paths["network"]),
                     "--tests", str(paths["tests"]), "--first-visual", first_visual,
                     "--out", str(corpus_dir)]) == 0
        ingested = load_corpus(corpus_dir)
        assert ingested.network == corpus.network
        # the raw loaders sort each event kind by time and the scores by speaker
        assert ingested.teams == tuple(tc._replace(
            edits=tuple(sorted(tc.edits, key=by_time)),
            submits=tuple(sorted(tc.submits, key=by_time)), stops=tuple(sorted(tc.stops)),
            scores=tuple(sorted(tc.scores, key=attrgetter("speaker"))),
            first_visual=first_visual) for tc in corpus.teams)
        _all_runs_in_both_formats(corpus_dir)


def _at_the_bounds(corpus: Corpus) -> Corpus:
    """The corpus with its last utterance ending at MAX_TIME and its shortest team
    lasting MIN_DURATION: its normalized times reach 1e14."""
    last_end = max(row.end for tc in corpus.teams for row in tc.utterance_rows)
    shortest = min(tc.duration for tc in corpus.teams)
    return times_mapped(corpus, lambda t: t / last_end * MAX_TIME,
                         lambda t: t / shortest * MIN_DURATION)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(valid_corpora(max_time=MAX_TIME))
@example(_at_the_bounds(_load_fixture_corpus())).via("the fixture at both bounds")
def test_property_corpora_at_the_time_bounds_run_end_to_end(corpus):
    """Times drawn up to MAX_TIME and submits from MIN_DURATION on, so that a
    normalized time reaches 1e14: `align all` exits 0 in both formats, with strict
    JSON and no inf or nan cell in an analysis's CSV table."""
    with tempfile.TemporaryDirectory() as tmp:
        _all_runs_in_both_formats(save_corpus(corpus, tmp).parent)


# the fixture with its transcript times scaled by 1e7 (every time at most 4.9e8 s)
# and its event times by 1e-300: team 10 lasts 5.5e-299 s, and 100 * t / duration
# would overflow
_PROBE = times_mapped(_load_fixture_corpus(), lambda t: t * 1e7, lambda t: t * 1e-300)
_PROBE_REFUSED = ("team 10 has duration 5.5e-299; its last event must come at least 0.001 s "
                  "after time 0")


def test_ingest_refuses_a_near_zero_duration_naming_the_events_file(tmp_path, capsys):
    from align.cli import main
    paths = _write_raw_files(_PROBE, tmp_path)
    assert main(["ingest", "--transcripts", str(paths["transcripts"]),
                 "--events", str(paths["events"]), "--network", str(paths["network"]),
                 "--tests", str(paths["tests"]), "--out", str(tmp_path / "corpus")]) == 2
    assert capsys.readouterr().err == f"error: {paths['events']}: {_PROBE_REFUSED}\n"
    assert not (tmp_path / "corpus").exists()


def test_all_refuses_a_near_zero_duration_naming_corpus_json(tmp_path, capsys):
    from align.cli import main
    path = save_corpus(_PROBE, tmp_path / "corpus")
    out = tmp_path / "out"
    assert main(["all", "--corpus", str(path.parent), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {_PROBE_REFUSED}\n"
    assert not out.exists()


def test_load_corpus_reads_negative_zero_times_as_zero(tmp_path):
    path = save_corpus(_load_fixture_corpus(), tmp_path / "saved")
    data = json.loads(path.read_text())
    team = data["teams"][0]
    edit, submit = team["edits"][0], team["submits"][0]
    team["utterances"].append({"speaker": "A", "start": -0.0, "end": -0.0, "text": "hi"})
    team["edits"].append({**edit, "time": -0.0})
    team["submits"].append({**submit, "time": -0.0})
    team["stops"].append(-0.0)
    (tmp_path / "edited").mkdir()
    (tmp_path / "edited" / "corpus.json").write_text(json.dumps(data))
    assert "-0.0" not in save_corpus(load_corpus(tmp_path / "edited"),
                                     tmp_path / "resaved").read_text()


def test_load_corpus_reads_utterances_shuffled_within_a_team_as_the_sorted_file(tmp_path):
    """load_corpus sorts each team's utterances by (start, end), so a corpus.json
    that holds them in another order gives the same utterances, and `align all`
    writes the same bytes, as the file that `align ingest` wrote."""
    from align.cli import main
    paths = write_random_raw_files(random.Random(3), tmp_path)
    ingested, shuffled = tmp_path / "ingested", tmp_path / "shuffled"
    assert main(["ingest", "--transcripts", str(paths["transcripts"]),
                 "--events", str(paths["events"]), "--network", str(paths["network"]),
                 "--tests", str(paths["tests"]), "--out", str(ingested)]) == 0
    data = json.loads((ingested / "corpus.json").read_text())
    rng = random.Random(4)
    for team in data["teams"]:
        rows = list(team["utterances"])
        while len(rows) > 1 and team["utterances"] == rows:
            rng.shuffle(team["utterances"])
    shuffled.mkdir()
    (shuffled / "corpus.json").write_text(json.dumps(data))
    assert ([tc.utterances for tc in load_corpus(shuffled).teams]
            == [tc.utterances for tc in load_corpus(ingested).teams])
    for corpus_dir in (ingested, shuffled):
        assert main(["all", "--corpus", str(corpus_dir), "--out", str(corpus_dir / "all")]) == 0
    written = sorted((ingested / "all").iterdir())
    assert len(written) > 10
    for path in written:
        assert path.read_bytes() == (shuffled / "all" / path.name).read_bytes(), path.name


# --- the JSON writer ---------------------------------------------------------

# Text that json.dumps escapes: quotes, backslashes, control characters,
# non-ASCII characters in and beyond the BMP, and lone surrogates.
_json_text = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\U0001f600", "\ud800", "\udfff"]),
    max_size=8)
_json_scalars = (st.none() | st.booleans() | st.integers(-2**200, 2**200)
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7])
                 | _json_text)


def _containers(children, max_size: int):
    return (st.lists(children, max_size=max_size) | st.lists(children, max_size=max_size).map(tuple)
            | st.dictionaries(_json_text, children, max_size=max_size))


_json_values = st.recursive(_json_scalars, lambda children: _containers(children, 4),
                            max_leaves=20)
# write_json splits the two outer container levels into pieces: there, up to 8 items
_json_documents = _json_values | _containers(
    _json_values | _containers(_json_scalars | _containers(_json_scalars, 4), 8), 8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_json_documents)
def test_property_write_json_writes_what_json_dumps_writes(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(Path(tmp) / "value.json", value)
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("nest", [lambda v: v, lambda v: [1, {"a": "b", "z": [v]}],
                                  lambda v: ({"x": v},)])
def test_write_json_refuses_non_finite_floats_with_the_stdlib_message(tmp_path, bad, nest):
    value = nest(bad)
    with pytest.raises(ValueError) as stdlib:
        json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    path = tmp_path / "value.json"
    with pytest.raises(InputError) as excinfo:
        write_json(path, value)
    assert str(excinfo.value) == f"{path}: {stdlib.value}"
    assert str(stdlib.value).endswith(repr(bad))
    assert not path.exists()


@st.composite
def _series_holding_non_finite_floats(draw) -> dict:
    """{series: {team: values}}, as h*.json nests its series, whose values are
    lists, tuples or dicts of scalars, with one or more of nan, inf and -inf
    placed at random positions and under random keys."""
    document = draw(st.dictionaries(_json_text, st.dictionaries(
        _json_text, _containers(_json_scalars, 6), min_size=1, max_size=4), min_size=1,
        max_size=4))
    for _ in range(draw(st.integers(1, 4))):
        by_team = document[draw(st.sampled_from(sorted(document)))]
        team = draw(st.sampled_from(sorted(by_team)))
        values, bad = by_team[team], draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if type(values) is dict:
            values[draw(_json_text)] = bad
        else:
            index = draw(st.integers(0, len(values)))
            by_team[team] = type(values)([*values[:index], bad, *values[index:]])
    return document


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_series_holding_non_finite_floats())
def test_property_write_json_refuses_non_finite_floats_with_the_stdlib_message(document):
    """write_json raises json.dumps' message, which names the first non-finite
    value in sorted-key order, and writes no file."""
    with pytest.raises(ValueError) as stdlib:
        json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    assert str(stdlib.value).endswith(("nan", "inf"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h11.json"
        with pytest.raises(InputError) as excinfo:
            write_json(path, document)
        assert str(excinfo.value) == f"{path}: {stdlib.value}"
        assert not path.exists()


@pytest.mark.parametrize("value", [{1, 2}, Path("corpus.json"), [0, {"a": frozenset()}]],
                         ids=["set", "Path", "nested frozenset"])
def test_write_json_refuses_what_is_not_a_json_type(tmp_path, value):
    with pytest.raises(TypeError) as stdlib:
        json.dumps(value, indent=2, sort_keys=True)
    path = tmp_path / "value.json"
    with pytest.raises(TypeError) as excinfo:
        write_json(path, value)
    assert str(excinfo.value) == str(stdlib.value)
    assert not path.exists()


@pytest.mark.parametrize("value", [
    {"a": [1, 2], "b": [3, math.nan]},  # refused in the second level's last piece
    {"a": [1, 2], "b": [{"c": [math.inf]}]},  # refused below the split
    {1, 2},  # the document is not a JSON type
    [[1, 2], {3}],  # nor is the top level's last item
], ids=["NaN at the second level", "infinity below it", "set", "set at the top level"])
def test_write_json_encodes_everything_before_it_opens_the_file(tmp_path, value):
    """A refused value leaves an existing file's bytes as they were."""
    path = tmp_path / "value.json"
    path.write_bytes(b"old bytes\n")
    with pytest.raises((InputError, TypeError)) as excinfo:
        write_json(path, value)
    if excinfo.type is InputError:
        assert str(excinfo.value).startswith(f"{path}: Out of range float values")
    assert path.read_bytes() == b"old bytes\n"


def test_save_corpus_holds_about_one_copy_of_the_text(tmp_path):
    """Writing corpus.json allocates at most 1.5 times its size above what the
    built corpus holds: the text is never joined into one string or encoded at once."""
    net = network()
    words = "bern to zurich uh oh mount luzern basel gallen".split()
    teams = tuple(make_team(team, net, [
        ("AB"[i % 2], float(i), i + 0.5, " ".join(words[(team + i + k) % len(words)]
                                                  for k in range(i % 7 + 1)))
        for i in range(120)], submit_rows=[(200.0, net.optimal_cost)]) for team in range(60))
    corpus = Corpus(network=net, teams=teams)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        path = save_corpus(corpus, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 500_000
    assert peak <= 1.5 * size, f"peak {peak} bytes for a {size}-byte corpus.json"


def test_load_transcript_peaks_below_1_6_times_the_rows_it_returns(tmp_path):
    """Reading a valid transcript peaks at most 1.6 times the memory of the rows
    it returns: the file is read a block of rows at a time, with no copy of its
    text nor a list of every row's fields (1.4 times here; 2.4 times when the
    decoded text and every row's fields were held at once)."""
    words = "bern to zurich uh oh mount luzern basel gallen".split()
    path = tmp_path / "transcripts.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["team", "speaker", "start_sec", "end_sec", "utterance"])
        writer.writerows([team, "AB"[i % 2], float(i), i + 0.5,
                          " ".join(words[(team + i + k) % len(words)] for k in range(i % 7 + 1))]
                         for team in range(80) for i in range(180))
    assert path.stat().st_size >= 500_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = load_transcript(path)
        kept, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(rows) == 80 * 180
    assert peak <= 1.6 * kept, f"peak {peak} bytes for {kept} bytes of rows"


# --- corpus.json --------------------------------------------------------------

def _entries(records, keys: str) -> list[dict]:
    return [{key: getattr(record, key) for key in keys.split()} for record in records]


def _dumped(corpus: Corpus) -> bytes:
    """The corpus.json of `corpus` as json.dumps(indent=2, sort_keys=True) writes it."""
    payload = {
        "network": {"nodes": _entries(corpus.network.nodes, "id name label x y"),
                    "edges": [{"u": u, "v": v, "cost": cost}
                              for u, v, cost in corpus.network.edges]},
        "teams": [{"team": tc.team, "first_visual": tc.first_visual, "stops": list(tc.stops),
                   "utterances": _entries(tc.utterance_rows, "speaker start end text"),
                   "edits": [{"time": e.time, "kind": e.kind, "u": e.edge[0], "v": e.edge[1]}
                             for e in tc.edits],
                   "submits": _entries(tc.submits, "time cost"),
                   "scores": _entries(tc.scores, "speaker pre post")}
                  for tc in corpus.teams],
    }
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


_FLOAT_MAX = int(sys.float_info.max)
_stored_floats = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([-0.0, 5e-324, 1e16, sys.float_info.max]))
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _stored_corpora(draw):
    """A corpus as a library caller may assemble it, unchecked: any text, floats at
    the edges of their range, times that may be ints, costs up to the float maximum,
    teams that may have no records of a kind; in half of them, non-finite floats."""
    from align.corpus import TestScores  # imported here so pytest does not collect it
    floats = _stored_floats if draw(st.booleans()) else _stored_floats | _non_finite
    times = floats | st.integers(0, 10**6)
    costs = st.integers(1, _FLOAT_MAX) | st.just(_FLOAT_MAX)
    size = draw(st.integers(2, 4))
    network = Network(
        nodes=tuple(NetworkNode(i, f"node{i}", draw(_json_text), draw(floats), draw(floats))
                    for i in range(1, size + 1)),
        edges=tuple((i, i + 1, draw(costs)) for i in range(1, size)))

    def some(record):
        return tuple(record() for _ in range(draw(st.integers(0, 3))))
    teams = tuple(TeamCorpus(
        team=team,
        utterance_rows=some(lambda: UtteranceRow(team, draw(_json_text), draw(times),
                                                 draw(times), draw(_json_text))),
        edits=some(lambda: EditEvent(team, draw(times), draw(_json_text),
                                     draw(st.sampled_from(network.edges))[:2])),
        submits=some(lambda: SubmitEvent(team, draw(times), draw(costs))),
        stops=some(lambda: draw(times)),
        scores=some(lambda: TestScores(team, draw(_json_text), draw(st.integers()),
                                       draw(st.integers()))),
        first_visual=draw(st.sampled_from("AB")),
    ) for team in range(draw(st.integers(0, 3))))
    return Corpus(network=network, teams=teams)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_stored_corpora())
def test_property_save_corpus_writes_what_json_dumps_writes(corpus):
    """save_corpus writes json.dumps' bytes, or raises its first error naming corpus.json."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        try:
            expected = _dumped(corpus)
        except ValueError as stdlib:
            with pytest.raises(InputError) as excinfo:
                save_corpus(corpus, tmp)
            assert str(excinfo.value) == f"{path}: {stdlib}"
            assert not path.exists()
        else:
            assert save_corpus(corpus, tmp).read_bytes() == expected


def _with_value(corpus: Corpus, kind: str, key: str, value) -> Corpus:
    """`corpus` with `key` of the last stored record of `kind` set to `value`: of the
    network's nodes, or of the first team's records. Stops are bare times; a team
    without one gets `value` as its stop."""
    if kind == "nodes":
        nodes = (*corpus.network.nodes[:-1], corpus.network.nodes[-1]._replace(**{key: value}))
        return corpus._replace(network=Network(nodes, corpus.network.edges))
    team, *others = corpus.teams
    field = "utterance_rows" if kind == "utterances" else kind
    records = getattr(team, field)
    last = value if kind == "stops" else records[-1]._replace(**{key: value})
    team = team._replace(**{field: (*records[:-1], last)})
    return corpus._replace(teams=(team, *others))


_FLOAT_COLUMNS = [("utterances", "start"), ("utterances", "end"), ("edits", "time"),
                  ("submits", "time"), ("stops", None), ("nodes", "x"), ("nodes", "y")]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind, key", _FLOAT_COLUMNS)
def test_save_corpus_refuses_a_non_finite_float_in_each_stored_column(tmp_path, kind, key, bad):
    corpus = _with_value(_load_fixture_corpus(), kind, key, bad)
    with pytest.raises(ValueError) as stdlib:
        _dumped(corpus)
    with pytest.raises(InputError) as excinfo:
        save_corpus(corpus, tmp_path)
    assert str(excinfo.value) == f"{tmp_path / 'corpus.json'}: {stdlib.value}"
    assert not (tmp_path / "corpus.json").exists()


@pytest.mark.parametrize("later", [("x", math.nan), ("label", Path("Bern"))])
def test_save_corpus_raises_the_error_json_dumps_meets_first(tmp_path, later):
    # json.dumps meets the first node's y before any value of the second node
    corpus = _load_fixture_corpus()
    first, second, *others = corpus.network.nodes
    nodes = (first._replace(y=math.inf), second._replace(**dict([later])), *others)
    corpus = corpus._replace(network=Network(nodes, corpus.network.edges))
    with pytest.raises(ValueError, match="inf$") as stdlib:
        _dumped(corpus)
    with pytest.raises(InputError) as excinfo:
        save_corpus(corpus, tmp_path)
    assert str(excinfo.value) == f"{tmp_path / 'corpus.json'}: {stdlib.value}"


@pytest.mark.parametrize("kind, key, value", [
    ("utterances", "start", Decimal("1.5")), ("edits", "time", Decimal("2")),
    ("utterances", "text", Path("mount bern")), ("nodes", "label", Path("Bern"))])
def test_save_corpus_refuses_a_value_of_no_json_type(tmp_path, kind, key, value):
    corpus = _with_value(_load_fixture_corpus(), kind, key, value)
    with pytest.raises(TypeError) as stdlib:
        _dumped(corpus)
    with pytest.raises(TypeError) as excinfo:
        save_corpus(corpus, tmp_path)
    assert str(excinfo.value) == str(stdlib.value)
    assert not (tmp_path / "corpus.json").exists()


@pytest.mark.parametrize("scores, message", [
    ((("A", 5, 5),), "team 4 has no test scores for speaker B"),
    ((("A", 5, 5), ("B", 5, 5), ("B", 6, 6)), "team 4 has 2 test-score rows for speaker B"),
])
def test_check_teams_rejects_a_team_without_one_score_row_per_speaker(scores, message):
    # a library caller's assembled corpus meets the rule that `align ingest` applies
    net = network()
    team = make_team(4, net, utterance_rows=[("A", 1.0, 2.0, "hello")],
                     submit_rows=[(3.0, 12)], scores=scores)
    with pytest.raises(InputError, match=f"^scores.csv: {message}$"):
        check_teams(Corpus(network=net, teams=(team,)), teams_file="transcripts.csv",
                    scores_file="scores.csv", events_file="events.csv")


def test_duration_prefers_events_and_stops():
    duration = {tc.team: tc.duration for tc in _load_fixture_corpus().teams}
    assert duration[10] == 55.0  # final submit
    assert duration[20] == 20.0  # stop record


def test_token_numbering_is_bijection():
    corpus = _load_fixture_corpus()
    for team in corpus.teams:
        positions = []
        for u in team.utterances:
            positions.extend(range(u.global_token_offset, u.global_token_offset + len(u.tokens)))
        assert positions == list(range(len(positions)))
