"""Shared construction helpers for the test suite."""

from __future__ import annotations

import csv
import json
from pathlib import Path

from hypothesis import strategies as st

from align.corpus import (
    MAX_TIME,
    MIN_DURATION,
    SPEAKERS,
    Corpus,
    EditEvent,
    Network,
    NetworkNode,
    SubmitEvent,
    TeamCorpus,
    UtteranceRow,
    load_network,
    number_utterances,
)
from align.report import ANALYSES, HypothesisReport, Pipeline

DATA = Path(__file__).parent / "data"


def strict_json(path: Path):
    """The JSON in `path`; NaN and Infinity raise a ValueError naming the file."""
    def reject(token: str):
        raise ValueError(f"{path.name}: {token} is not a JSON number")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def network() -> Network:
    return load_network(DATA / "network.json")


def analysis_report(pipeline: Pipeline, hypothesis: str, **options) -> HypothesisReport:
    """One analysis's report after a pass of its own over the teams: the step that
    `align all` runs, given `options` as `align analyze` passes them."""
    step = ANALYSES[hypothesis](pipeline, **options)
    pipeline.run(step)
    return step.report()


def make_edits(team: int, net: Network, rows: list[tuple[float, str, str, str]]) -> list[EditEvent]:
    """rows: (time, kind, node_name_u, node_name_v)."""
    edits = []
    for time, kind, u, v in rows:
        edge = net.edge(net.resolve_node(u), net.resolve_node(v))
        edits.append(EditEvent(team=team, time=time, kind=kind, edge=edge))
    return edits


def make_submits(team: int, rows: list[tuple[float, int]]) -> list[SubmitEvent]:
    return [SubmitEvent(team=team, time=t, cost=c) for t, c in rows]


def utterance_rows_of(team: int, rows) -> tuple[UtteranceRow, ...]:
    """A team's (speaker, start, end, text) rows as TeamCorpus holds them, in (start, end) order."""
    return tuple(sorted((UtteranceRow(team, *row) for row in rows), key=lambda r: (r.start, r.end)))


def times_mapped(corpus: Corpus, said, logged) -> Corpus:
    """The corpus with `said` applied to every utterance start and end, and `logged`
    to every edit, submit and stop time."""
    return corpus._replace(teams=tuple(tc._replace(
        utterance_rows=tuple(row._replace(start=said(row.start), end=said(row.end))
                             for row in tc.utterance_rows),
        edits=tuple(edit._replace(time=logged(edit.time)) for edit in tc.edits),
        submits=tuple(submit._replace(time=logged(submit.time)) for submit in tc.submits),
        stops=tuple(map(logged, tc.stops))) for tc in corpus.teams))


def make_team(
    team: int,
    net: Network,
    utterance_rows: list[tuple[str, float, float, str]],
    edit_rows: list[tuple[float, str, str, str]] = (),
    submit_rows: list[tuple[float, int]] = (),
    stops: tuple[float, ...] = (),
    scores: tuple[tuple[str, int, int], ...] = (("A", 5, 5), ("B", 5, 5)),
    first_visual: str = "B",
) -> TeamCorpus:
    from align.corpus import TestScores

    return TeamCorpus(
        team=team,
        utterance_rows=utterance_rows_of(team, utterance_rows),
        edits=tuple(make_edits(team, net, list(edit_rows))),
        submits=tuple(make_submits(team, list(submit_rows))),
        stops=tuple(stops),
        scores=tuple(TestScores(team=team, speaker=s, pre=pre, post=post)
                     for s, pre, post in scores),
        first_visual=first_visual,
    )


_coordinates = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _instructions_before(draw, rows: list[tuple], edits: tuple[EditEvent, ...],
                         first_visual: str) -> list:
    """`rows` with an utterance moved to up to a second before each of some `edits`
    and given to the interlocutor who does not perform that edit, so that the
    instructions it holds are pending when the edit comes."""
    rows = list(rows)
    ranked = sorted(range(len(edits)), key=lambda i: (edits[i].time, i))  # the stream's order
    for rank, i in enumerate(ranked):
        if draw(st.booleans()):  # in turn 1 + rank // 2; first_visual edits in odd turns
            speaker = "B" if (first_visual == "A") == (rank // 2 % 2 == 0) else "A"
            j = draw(st.integers(0, len(rows) - 1))
            start = max(0.0, edits[i].time - draw(st.floats(0, 1)))
            rows[j] = (speaker, start, min(start + (rows[j][2] - rows[j][1]), MAX_TIME), rows[j][3])
    return rows


@st.composite
def valid_corpora(draw, texts=st.text(max_size=30), teams: tuple[int, int] = (1, 3),
                  utterances: tuple[int, int] = (0, 6), max_time: float = 1e6,
                  subnormal: bool = True, instructed_edits: bool = False):
    """A random corpus that passes every load_corpus check. It has `teams[0]` to
    `teams[1]` teams, each with `utterances[0]` to `utterances[1]` utterances
    drawn from `texts`. Utterances start, and events happen, at most `max_time`
    seconds in, and utterances last up to 100 s but end by MAX_TIME; submits come
    from MIN_DURATION on. The times include subnormal floats unless `subnormal`
    is false. With `instructed_edits`, some edits come up to a second after an
    utterance of the interlocutor who does not perform them (see _instructions_before)."""
    from align.corpus import TestScores  # imported here so pytest does not collect it
    times = st.floats(min_value=0, max_value=max_time, allow_subnormal=subnormal)
    size = draw(st.integers(2, 5))
    nodes = tuple(NetworkNode(id=i, name=f"node{i}", label=draw(st.text(max_size=6)),
                              x=draw(_coordinates), y=draw(_coordinates)) for i in range(1, size + 1))
    # a chain keeps the network connected; any other pair may add an edge
    ids = st.integers(1, size)
    pairs = {(i, i + 1) for i in range(1, size)}
    pairs |= {(u, v) for u, v in draw(st.sets(st.tuples(ids, ids), max_size=4)) if u < v}
    network = Network(nodes=nodes, edges=tuple(sorted(
        (u, v, draw(st.integers(1, 9))) for u, v in pairs)))
    team_corpora = []
    for team in sorted(draw(st.sets(st.integers(0, 999), min_size=teams[0], max_size=teams[1]))):
        drawn = draw(st.lists(st.tuples(st.sampled_from(SPEAKERS), times,
                                        st.floats(0, 100, allow_subnormal=subnormal), texts),
                              min_size=utterances[0], max_size=utterances[1]))
        rows = [(speaker, start, min(start + length, MAX_TIME), text)
                for speaker, start, length, text in drawn]
        team_corpus = TeamCorpus(
            team=team,
            utterance_rows=utterance_rows_of(team, rows),
            edits=tuple(EditEvent(team, time, kind, (u, v)) for time, kind, (u, v, _) in draw(
                st.lists(st.tuples(times, st.sampled_from(["add", "remove"]),
                                   st.sampled_from(network.edges)), max_size=4))),
            submits=tuple(SubmitEvent(team, time, network.optimal_cost + extra)
                          for time, extra in draw(st.lists(
                              st.tuples(st.floats(MIN_DURATION, max_time), st.integers(0, 5)),
                              min_size=1, max_size=3))),
            stops=tuple(draw(st.lists(times, max_size=2))),
            scores=tuple(TestScores(team, speaker, draw(st.integers(0, 10)),
                                    draw(st.integers(0, 10))) for speaker in ("B", "A")),
            first_visual=draw(st.sampled_from("AB")),
        )
        if instructed_edits and rows:
            rows = _instructions_before(draw, rows, team_corpus.edits, team_corpus.first_visual)
            team_corpus = team_corpus._replace(utterance_rows=utterance_rows_of(team, rows))
        team_corpora.append(team_corpus)
    return Corpus(network=network, teams=tuple(team_corpora))


MICRO_VOCAB = ("bern", "zurich", "mount", "to", "uh", "oh")


def random_micro_dialogue(rng, team: int = 1, max_utterances: int = 8,
                          max_tokens: int = 6, vocab=MICRO_VOCAB):
    """Random two-speaker dialogue within the oracle-tractable size bounds."""
    n = rng.randrange(1, max_utterances + 1)
    rows = []
    for i in range(n):
        speaker = rng.choice("AB")
        k = rng.randrange(1, max_tokens + 1)
        text = " ".join(rng.choice(vocab) for _ in range(k))
        rows.append((speaker, float(i), i + 0.5, text))
    return number_utterances(team, rows)


def random_phrase_dialogue(rng, utterances: int = 12):
    """Dialogue that reuses long phrases and self-overlapping runs like "a a a a"."""
    phrases = [tuple(rng.choice(MICRO_VOCAB) for _ in range(rng.randrange(4, 9)))
               for _ in range(3)]
    rows = []
    for i in range(utterances):
        tokens = []
        for _ in range(rng.randrange(1, 4)):
            piece = rng.random()
            if piece < 0.5:
                tokens += rng.choice(phrases)
            elif piece < 0.7:
                tokens += [rng.choice(MICRO_VOCAB)] * rng.randrange(3, 7)
            else:
                tokens.append(rng.choice(MICRO_VOCAB))
        rows.append((rng.choice("AAB" if i % 2 else "ABB"), float(i), i + 0.5, " ".join(tokens)))
    return number_utterances(1, rows)


def write_fixture_inputs(tmp: Path) -> dict[str, Path]:
    """Copy the CSV/JSON fixtures into tmp and return their paths."""
    paths = {}
    for name in ("network.json", "transcripts.csv", "events.csv", "tests.csv"):
        target = tmp / name
        target.write_bytes((DATA / name).read_bytes())
        paths[name.split(".")[0]] = target
    return paths


def write_random_raw_files(rng, directory: Path) -> dict[str, Path]:
    """The four raw input files of a small random corpus on the fixture network,
    written into `directory`: four teams whose dialogue holds node names, verbs
    and markers, edits that add absent edges and remove present ones, and one or
    two submits per team."""
    net = network()
    words = [node.name for node in net.nodes] + "add remove to and uh um oh yes no".split()
    rows = {"transcripts": [["team", "speaker", "start_sec", "end_sec", "utterance"]],
            "events": [["team", "time_sec", "event", "u", "v", "cost"]],
            "tests": [["team", "speaker", "pre", "post"]]}
    for team in sorted(rng.sample(range(1, 100), 4)):
        time, built = 0.0, set()
        for _ in range(rng.randrange(8, 25)):
            length = rng.choice([0.5, 1.0, rng.uniform(0.2, 4)])  # equal lengths tie
            text = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 8)))
            rows["transcripts"].append([team, rng.choice("AABBI"), time, time + length, text])
            if rng.random() < 0.6:
                u, v, _ = rng.choice(net.edges)
                kind = "remove" if (u, v) in built else "add"
                built ^= {(u, v)}
                rows["events"].append([team, time + length, kind, net.id_to_name[u],
                                       net.id_to_name[v], ""])
            time += length + rng.choice([0.0, rng.uniform(0, 2)])
        for submit in sorted(rng.uniform(1, time + 1) for _ in range(rng.randrange(1, 3))):
            rows["events"].append([team, submit, "submit", "", "", net.optimal_cost
                                   + rng.randrange(0, 6)])
        for speaker in "AB":
            rows["tests"].append([team, speaker, rng.randrange(0, 11), rng.randrange(0, 11)])
    paths = {"network": directory / "network.json"}
    paths["network"].write_bytes((DATA / "network.json").read_bytes())
    for name, table in rows.items():
        paths[name] = directory / f"{name}.csv"
        with open(paths[name], "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(table)
    return paths
