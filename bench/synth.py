"""Seeded synthetic corpus generator for the align benchmark (stdlib only).

Writes the four input files `align ingest` reads: transcripts.csv,
events.csv, network.json and tests.csv. The same seed and shape give
byte-identical files.

Utterance lengths are drawn once per team as a fixed set of quantiles of a
clipped lognormal and then shuffled by the seed, so every seed gives the same
token count and the same number of candidate n-grams; only the words, their
order and the event timeline change. That keeps the work per run nearly
independent of the seed.

Usage: python3 bench/synth.py --workload dialogue-long --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import random
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path

NODE_NAMES = (
    "basel", "bern", "chur", "davos", "gallen", "genf", "lausanne", "luzern",
    "lugano", "olten", "sion", "thun", "zug", "zurich", "biel", "aarau",
)
# the recognizer's verb lexicon, reserved so pseudo-words never act as verbs
ADD_VERBS = ("add", "build", "connect", "do", "go", "put")
REMOVE_VERBS = ("away", "cut", "delete", "erase", "remove", "rub")
FILLERS = ("uh", "um")
OH = "oh"
ROBOT_LINES = (
    "hello i would like you to help me build the network",
    "you can swap views now",
    "please submit when you are ready",
    "well done",
)
NODES = 10  # nodes of the generated network, named after NODE_NAMES
VOCABULARY = 3000  # pseudo-words, drawn with Zipf-like weights


@dataclass(frozen=True)
class Shape:
    """Knobs of one synthetic corpus; rates are per token or per utterance."""

    teams: int
    utterances: int  # per team, robot lines included
    length_median: float  # tokens per utterance: clipped lognormal
    length_sigma: float
    length_min: int
    length_max: int
    node_rate: float  # share of tokens that are node names
    verb_rate: float  # share of tokens that are add/remove verbs
    filler_rate: float  # share of tokens that are uh or um
    oh_rate: float  # share of tokens that are oh
    robot_rate: float  # share of utterances spoken by the robot
    edit_rate: float  # chance that an edit follows an utterance
    submit_rate: float  # chance that a submission follows an edit
    stop_rate: float  # share of teams with a stop record after the last submit
    output_format: str  # `align all --format`


# Sizes are scaled so that one `ingest` + `all` cycle takes a few seconds on a
# 2-core machine, which leaves several cycles in one benchmark run.
WORKLOADS = {
    # paper-like dialogues: long-tailed lengths, so routine mining dominates
    "dialogue-long": Shape(
        teams=10, utterances=600, length_median=6.0, length_sigma=0.75,
        length_min=1, length_max=60, node_rate=0.15, verb_rate=0.04,
        filler_rate=0.03, oh_rate=0.01, robot_rate=0.03, edit_rate=0.08,
        submit_rate=0.05, stop_rate=0.5, output_format="csv",
    ),
    # many short teams, run as `all --format json`: per-team overhead dominates
    "teams-many": Shape(
        teams=400, utterances=60, length_median=2.5, length_sigma=0.5,
        length_min=1, length_max=4, node_rate=0.2, verb_rate=0.1,
        filler_rate=0.05, oh_rate=0.03, robot_rate=0.05, edit_rate=0.2,
        submit_rate=0.15, stop_rate=0.5, output_format="json",
    ),
    # node- and verb-heavy short utterances with rare edits: long turns,
    # large pending caches, a large annotated corpus
    "instructions-dense": Shape(
        teams=12, utterances=1200, length_median=3.5, length_sigma=0.4,
        length_min=1, length_max=8, node_rate=0.5, verb_rate=0.2,
        filler_rate=0.02, oh_rate=0.02, robot_rate=0.02, edit_rate=0.01,
        submit_rate=0.2, stop_rate=0.5, output_format="csv",
    ),
}


def vocabulary(size: int) -> list[str]:
    """Pseudo-words that collide with no node name, verb or marker."""
    reserved = set(NODE_NAMES) | set(ADD_VERBS) | set(REMOVE_VERBS) | set(FILLERS) | {OH}
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words = []
    for n in itertools.count(1):
        for parts in itertools.product(syllables, repeat=n):
            word = "".join(parts)
            if word not in reserved:
                words.append(word)
                if len(words) == size:
                    return words
    raise AssertionError("unreachable")


def lengths(shape: Shape, n: int, rng: random.Random) -> list[int]:
    """`n` utterance lengths: fixed lognormal quantiles, shuffled."""
    normal = statistics.NormalDist()
    out = []
    for i in range(n):
        z = normal.inv_cdf((i + 0.5) / n)
        value = round(shape.length_median * math.exp(shape.length_sigma * z))
        out.append(min(shape.length_max, max(shape.length_min, value)))
    rng.shuffle(out)
    return out


def _network(rng: random.Random) -> dict:
    names = NODE_NAMES[:NODES]
    nodes = [{"id": i + 1, "name": name.capitalize(), "label": f"Mount {name.capitalize()}",
              "x": float(rng.randrange(0, 800)), "y": float(rng.randrange(0, 600))}
             for i, name in enumerate(names)]
    ids = [n["id"] for n in nodes]
    edges = {}
    order = ids[:]
    rng.shuffle(order)
    for i in range(1, len(order)):  # a random spanning tree keeps it connected
        u, v = order[i], order[rng.randrange(i)]
        edges[(min(u, v), max(u, v))] = rng.randint(1, 9)
    for u, v in itertools.combinations(ids, 2):
        if (u, v) not in edges and rng.random() < 0.3:
            edges[(u, v)] = rng.randint(1, 9)
    return {"nodes": nodes,
            "edges": [{"u": u, "v": v, "cost": c} for (u, v), c in sorted(edges.items())]}


def _optimal_cost(network: dict) -> int:
    parent = {n["id"]: n["id"] for n in network["nodes"]}

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    total = 0
    for e in sorted(network["edges"], key=lambda e: (e["cost"], e["u"], e["v"])):
        ru, rv = find(e["u"]), find(e["v"])
        if ru != rv:
            parent[ru] = rv
            total += e["cost"]
    return total


def generate(shape: Shape, seed: int, out_dir: str | Path) -> dict:
    """Write the four input files for `shape` and `seed` into `out_dir`.

    Returns the corpus size: teams, utterances, tokens, edits, and the
    routine miner's candidate n-grams (sum of L(L+1)/2 over human utterances).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    network = _network(rng)
    optimal = _optimal_cost(network)
    names = [n["name"] for n in network["nodes"]]
    label = {n["id"]: n["name"] for n in network["nodes"]}
    all_edges = [(e["u"], e["v"]) for e in network["edges"]]
    words = vocabulary(VOCABULARY)
    cum_weights = list(itertools.accumulate(1.0 / (rank + 2.7) for rank in range(len(words))))
    node_cut = shape.node_rate
    verb_cut = node_cut + shape.verb_rate
    filler_cut = verb_cut + shape.filler_rate
    oh_cut = filler_cut + shape.oh_rate

    transcripts, events, tests = [], [], []
    size = {"teams": shape.teams, "utterances": 0, "tokens": 0, "edits": 0,
            "candidate_grams": 0}
    for team in range(1, shape.teams + 1):
        t = 0.0
        speaker = rng.choice("AB")
        built: set[tuple[int, int]] = set()
        robots = round(shape.robot_rate * shape.utterances)
        robot_slots = set(rng.sample(range(shape.utterances), robots))
        robot_lines = itertools.cycle(ROBOT_LINES)
        human_lengths = iter(lengths(shape, shape.utterances - robots, rng))
        for slot in range(shape.utterances):
            if slot in robot_slots:
                who, text = "I", next(robot_lines)
            else:
                length = next(human_lengths)
                if rng.random() < 0.7:
                    speaker = "B" if speaker == "A" else "A"
                who = speaker
                tokens = rng.choices(words, cum_weights=cum_weights, k=length)
                for i in range(length):
                    r = rng.random()
                    if r < node_cut:
                        tokens[i] = rng.choice(names)
                    elif r < verb_cut:
                        tokens[i] = rng.choice(ADD_VERBS if rng.random() < 0.6 else REMOVE_VERBS)
                    elif r < filler_cut:
                        tokens[i] = rng.choice(FILLERS)
                    elif r < oh_cut:
                        tokens[i] = OH
                if rng.random() < 0.3:
                    tokens[0] = tokens[0].capitalize()
                text = " ".join(tokens) + rng.choice(("", "", ".", "?"))
                size["candidate_grams"] += length * (length + 1) // 2
            n_tokens = len(text.split())
            start = t + rng.uniform(0.2, 2.0)
            end = start + 0.25 * n_tokens + rng.uniform(0.1, 0.5)
            transcripts.append((team, who, f"{start:.3f}", f"{end:.3f}", text))
            size["utterances"] += 1
            size["tokens"] += n_tokens
            t = end
            if rng.random() < shape.edit_rate:
                t += rng.uniform(0.1, 1.0)
                unbuilt = [e for e in all_edges if e not in built]
                if built and (not unbuilt or rng.random() < 0.3):
                    edge = rng.choice(sorted(built))
                    built.discard(edge)
                    kind = "remove"
                else:
                    edge = rng.choice(unbuilt)
                    built.add(edge)
                    kind = "add"
                u, v = edge if rng.random() < 0.5 else edge[::-1]
                events.append((team, f"{t:.3f}", kind, label[u], label[v], ""))
                size["edits"] += 1
                if rng.random() < shape.submit_rate:
                    t += rng.uniform(0.1, 1.0)
                    events.append((team, f"{t:.3f}", "submit", "", "",
                                   optimal + rng.randint(0, optimal)))
        t += rng.uniform(0.5, 2.0)  # every team ends on a submission
        events.append((team, f"{t:.3f}", "submit", "", "", optimal + rng.randint(0, optimal)))
        if rng.random() < shape.stop_rate:
            events.append((team, f"{t + rng.uniform(1.0, 5.0):.3f}", "stop", "", "", ""))
        for who in "AB":
            tests.append((team, who, rng.randint(0, 10), rng.randint(0, 10)))

    _write_csv(out / "transcripts.csv", ["team", "speaker", "start_sec", "end_sec", "utterance"],
               transcripts)
    _write_csv(out / "events.csv", ["team", "time_sec", "event", "u", "v", "cost"], events)
    _write_csv(out / "tests.csv", ["team", "speaker", "pre", "post"], tests)
    (out / "network.json").write_text(json.dumps(network, indent=2) + "\n", encoding="utf-8")
    return size


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    shape = WORKLOADS[args.workload]
    size = generate(shape, args.seed, args.out)
    print(json.dumps({"shape": asdict(shape), "size": size}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
