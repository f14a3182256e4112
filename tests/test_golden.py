"""Golden outputs: the SHA-256 of every file the CLI writes is pinned.

Each corpus is ingested (with the default and with `--first-visual A`), then
run through `all` (csv, json, `--clear-on-verdict`) and through `analyze`
for every hypothesis with every non-default option. The fixtures have only
two teams, so none of their Spearman or Kruskal-Wallis entries carries a
value; the seeded corpus gives every team both score rows and a submission,
with learning gains of both signs, so all of its entries do. The pinned
digests are in data/golden_digests.json; any changed output byte, including
the summary lines printed to stdout, fails the test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

import pytest

from align.cli import main
from align.corpus import load_corpus
from align.report import RUNNERS, Pipeline, emit
from _builders import DATA, network, write_fixture_inputs

GOLDEN = DATA / "golden_digests.json"

# every non-default option each hypothesis takes
ANALYZE_OPTIONS = {"h1.1": ["--window", "30"], "h1.2": ["--markers", "um, oh"],
                   "h2.1": ["--window", "30", "--grouped"],
                   "h2.2": ["--oh-events", "utterance", "--mm-events", "utterance"]}

# each hypothesis's per-team csv columns, in order: the keys of its runner's rows
HEADERS = {
    "h1.1": ["team", "n_routine", "n_common", "median_abs", "median_common",
             "median_norm", "q1_norm", "q3_norm"],
    "h1.2": ["team", "n_filler", "n_routine", "median_filler", "median_priming",
             "median_establishment", "U_priming", "p_priming", "delta_priming",
             "U_estab", "p_estab", "delta_estab"],
    "h2.1": ["team", "n_match_actions", "n_mismatch_actions", "n_match", "n_mismatch",
             "ratio", "median_match_abs", "median_match_common", "median_match_norm",
             "median_mismatch_abs", "median_mismatch_common", "median_mismatch_norm"],
    "h2.2": ["team", "n_oh", "n_oh_tokens", "n_match", "n_mismatch", "median_oh",
             "median_match", "median_mismatch", "U", "p", "delta"],
}

_TEMPLATES = (
    "mount {u} to mount {v}",
    "uh {verb} {u} {v}",
    "um what about mount {u}?",
    "{verb} mount {u} to mount {v}.",
    "oh okay",
    "oh no, not {u}",
    "yes mount {u} to mount {v}",
    "I think {u} is cheaper",
)
_VERBS = ("add", "connect", "build", "remove", "delete")


def write_seeded_inputs(tmp: Path, seed: int = 7, teams: int = 8) -> dict[str, Path]:
    """Write a seeded multi-team corpus as the four raw input files."""
    rng = random.Random(seed)
    net = network()
    name_of = {n.id: n.name for n in net.nodes}
    edges = [(name_of[u], name_of[v]) for u, v, _ in net.edges]
    transcripts, events, scores = [], [], []
    for team in range(1, teams + 1):
        time = 0.0
        for _ in range(rng.randrange(20, 31)):
            start = time + rng.uniform(0.5, 3.0)
            end = start + rng.uniform(0.5, 2.0)
            u, v = rng.choice(edges)
            speaker = rng.choice("AABBI")
            text = rng.choice(_TEMPLATES).format(u=u, v=v, verb=rng.choice(_VERBS))
            transcripts.append([team, speaker, f"{start:.1f}", f"{end:.1f}", text])
            if rng.random() < 0.45:
                if rng.random() < 0.4:
                    u, v = rng.choice(edges)
                kind = "add" if rng.random() < 0.75 else "remove"
                events.append([team, f"{end + 0.3:.1f}", kind, u, v, ""])
            if rng.random() < 0.08:
                cost = net.optimal_cost + rng.randrange(0, 6)
                events.append([team, f"{end + 0.6:.1f}", "submit", "", "", cost])
            time = end
        events.append([team, f"{time + 2.0:.1f}", "submit", "", "", net.optimal_cost + team % 4])
        if team % 3 == 0:
            events.append([team, f"{time + 4.0:.1f}", "stop", "", "", ""])
        for speaker in "AB":
            pre = rng.randrange(2, 9)
            step = rng.randrange(1, 3) if team % 2 else -rng.randrange(1, 3)
            scores.append([team, speaker, pre, pre + step])

    paths = {}
    for name, header, rows in (
        ("transcripts", ["team", "speaker", "start_sec", "end_sec", "utterance"], transcripts),
        ("events", ["team", "time_sec", "event", "u", "v", "cost"], events),
        ("tests", ["team", "speaker", "pre", "post"], scores),
    ):
        paths[name] = tmp / f"{name}.csv"
        with open(paths[name], "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    paths["network"] = tmp / "network.json"
    paths["network"].write_bytes((DATA / "network.json").read_bytes())
    return paths


def _runs(paths: dict[str, Path], out: Path) -> list[tuple[str, list[str]]]:
    ingest = ["ingest", "--transcripts", str(paths["transcripts"]),
              "--events", str(paths["events"]), "--network", str(paths["network"]),
              "--tests", str(paths["tests"])]
    corpus, corpus_a = str(out / "corpus"), str(out / "corpus-first-visual-A")
    runs = [
        ("ingest", ingest + ["--out", corpus]),
        ("ingest-first-visual-A", ingest + ["--out", corpus_a, "--first-visual", "A"]),
        ("all-csv", ["all", "--corpus", corpus, "--out", str(out / "all-csv")]),
        ("all-json", ["all", "--corpus", corpus, "--format", "json",
                      "--out", str(out / "all-json")]),
        ("all-clear-on-verdict", ["all", "--corpus", corpus, "--clear-on-verdict",
                                  "--out", str(out / "all-clear-on-verdict")]),
        ("all-first-visual-A", ["all", "--corpus", corpus_a,
                                "--out", str(out / "all-first-visual-A")]),
    ]
    for fmt in ("csv", "json"):
        for hypothesis, options in ANALYZE_OPTIONS.items():
            runs.append((f"analyze-{fmt}-{hypothesis}",
                         ["analyze", "--hypothesis", hypothesis, "--corpus", corpus,
                          "--format", fmt, "--out", str(out / f"analyze-{fmt}")]
                         + options + ["--clear-on-verdict"]))
    return runs


def golden_digests(paths: dict[str, Path], out: Path, capsys) -> dict[str, str]:
    """Run every command; digest its stdout and every file under `out`."""
    digests = {}
    for name, argv in _runs(paths, out):
        assert main(argv) == 0, name
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        digests[f"{name}/stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            rel = path.relative_to(out).as_posix()
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _golden(key: str) -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[key]


def test_golden_outputs_fixtures(tmp_path, capsys):
    paths = write_fixture_inputs(tmp_path)
    assert golden_digests(paths, tmp_path / "out", capsys) == _golden("fixtures")


def _refuse(what: str):
    def refuse(*args, **kwargs):
        raise AssertionError(what)
    return refuse


def test_ingest_numbers_no_utterance(tmp_path, monkeypatch):
    """`align ingest` stores the transcript rows as they are: it tokenizes and
    numbers no utterance, and still writes the golden corpus.json."""
    monkeypatch.setattr("align.corpus.number_utterances",
                        _refuse("align ingest numbered utterances"))
    paths = write_fixture_inputs(tmp_path)
    _, ingest = _runs(paths, tmp_path / "out")[0]  # into tmp_path / "out" / "corpus"
    assert main(ingest) == 0
    written = (tmp_path / "out" / "corpus" / "corpus.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == _golden("fixtures")["corpus/corpus.json"]


# (command, options, the files it writes) for each command that writes a part of what all writes
_PARTS = [("routines", [], ["routines.csv"]), ("annotate", [], ["annotated_corpus.csv"]),
          ("annotate", ["--clear-on-verdict"], ["annotated_corpus.csv"]),
          ("measures", [], ["task_features.csv"])]


def test_analyze_without_options_writes_what_all_writes(tmp_path):
    """`analyze` without options, `routines`, `annotate` and `measures` each write the
    bytes that `all` (with the same `--clear-on-verdict`) writes."""
    paths = write_seeded_inputs(tmp_path)
    corpus = str(tmp_path / "corpus")
    _, ingest = _runs(paths, tmp_path)[0]  # into tmp_path / "corpus"
    assert main(ingest) == 0
    for fmt in ("csv", "json"):
        every = tmp_path / f"all-{fmt}"
        assert main(["all", "--corpus", corpus, "--format", fmt, "--out", str(every)]) == 0
        for hypothesis in ("h1.1", "h1.2", "h2.1", "h2.2"):
            out = tmp_path / f"analyze-{fmt}-{hypothesis}"
            assert main(["analyze", "--hypothesis", hypothesis, "--corpus", corpus,
                         "--format", fmt, "--out", str(out)]) == 0
            written = sorted(out.iterdir())
            assert len(written) == (3 if fmt == "csv" else 1)
            for path in written:
                assert path.read_bytes() == (every / path.name).read_bytes(), path.name
    every = tmp_path / "all-clear-on-verdict"
    assert main(["all", "--corpus", corpus, "--clear-on-verdict", "--out", str(every)]) == 0
    for command, options, names in _PARTS:
        out = tmp_path / "-".join([command, *options])
        assert main([command, "--corpus", corpus, "--out", str(out)] + options) == 0
        assert sorted(path.name for path in out.iterdir()) == names
        for name in names:
            expected = every if options else tmp_path / "all-csv"
            assert (out / name).read_bytes() == (expected / name).read_bytes(), (command, options)
    assert (every / "annotated_corpus.csv").read_bytes() != \
        (tmp_path / "all-csv" / "annotated_corpus.csv").read_bytes()


@pytest.mark.parametrize("command, refused", [
    ("measures", ["align.corpus.number_utterances", "align.report.extract_routines",
                  "align.report.match_instructions_to_actions"]),
    ("routines", ["align.report.match_instructions_to_actions"]),
    ("annotate", ["align.report.extract_routines"]),
])
def test_each_command_computes_only_what_it_writes(tmp_path, monkeypatch, command, refused):
    """`measures` numbers no utterance and runs neither the miner nor the matcher,
    `routines` runs no matcher and `annotate` mines no routine; each still writes
    the golden bytes of its file."""
    paths = write_fixture_inputs(tmp_path)
    _, ingest = _runs(paths, tmp_path / "out")[0]  # into tmp_path / "out" / "corpus"
    assert main(ingest) == 0
    for target in refused:
        monkeypatch.setattr(target, _refuse(f"align {command} called {target}"))
    out = tmp_path / command
    assert main([command, "--corpus", str(tmp_path / "out" / "corpus"), "--out", str(out)]) == 0
    [written] = out.iterdir()
    digest = hashlib.sha256(written.read_bytes()).hexdigest()
    assert digest == _golden("fixtures")[f"all-csv/{written.name}"]


def test_rows_hold_the_csv_columns_in_order(tmp_path):
    """Every row's keys are the csv columns, in order: emit takes the header
    from the first row and writes each row's values under it."""
    paths = write_seeded_inputs(tmp_path)
    _, ingest = _runs(paths, tmp_path)[0]  # into tmp_path / "corpus"
    assert main(ingest) == 0
    pipeline = Pipeline(load_corpus(tmp_path / "corpus"))
    for hypothesis, runner in RUNNERS.items():
        report = runner(pipeline)
        assert len(report.per_team_rows) == 8
        for row in report.per_team_rows:
            assert list(row) == HEADERS[hypothesis], hypothesis
        per_team, *_ = emit(report, "csv", tmp_path / "out")
        assert per_team.read_text().splitlines()[0] == ",".join(HEADERS[hypothesis])


def test_golden_outputs_seeded_corpus(tmp_path, capsys):
    paths = write_seeded_inputs(tmp_path)
    out = tmp_path / "out"
    digests = golden_digests(paths, out, capsys)
    for hypothesis in ("h11", "h12", "h21", "h22"):
        summary = json.loads((out / "all-json" / f"{hypothesis}.json").read_text())["summary"]
        for key, value in summary.items():
            if key.startswith(("spearman", "kruskal")):
                assert value is not None, (hypothesis, key)
    assert digests == _golden("seeded")
