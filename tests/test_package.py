"""Process-level contracts: what the package root, each command and the
mining, matching, measures, report and statistics modules import, the p-values'
bits whether scipy.special loads before or after `align.stats`, the README's library
example, immutable records, output independence from the hash seed, and the
CLI's handling of the cyclic garbage collector."""

from __future__ import annotations

import gc
import importlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from _builders import DATA, write_random_raw_files

ROOT = Path(__file__).resolve().parents[1]

# every name the package root exports, by the module that owns it
EXPORTS = {
    "corpus": ["ActionEvent", "Corpus", "EditEvent", "InputError", "Network", "NetworkNode",
               "SubmitEvent", "TeamCorpus", "TestScores", "Utterance", "UtteranceRow",
               "assemble_corpus", "build_action_stream", "check_teams", "load_corpus",
               "load_event_log", "load_network", "load_test_scores", "load_transcript",
               "relative_time", "save_corpus", "tokenize"],
    "instructions": ["Instruction", "MatchRecord", "check_match", "grouped_records",
                     "match_instructions_to_actions", "match_mismatch_times",
                     "recognise_instructions"],
    "measures": ["TeamSuccess", "common_window", "learning_groups", "relative_learning_gain",
                 "submission_error", "team_error", "team_learning", "team_success"],
    "report": ["HypothesisReport", "Pipeline", "collaborative_period", "emit", "run_h11",
               "run_h12", "run_h21", "run_h22"],
    "routines": ["Routine", "TokenEvents", "extract_routines", "filter_task_routines",
                 "token_events"],
    "stats": ["TestResult", "cliffs_delta", "interpret_rho", "kruskal_wallis",
              "mann_whitney_delta", "mann_whitney_u", "spearman"],
}

INGEST = ["ingest", "--transcripts", str(DATA / "transcripts.csv"),
          "--events", str(DATA / "events.csv"), "--network", str(DATA / "network.json"),
          "--tests", str(DATA / "tests.csv")]


def _python(code: str, *args: str, cwd: Path = ROOT, **env: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports align from src/."""
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
                          timeout=300)


def _loaded(code: str, packages: tuple[str, ...] = ("align", "numpy", "scipy")) -> list[str]:
    """The modules of `packages` loaded after `code` runs."""
    result = _python(code + "\nimport json, sys\n"
                     "print(json.dumps(sorted(m for m in sys.modules\n"
                     f"      if m.split('.')[0] in {packages!r})))")
    assert result.returncode == 0, result.stderr.decode()
    return json.loads(result.stdout.decode().splitlines()[-1])


def test_importing_align_loads_no_submodule():
    assert _loaded("import align") == ["align"]


def test_package_root_names_resolve_to_their_owners():
    code = ("import importlib, json, sys\n"
            "for module, names in json.loads(sys.argv[1]).items():\n"
            "    owner = importlib.import_module('align.' + module)\n"
            "    for name in names:\n"
            "        namespace = {}\n"
            "        exec(f'from align import {name}', namespace)\n"
            "        assert namespace[name] is getattr(owner, name), name\n")
    result = _python(code, json.dumps(EXPORTS))
    assert result.returncode == 0, result.stderr.decode()


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n+```python\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    result = _python(block.group(1))
    assert result.returncode == 0, result.stderr.decode()


# every record kind, per item or per corpus, team or report, by the module that owns it
RECORDS = {
    "corpus": ["ActionEvent", "Corpus", "EditEvent", "NetworkNode", "SubmitEvent", "TeamCorpus",
               "TestScores", "Utterance", "UtteranceRow", "_Records"],
    "instructions": ["AnnotatedAction", "Instruction", "MatchRecord"],
    "measures": ["TeamSuccess"],
    "report": ["HypothesisReport"],
    "routines": ["Routine", "RoutineEvent", "TokenEvents"],
    "stats": ["TestResult"],
}


def test_every_tuple_kind_is_a_listed_record():
    for module in EXPORTS:
        namespace = vars(importlib.import_module(f"align.{module}"))
        kinds = {name for name, value in namespace.items() if isinstance(value, type)
                 and issubclass(value, tuple) and value.__module__ == f"align.{module}"}
        assert sorted(kinds) == RECORDS.get(module, []), module


@pytest.mark.parametrize("module, name", [(module, name) for module, names in RECORDS.items()
                                          for name in names])
def test_records_are_immutable(module, name):
    """The README's promise: every value is immutable once built. Assigning to
    a field, or to a new attribute, raises AttributeError."""
    kind = getattr(importlib.import_module(f"align.{module}"), name)
    values = tuple(range(len(kind._fields)))
    record = kind(*values)
    for field in (*kind._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == values


def test_ingest_loads_neither_numpy_nor_scipy(tmp_path):
    assert _loaded("import align.cli") == ["align", "align.cli", "align.corpus"]
    run = f"from align.cli import main\nassert main({INGEST + ['--out', str(tmp_path)]!r}) == 0"
    assert _loaded(run) == ["align", "align.cli", "align.corpus"]
    assert (tmp_path / "corpus.json").exists()


def test_mining_matching_and_measures_load_neither_numpy_nor_scipy():
    assert _loaded("import align.routines, align.instructions, align.measures") == [
        "align", "align.corpus", "align.instructions", "align.measures", "align.routines"]


# every module of the package but the CLI
MODULES = ["align", "align.corpus", "align.instructions", "align.measures", "align.report",
           "align.routines", "align.stats"]


def test_report_and_stats_load_neither_numpy_nor_scipy():
    assert _loaded("import align.report, align.stats") == MODULES


def test_commands_that_compute_no_p_value_load_neither_numpy_nor_scipy(tmp_path):
    run = ("from align.cli import main\n"
           f"assert main({INGEST + ['--out', str(tmp_path)]!r}) == 0\n"
           "for command in ('routines', 'annotate', 'measures'):\n"
           f"    assert main([command, '--corpus', {str(tmp_path)!r}]) == 0")
    assert _loaded(run) == sorted([*MODULES, "align.cli"])


def test_commands_that_compute_no_p_value_load_neither_dataclasses_nor_inspect(tmp_path):
    # dataclasses imports inspect, which imports ast, dis and tokenize: a few ms of each start-up
    unwanted = ("dataclasses", "inspect")
    assert _loaded("import align.cli", unwanted) == []
    run = ("from align.cli import main\n"
           f"assert main({INGEST + ['--out', str(tmp_path)]!r}) == 0\n"
           "for command in ('routines', 'annotate', 'measures'):\n"
           f"    assert main([command, '--corpus', {str(tmp_path)!r}]) == 0")
    assert _loaded(run, unwanted) == []


def test_all_loads_scipys_tails_without_scipy_special_init(tmp_path):
    run = ("from align.cli import main\n"
           f"assert main({INGEST + ['--out', str(tmp_path)]!r}) == 0\n"
           f"assert main({['all', '--corpus', str(tmp_path)]!r}) == 0")
    loaded = _loaded(run)
    assert "scipy.special._ufuncs" in loaded
    assert "scipy._lib._array_api" not in loaded


def test_stats_loads_scipys_tails_without_scipy_special_init():
    loaded = _loaded("import align.stats, sys\n"
                     "assert 'scipy' not in sys.modules\n"
                     "align.stats.mann_whitney_u([1.0, 2.0], [3.0])\n"
                     "assert 'scipy.special' not in sys.modules")
    assert "scipy.special._ufuncs" in loaded
    assert "scipy._lib._array_api" not in loaded
    assert "scipy.special._support_alternative_backends" not in loaded


# p-values through align.stats, printed, then checked against scipy.stats; the
# real scipy.special loads after align.stats (argv[1] == "after") or before it
TAILS = """\
import math, sys
if sys.argv[1] == "before":
    import scipy.special
import align.stats
from align.stats import kruskal_wallis, mann_whitney_u, spearman

# tie-heavy samples: low lies far below high (|z| > 5), x and y overlap
low, high = [v % 7 for v in range(60)], [v % 5 + 6 for v in range(50)]
x, y = [v % 9 for v in range(40)], [v % 11 for v in range(45)]
ranks, thirds = list(range(30)), [v // 3 for v in range(30)]  # |t| > 5
mwu = [mann_whitney_u(low, high), mann_whitney_u(x, y)]
rho = [spearman(ranks, thirds), spearman(x, y[:40])]
kw = [kruskal_wallis([low, high, x]), kruskal_wallis([x, y])]
print(mwu, rho, kw)

import scipy.special, scipy.stats
assert sys.modules["scipy.special"].__file__.endswith("__init__.py")
for name in ("ndtr", "stdtr", "chdtrc"):
    assert getattr(align.stats, name) is getattr(scipy.special, name), name
zs = []
for (a, b), result in zip([(low, high), (x, y)], mwu):
    theirs = scipy.stats.mannwhitneyu(a, b, use_continuity=False, method="asymptotic")
    assert result.statistic == theirs.statistic
    pooled, m, n = a + b, len(a), len(b)
    ties = sum(pooled.count(v) ** 3 - pooled.count(v) for v in set(pooled))
    sigma_sq = m * n * (m + n + 1) / 12.0 * (1.0 - ties / ((m + n) ** 3 - (m + n)))
    zs.append((result.statistic - m * n / 2.0) / math.sqrt(sigma_sq))
    assert result.p_value == 2.0 * float(scipy.stats.norm.sf(abs(zs[-1])))
ts = []
for (a, b), result in zip([(ranks, thirds), (x, y[:40])], rho):
    n = len(a)
    ts.append(result.statistic * math.sqrt((n - 2) / (1.0 - result.statistic ** 2)))
    assert result.p_value == 2.0 * float(scipy.stats.t.sf(abs(ts[-1]), n - 2))
for groups, result in zip([[low, high, x], [x, y]], kw):
    theirs = scipy.stats.kruskal(*groups)
    assert (result.statistic, result.p_value) == (theirs.statistic, theirs.pvalue)
assert abs(zs[0]) > 5 > abs(zs[1]) and abs(ts[0]) > 5 > abs(ts[1])
"""


def test_p_values_keep_their_bits_in_either_load_order():
    # pytest has imported scipy.stats by now (test_stats.py), so only a fresh
    # interpreter meets align.stats before scipy.special
    printed = []
    for order in ("after", "before"):
        result = _python(TAILS, order, PYTHONDEVMODE="1", PYTHONWARNINGS="error")
        assert result.returncode == 0, result.stderr.decode()
        printed.append(result.stdout)
    assert printed[0] == printed[1]


def _outputs(tmp_path: Path, hash_seed: str, raw: list[dict[str, Path]]) -> dict[str, bytes]:
    """Stdout and every file of ingest + all (csv, json) on the fixture and on
    each of the `raw` input files, run under one hash seed, and the fixture
    corpus saved again with every other utterance start an int, so that the
    writer meets columns of mixed types."""
    runs = [(INGEST, "corpus")] + [(
        ["ingest", *(f"--{name}={paths[name]}" for name in ("transcripts", "events", "network",
                                                           "tests"))], f"random{i}")
        for i, paths in enumerate(raw)]
    code = ("import sys\nfrom align.cli import main\n"
            "from align.corpus import load_corpus, save_corpus\n"
            f"for ingest, out in {runs!r}:\n"
            "    if (main(ingest + ['--out', out])\n"
            "            or main(['all', '--corpus', out, '--out', out + '/csv'])\n"
            "            or main(['all', '--corpus', out, '--out', out + '/json',\n"
            "                     '--format', 'json'])):\n"
            "        sys.exit(1)\n"
            "corpus = load_corpus('corpus')\n"
            "save_corpus(corpus._replace(teams=tuple(team._replace(utterance_rows=tuple(\n"
            "    u._replace(start=int(u.start)) if i % 2 else u for i, u in enumerate(\n"
            "        team.utterance_rows))) for team in corpus.teams)), 'mixed')")
    cwd = tmp_path / hash_seed
    cwd.mkdir()
    result = _python(code, cwd=cwd, PYTHONHASHSEED=hash_seed)
    assert result.returncode == 0, result.stderr.decode()
    files = {str(path.relative_to(cwd)): path.read_bytes()
             for path in sorted(cwd.rglob("*")) if path.is_file()}
    return {"stdout": result.stdout, **files}


def _speaker_order(hash_seed: str) -> bytes:
    """The order in which a set of the two speakers iterates under one hash seed."""
    return _python("print(*{'A', 'B'})", PYTHONHASHSEED=hash_seed).stdout


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # The second seed iterates {"A", "B"} in the other order, or the check is
    # vacuous: CPython 3.11 orders it alike under seeds 1 and 2, 3.10 under 1 and 3.
    first_order = _speaker_order("1")
    other = next((seed for seed in map(str, range(2, 10)) if _speaker_order(seed) != first_order),
                 None)
    assert other is not None
    rng = random.Random(2101)
    raw = []
    for i in range(3):  # three small random corpora besides the fixture
        (tmp_path / f"raw{i}").mkdir()
        raw.append(write_random_raw_files(rng, tmp_path / f"raw{i}"))
    first, second = _outputs(tmp_path, "1", raw), _outputs(tmp_path, other, raw)
    # stdout; per input, corpus.json, 3 tables in each format and 4 analyses as 3 csv
    # files or 1 json file; the mixed corpus.json
    assert len(first) == 1 + 4 * (1 + 2 * 3 + 4 * 3 + 4) + 1
    assert first["mixed/corpus.json"] != first["corpus/corpus.json"]
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> tuple[Path, Path]:
    """The fixture corpus, and a copy holding its teams five times under new ids."""
    from align.cli import main

    root = tmp_path_factory.mktemp("gc")
    assert main([*INGEST, "--out", str(root / "small")]) == 0
    data = json.loads((root / "small" / "corpus.json").read_text(encoding="utf-8"))
    data["teams"] = [dict(team, team=team["team"] + 1000 * copy)
                     for copy in range(5) for team in data["teams"]]
    (root / "large").mkdir()
    (root / "large" / "corpus.json").write_text(json.dumps(data), encoding="utf-8")
    return root / "small", root / "large"


def _unreachable_after_all(corpus: Path, out: Path) -> int:
    """The objects that a full collection frees after an in-process `align all`:
    the garbage cycles that the command left behind."""
    from align.cli import main

    gc.collect()
    gc.disable()  # no collection between the command and the count
    try:
        assert main(["all", "--corpus", str(corpus), "--out", str(out)]) == 0
        return gc.collect()
    finally:
        gc.enable()


def test_align_all_leaves_as_many_garbage_cycles_on_five_times_the_teams(corpora, tmp_path,
                                                                        capsys):
    # The CLI turns the cyclic GC off because nothing it builds per team is
    # cyclic; the garbage it leaves (argparse's parser) must not grow with the corpus.
    small, large = corpora
    _unreachable_after_all(small, tmp_path / "warm-up")  # first-use imports and caches
    assert _unreachable_after_all(small, tmp_path / "small") == \
        _unreachable_after_all(large, tmp_path / "large")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, code", [
    (["all", "--corpus", "{small}", "--out", "{out}"], 0),
    (["all", "--corpus", "{out}/missing"], 2),  # an InputError
    (["analyze", "--hypothesis", "h9", "--corpus", "{small}"], 2),  # argparse's SystemExit
    (["all"], 2),  # argparse's SystemExit: --corpus is required
], ids=["exit-0", "input-error", "unknown-hypothesis", "usage-error"])
def test_main_runs_with_the_gc_off_and_restores_its_state(corpora, tmp_path, monkeypatch, capsys,
                                                          enabled, argv, code):
    from align import cli

    during = []
    load_corpus = cli.load_corpus
    monkeypatch.setattr(cli, "load_corpus",
                        lambda path: during.append(gc.isenabled()) or load_corpus(path))
    argv = [arg.format(small=corpora[0], out=tmp_path) for arg in argv]
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert not any(during)
