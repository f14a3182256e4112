"""Process-level contracts: what the package root and `align ingest` import,
the README's library example, and output independence from the hash seed."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from _builders import DATA

ROOT = Path(__file__).resolve().parents[1]

# every name the package root has exported, by the module that owns it
EXPORTS = {
    "corpus": ["ActionEvent", "Corpus", "EditEvent", "InputError", "Network", "NetworkNode",
               "SubmitEvent", "TeamCorpus", "TestScores", "Utterance", "assemble_corpus",
               "build_action_stream", "load_corpus", "load_event_log", "load_network",
               "load_test_scores", "load_transcript", "relative_time", "save_corpus",
               "tokenize"],
    "instructions": ["Entity", "Instruction", "MatchRecord", "check_match", "grouped_records",
                     "match_instructions_to_actions", "match_mismatch_times",
                     "recognise_entities", "recognise_instructions"],
    "measures": ["TeamSuccess", "common_window", "learning_groups", "relative_learning_gain",
                 "submission_error", "team_error", "team_learning", "team_success"],
    "report": ["HypothesisReport", "Pipeline", "emit", "run_h11", "run_h12", "run_h21",
               "run_h22"],
    "routines": ["Routine", "TokenEvents", "collaborative_period", "extract_routines",
                 "filter_task_routines", "token_events"],
    "stats": ["TestResult", "cliffs_delta", "interpret_delta", "interpret_rho",
              "kruskal_wallis", "mann_whitney_u", "spearman"],
}

INGEST = ["ingest", "--transcripts", str(DATA / "transcripts.csv"),
          "--events", str(DATA / "events.csv"), "--network", str(DATA / "network.json"),
          "--tests", str(DATA / "tests.csv")]


def _python(code: str, *args: str, cwd: Path = ROOT, **env: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports align from src/."""
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
                          timeout=300)


def _loaded(code: str) -> list[str]:
    """The align, numpy and scipy modules loaded after `code` runs."""
    result = _python(code + "\nimport json, sys\n"
                     "print(json.dumps(sorted(m for m in sys.modules\n"
                     "      if m.split('.')[0] in ('align', 'numpy', 'scipy'))))")
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


def test_ingest_loads_neither_numpy_nor_scipy(tmp_path):
    assert _loaded("import align.cli") == ["align", "align.cli", "align.corpus"]
    run = f"from align.cli import main\nassert main({INGEST + ['--out', str(tmp_path)]!r}) == 0"
    assert _loaded(run) == ["align", "align.cli", "align.corpus"]
    assert (tmp_path / "corpus.json").exists()


def _outputs(tmp_path: Path, hash_seed: str) -> dict[str, bytes]:
    """Stdout and every file of ingest + all (csv, json), run under one hash seed."""
    code = ("import sys\nfrom align.cli import main\n"
            f"sys.exit(main({INGEST + ['--out', 'corpus']!r})\n"
            "         or main(['all', '--corpus', 'corpus', '--out', 'csv'])\n"
            "         or main(['all', '--corpus', 'corpus', '--out', 'json', '--format', 'json']))")
    cwd = tmp_path / hash_seed
    cwd.mkdir()
    result = _python(code, cwd=cwd, PYTHONHASHSEED=hash_seed)
    assert result.returncode == 0, result.stderr.decode()
    files = {str(path.relative_to(cwd)): path.read_bytes()
             for path in sorted(cwd.rglob("*")) if path.is_file()}
    return {"stdout": result.stdout, **files}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    first, second = _outputs(tmp_path, "1"), _outputs(tmp_path, "2")
    assert len(first) > 20  # corpus.json, 3 tables and 4 analyses in two formats
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
