"""End-to-end command-line behavior through real subprocesses.

Covers the exit-code contract (0 success, 1 usage, 2 input) and the
promise that the last stdout line of every successful command is a
one-line JSON summary.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from codecorpus.fixturegen import write_fixture_corpus


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("CODECORPUS_WORKSPACE", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "codecorpus", *map(str, args)],
        capture_output=True, text=True, env=env)


def last_json(proc):
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    corpus = base / "corpus"
    corpus.mkdir()
    write_fixture_corpus(corpus)
    ws = base / "ws"
    proc = run_cli("catalog", "--corpus", corpus, "-w", ws)
    assert proc.returncode == 0, proc.stderr
    return corpus, ws, proc


def test_help_exits_clean():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "Usage:" in proc.stdout
    assert "catalog" in proc.stdout


def test_catalog_emits_a_json_summary(cli_env):
    _corpus, _ws, proc = cli_env
    summary = last_json(proc)
    assert summary["command"] == "catalog"
    assert summary["methods"] == 774
    assert summary["projects"] == 7


def test_workspace_can_come_from_the_environment(cli_env):
    _corpus, ws, _proc = cli_env
    proc = run_cli("repr", "--types", "TEXT,TKNA",
                   env_extra={"CODECORPUS_WORKSPACE": str(ws)})
    assert proc.returncode == 0, proc.stderr
    summary = last_json(proc)
    assert summary["command"] == "repr"
    assert summary["methods_per_type"] == {"TEXT": 774, "TKNA": 774}
    assert (ws / "representations" / "TEXT.csv").exists()


def test_unknown_repr_type_is_a_usage_error(cli_env):
    _corpus, ws, _proc = cli_env
    proc = run_cli("repr", "-w", ws, "--types", "TKNA,BEST")
    assert proc.returncode == 1
    assert "usage error" in proc.stderr
    assert "BEST" in proc.stderr


def test_malformed_fracs_is_a_usage_error(cli_env):
    _corpus, ws, _proc = cli_env
    proc = run_cli("taskgen", "-w", ws, "--task", "mutation",
                   "--fracs", "0.5,0.5")
    assert proc.returncode == 1
    assert "usage error" in proc.stderr
    assert "three" in proc.stderr


def test_unknown_command_is_a_usage_error():
    proc = run_cli("transmogrify")
    assert proc.returncode == 1


def test_missing_required_option_is_a_usage_error(tmp_path):
    proc = run_cli("catalog", "-w", tmp_path / "ws")
    assert proc.returncode == 1


def test_absent_workspace_is_an_input_error(tmp_path):
    proc = run_cli("metrics", "-w", tmp_path / "nowhere")
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "run `catalog` first" in proc.stderr


def test_missing_prerequisite_artifact_is_an_input_error(cli_env):
    _corpus, ws, _proc = cli_env
    proc = run_cli("report", "-w", ws, "--study", "windows")
    assert proc.returncode == 2
    assert "missing artifact sizes.csv; run `tokenstats` first" in proc.stderr


def test_duplicate_add_project_is_an_input_error(cli_env):
    corpus, ws, _proc = cli_env
    proc = run_cli("add-project", corpus / "demo", "-w", ws)
    assert proc.returncode == 2
    assert "pass --replace" in proc.stderr


@pytest.mark.parametrize("artifact, header, command, line", [
    ("representations/TKNA.csv", "method_id,payload",
     ("taskgen", "--task", "property"), 2),
    ("tokenstats/sizes.csv",
     "entity_id,granularity,tokenizer_tag,subtoken_count",
     ("report", "--study", "windows"), 2),
    ("callgraph.csv",
     "caller_method_id,callee_method_id,callee_signature,call_type,line,col",
     ("report", "--study", "calls"), 2),
    ("representations/TKNA.csv", "id,payload",
     ("taskgen", "--task", "property"), 1),
], ids=["TKNA", "sizes", "callgraph", "TKNA-header"])
def test_truncated_artifact_row_is_an_input_error(cli_env, tmp_path, artifact,
                                                  header, command, line):
    _corpus, ws, _proc = cli_env
    copy = tmp_path / "ws"
    shutil.copytree(ws, copy)
    target = copy / artifact
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(f"{header}\ndemo/app/A.java#main\n", encoding="utf-8")
    proc = run_cli(*command, "-w", copy)
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert f"{target.name}:{line}: expected" in proc.stderr
