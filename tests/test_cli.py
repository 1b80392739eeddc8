"""End-to-end command-line behavior through real subprocesses.

Covers the exit-code contract (0 success, 1 usage, 2 input) and the
promise that the last stdout line of every successful command is a
one-line JSON summary.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

from codecorpus import cli, fixturegen
from codecorpus.fixturegen import write_fixture_corpus
from codecorpus.taskgen import FILTER_OPS


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
    for types, named in (("TKNA,BEST", "BEST"),
                         ("", "no representation types"),
                         (" , ", "no representation types")):
        proc = run_cli("repr", "-w", ws, "--types", types)
        assert proc.returncode == 1, types
        assert "usage error" in proc.stderr
        assert named in proc.stderr
    # a repeated type is no error: it is built once, in its first place
    proc = run_cli("repr", "-w", ws, "--types", "TKNA,TEXT,tkna")
    assert proc.returncode == 0, proc.stderr
    summary = last_json(proc)
    assert summary["types"] == ["TKNA", "TEXT"]
    assert summary["methods_per_type"] == {"TEXT": 774, "TKNA": 774}


def test_malformed_fracs_is_a_usage_error(cli_env):
    _corpus, ws, _proc = cli_env
    # a NaN is neither `< 0` nor `> tolerance`: it passed both checks
    for fracs, named in (("0.5,0.5", "three"),
                         ("nan,0.5,0.5", "summing to 1"),
                         ("0.5,0.5,nan", "summing to 1")):
        proc = run_cli("taskgen", "-w", ws, "--task", "mutation",
                       "--fracs", fracs)
        assert proc.returncode == 1, fracs
        assert "usage error" in proc.stderr
        assert named in proc.stderr


def test_unknown_command_is_a_usage_error():
    proc = run_cli("transmogrify")
    assert proc.returncode == 1


def test_missing_required_option_is_a_usage_error(tmp_path):
    proc = run_cli("catalog", "-w", tmp_path / "ws")
    assert proc.returncode == 1


COMMANDS = ("catalog", "add-project", "repr", "metrics", "callgraph",
            "props-import", "taskgen", "tokenstats", "report")


def _command_line(command, tmp_path) -> list[str]:
    """A command line that parses, less its workspace option."""
    corpus = tmp_path / "corpus"
    corpus.mkdir(exist_ok=True)
    table = tmp_path / "GRADE.csv"
    table.write_text("method_id,value\n", encoding="utf-8")
    return {"catalog": ["catalog", "--corpus", str(corpus)],
            "add-project": ["add-project", str(corpus)],
            "props-import": ["props-import", str(table)],
            "taskgen": ["taskgen", "--task", "property"],
            "report": ["report", "--study", "calls"],
            }.get(command, [command])


def _usage_error(argv, capsys, monkeypatch) -> str:
    """Run `argv` in this process; it must exit 1 with a usage error and
    no output. Returns the message."""
    monkeypatch.delenv("CODECORPUS_WORKSPACE", raising=False)
    assert cli.main(argv) == 1, argv
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: "), err
    return err


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_prints_its_help(command, capsys):
    # in this process: `main` returns the code and never raises SystemExit
    assert cli.main([command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert "Usage:" in out
    assert "--workspace" in out
    assert err == ""


@pytest.mark.parametrize("case", ["unknown-option", "no-workspace",
                                  "extra-argument", "abbreviated-option"])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_malformed_command_line_is_a_usage_error(command, case, tmp_path,
                                                   capsys, monkeypatch):
    base = _command_line(command, tmp_path)
    ws = str(tmp_path / "ws")
    argv = {"unknown-option": [*base, "-w", ws, "--bogus"],
            "no-workspace": base,
            "extra-argument": [*base, "-w", ws, "extra"],
            "abbreviated-option": [*base, "--work", ws]}[case]
    _usage_error(argv, capsys, monkeypatch)
    assert not (tmp_path / "ws").exists()


@pytest.mark.parametrize("command", ["catalog", "add-project", "props-import",
                                     "taskgen", "report"])
def test_a_missing_required_argument_is_a_usage_error(command, tmp_path,
                                                      capsys, monkeypatch):
    _usage_error([command, "-w", str(tmp_path / "ws")], capsys, monkeypatch)


@pytest.mark.parametrize("extra", [
    ["--seed", "x"], ["--seed", "1.5"]], ids=["word", "fraction"])
@pytest.mark.parametrize("command", ["catalog", "taskgen"])
def test_a_non_integer_seed_is_a_usage_error(command, extra, tmp_path,
                                             capsys, monkeypatch):
    argv = [*_command_line(command, tmp_path), "-w", str(tmp_path), *extra]
    assert "--seed" in _usage_error(argv, capsys, monkeypatch)


@pytest.mark.parametrize("argv,named", [
    (["tokenstats", "--vocab-size", "big"], "--vocab-size"),
    (["taskgen", "--task", "sorting"], "--task"),
    (["taskgen", "--task", "property", "--p-mutate", "half"], "--p-mutate"),
    (["report", "--study", "everything"], "--study"),
], ids=["vocab-size", "task", "p-mutate", "study"])
def test_a_bad_option_value_is_a_usage_error(argv, named, tmp_path, capsys,
                                             monkeypatch):
    err = _usage_error([*argv, "-w", str(tmp_path)], capsys, monkeypatch)
    assert named in err


@pytest.mark.parametrize("command,path", [
    ("catalog", "nowhere"), ("catalog", "GRADE.csv"),
    ("add-project", "nowhere"), ("add-project", "GRADE.csv"),
    ("props-import", "nowhere.csv"), ("props-import", "corpus"),
])
def test_a_missing_or_wrong_kind_of_path_is_a_usage_error(
        command, path, tmp_path, capsys, monkeypatch):
    argv = _command_line(command, tmp_path)
    argv[-1] = str(tmp_path / path)
    err = _usage_error([*argv, "-w", str(tmp_path / "ws")], capsys,
                       monkeypatch)
    assert path in err
    assert not (tmp_path / "ws").exists()


def test_no_arguments_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage error: ")


def test_importing_the_cli_loads_no_click_dataclasses_or_inspect():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, codecorpus.cli; print(sorted("
         "{'click', 'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_absent_workspace_is_an_input_error(tmp_path):
    proc = run_cli("metrics", "-w", tmp_path / "nowhere")
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "run `catalog` first" in proc.stderr


@pytest.mark.parametrize("text", [
    '{"corpus_root": "/x", "seed": 0',
    '{"corpus_root": "/x", "seed": 0, "strictness": "skip-unparseable", '
    '"threads": 4}',
    "[1, 2]",
    '{"corpus_root": 5, "seed": 0, "strictness": "skip-unparseable"}',
    '{"corpus_root": "/x", "seed": true, "strictness": "skip-unparseable"}',
    '{"corpus_root": "/x", "seed": 0, "strictness": "lenient"}',
    '{"seed": 0, "strictness": "skip-unparseable"}',
], ids=["truncated", "unknown-key", "not-an-object", "corpus-root-not-a-string",
        "seed-not-an-int", "unknown-strictness", "no-corpus-root"])
def test_malformed_workspace_config_is_an_input_error(tmp_path, text):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "workspace.json").write_text(text + "\n", encoding="utf-8")
    proc = run_cli("metrics", "-w", ws)
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert "workspace.json" in proc.stderr


def test_a_repeated_workspace_config_key_is_an_input_error(cli_env, tmp_path):
    """`json.loads` alone keeps the last of a repeated key, so this config
    would run `metrics` on seed 0 without a word."""
    _corpus, ws, _proc = cli_env
    copy = tmp_path / "ws"
    shutil.copytree(ws, copy)
    config = copy / "workspace.json"
    cfg = json.loads(config.read_text(encoding="utf-8"))
    config.write_text(
        f'{{"corpus_root": {json.dumps(cfg["corpus_root"])}, "seed": 7, '
        f'"seed": {cfg["seed"]}, "strictness": "{cfg["strictness"]}"}}\n',
        encoding="utf-8")
    proc = run_cli("metrics", "-w", copy)
    assert proc.returncode == 2, proc.stderr
    assert f"{config}: not a workspace config: key 'seed' is repeated; " \
        "re-run `catalog`" in proc.stderr


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


def test_a_duplicated_method_row_is_an_input_error(cli_env, tmp_path):
    _corpus, ws, _proc = cli_env
    copy = tmp_path / "ws"
    shutil.copytree(ws, copy)
    methods = copy / "metadata" / "methods.csv"
    lines = methods.read_text(encoding="utf-8").splitlines(keepends=True)
    methods.write_text("".join(lines[:2] + lines[1:]), encoding="utf-8")
    mid = lines[1].split(",")[3]
    proc = run_cli("metrics", "-w", copy)
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert f"methods.csv:3: repeated key method_id={mid} (first on line 2)" \
        in proc.stderr


@pytest.mark.parametrize("old, new, table, column, value", [
    ("        int x = 1;\n", "        int x = 1;\n        x = x + 1;\n",
     "methods.csv", "method_name", "helper"),
    ("public class A {", "public class Renamed {",
     "classes.csv", "class_name", "A"),
], ids=["method-grows", "class-renamed"])
def test_an_edit_that_changes_a_metadata_row_is_stale(tmp_path, old, new,
                                                      table, column, value):
    # neither edit moves an id: a method id hashes no end line and a class
    # id (keyed on its file) no class name, so only the rows show them
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_fixture_corpus(corpus)
    ws = tmp_path / "ws"
    proc = run_cli("catalog", "--corpus", corpus, "-w", ws)
    assert proc.returncode == 0, proc.stderr
    with open(ws / "metadata" / table, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    line = next(n for n, row in enumerate(rows, 2)
                if row[column] == value and "demo/app/A.java" in row.values())
    source = corpus / "demo" / "app" / "A.java"
    text = source.read_text(encoding="utf-8")
    assert text.count(old) == 1
    source.write_text(text.replace(old, new), encoding="utf-8")
    proc = run_cli("metrics", "-w", ws)
    assert proc.returncode == 2, proc.stderr
    assert "corpus no longer matches the cataloged metadata: " \
        f"{table}:{line} differs from the reparse; re-run `catalog`" \
        in proc.stderr


def test_same_signature_methods_on_one_line_share_an_id(tmp_path):
    # `catalog` keeps the first declaration; the repeat gets no row
    corpus = _one_class_corpus(
        tmp_path, "int f() { return 1; } int f() { return 2; }")
    ws = tmp_path / "ws"
    for command in (("catalog", "--corpus", corpus), ("metrics",),
                    ("repr", "--types", "TKNA")):
        proc = run_cli(*command, "-w", ws)
        assert proc.returncode == 0, (command, proc.stderr)
    rows = (ws / "metadata" / "methods.csv").read_text().splitlines()[1:]
    assert len(rows) == 1
    tkna = (ws / "representations" / "TKNA.csv").read_text().splitlines()[1:]
    assert len(tkna) == 1 and tkna[0].endswith(",int f ( ) { return 1 ; }")


def test_skipped_files_count_files_without_a_class_row(tmp_path):
    # a repeated declaration is a diagnostic, yet its file keeps its class
    corpus = _one_class_corpus(
        tmp_path, "int f() { return 1; } int f() { return 2; }")
    (corpus / "proj" / "Bad.java").write_text("class Bad { int[] xs; }\n",
                                              encoding="utf-8")
    ws = tmp_path / "ws"
    proc = run_cli("catalog", "--corpus", corpus, "-w", ws)
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc)["skipped_files"] == 1
    notes = proc.stderr.splitlines()
    assert len(notes) == 2
    assert notes[0].startswith("note: proj/Bad.java: ")
    assert notes[1] == ("note: proj/A.java: duplicate declaration of f() "
                        "at line 1; skipped")
    (corpus / "extra").mkdir()
    (corpus / "extra" / "B.java").write_text(
        "class B { int g() { return 1; } int g() { return 2; } }\n",
        encoding="utf-8")
    proc = run_cli("add-project", corpus / "extra", "-w", ws)
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc)["skipped_files"] == 0
    assert proc.stderr == ("note: extra/B.java: duplicate declaration of g() "
                           "at line 1; skipped\n")


def test_a_project_with_no_cataloged_class_is_skipped(tmp_path):
    corpus = _one_class_corpus(tmp_path)
    (corpus / "bad" / "q").mkdir(parents=True)
    (corpus / "bad" / "q" / "B.java").write_text(
        "class B { int[] h() { return null; } }\n", encoding="utf-8")
    ws = tmp_path / "ws"
    proc = run_cli("catalog", "--corpus", corpus, "-w", ws)
    assert proc.returncode == 0, proc.stderr
    summary = last_json(proc)
    assert (summary["projects"], summary["methods"]) == (1, 1)
    assert summary["skipped_files"] == 1
    notes = proc.stderr.splitlines()
    assert len(notes) == 2 and notes[0].startswith("note: bad/q/B.java: ")
    assert notes[1] == "note: bad: no cataloged classes; project skipped"
    for command in (("repr", "--types", "TKNA"), ("metrics",),
                    ("callgraph",), ("tokenstats",)):
        proc = run_cli(*command, "-w", ws)
        assert proc.returncode == 0, (command, proc.stderr)
    proc = run_cli("add-project", corpus / "bad", "-w", ws)
    assert proc.returncode == 2
    assert "no cataloged classes under" in proc.stderr
    assert proc.stderr.rstrip().endswith("bad")
    proc = run_cli("catalog", "--corpus", corpus, "-w", tmp_path / "strict",
                   "--strict")
    assert proc.returncode == 2 and "bad/q/B.java" in proc.stderr
    shutil.rmtree(corpus / "proj")
    proc = run_cli("catalog", "--corpus", corpus, "-w", tmp_path / "none")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        f"input error: no cataloged classes under {corpus.resolve()}")


def test_call_mask_says_when_it_writes_no_evaluation(cli_env, tmp_path):
    _corpus, ws, _proc = cli_env
    copy = tmp_path / "ws"
    shutil.copytree(ws, copy)
    proc = run_cli("callgraph", "-w", copy)
    assert proc.returncode == 0, proc.stderr
    evaluation = copy / "tasks" / "call_mask.eval.json"
    # with seed 5 every fixture project lands in train
    proc = run_cli("taskgen", "-w", copy, "--task", "call-mask",
                   "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc)["splits"]["test"] == 0
    assert "baseline_overall" not in last_json(proc)
    assert not evaluation.exists()
    assert proc.stderr == ("note: tasks/call_mask.csv has an empty valid split\n"
                           "note: tasks/call_mask.csv has an empty test split\n"
                           "note: call_mask.eval.json was not written: "
                           "empty test split\n")
    proc = run_cli("taskgen", "-w", copy, "--task", "call-mask",
                   "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert "baseline_overall" in last_json(proc)
    assert evaluation.exists()
    assert proc.stderr == "note: tasks/call_mask.csv has an empty valid split\n"


def test_comments_across_method_lines_do_not_break_later_commands(tmp_path):
    # block comments open on the method's last line and close on its first
    # one, so lexing the method's whole lines on their own fails
    corpus = tmp_path / "corpus"
    (corpus / "proj").mkdir(parents=True)
    (corpus / "proj" / "C.java").write_text(
        "class C { int x; /* a\n"
        " b */ void f() { return; } /* c\n"
        " d */ }\n", encoding="utf-8")
    ws = tmp_path / "ws"
    proc = run_cli("catalog", "--corpus", corpus, "-w", ws)
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc)["skipped_files"] == 0
    for command in (("repr",), ("metrics",), ("tokenstats",)):
        proc = run_cli(*command, "-w", ws)
        assert proc.returncode == 0, (command, proc.stderr)
        assert last_json(proc)["command"] == command[0]
    nmtk = (ws / "properties" / "NMTK.csv").read_text(encoding="utf-8")
    assert nmtk.splitlines()[1].endswith(",8")   # void f ( ) { return ; }


def _one_class_corpus(tmp_path, body="int f() { return 1; }"):
    corpus = tmp_path / "corpus"
    (corpus / "proj").mkdir(parents=True)
    (corpus / "proj" / "A.java").write_text(f"class A {{ {body} }}\n",
                                            encoding="utf-8")
    return corpus


@pytest.mark.parametrize("kind", ["directory", "dangling-symlink"])
def test_an_unreadable_java_path_is_skipped(tmp_path, kind):
    corpus = _one_class_corpus(tmp_path)
    weird = corpus / "proj" / "Weird.java"
    if kind == "directory":
        weird.mkdir()
    else:
        weird.symlink_to(corpus / "proj" / "Missing.java")
    ws = tmp_path / "ws"
    proc = run_cli("catalog", "--corpus", corpus, "-w", ws)
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc)["skipped_files"] == 1
    assert last_json(proc)["methods"] == 1
    proc = run_cli("metrics", "-w", ws)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("catalog", "--corpus", corpus, "-w", tmp_path / "strict",
                   "--strict")
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert "proj/Weird.java: not readable" in proc.stderr


def test_a_call_report_without_call_sites_is_an_input_error(tmp_path):
    corpus = _one_class_corpus(tmp_path)
    ws = tmp_path / "ws"
    for command in (("catalog", "--corpus", corpus), ("callgraph",)):
        proc = run_cli(*command, "-w", ws)
        assert proc.returncode == 0, (command, proc.stderr)
    assert last_json(proc)["edges"] == 0
    proc = run_cli("report", "-w", ws, "--study", "calls")
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert "callgraph.csv holds no call sites" in proc.stderr


def test_a_masked_site_without_a_call_graph_row_is_an_input_error(tmp_path):
    """A call graph without constructor sites gives the masked `new A()` no
    stratum; the task names the site instead of inventing one."""
    corpus = _one_class_corpus(tmp_path, "void f() { A x = new A(); }")
    ws = tmp_path / "ws"
    for command in (("catalog", "--corpus", corpus),
                    ("callgraph", "--no-constructors")):
        proc = run_cli(*command, "-w", ws)
        assert proc.returncode == 0, (command, proc.stderr)
    mask = ("taskgen", "--task", "call-mask", "--include-constructors",
            "--fracs", "1,0,0", "-w", ws)
    proc = run_cli(*mask)
    assert proc.returncode == 2, proc.stderr
    with open(ws / "metadata" / "methods.csv", newline="",
              encoding="utf-8") as f:
        mid = next(csv.DictReader(f))["method_id"]
    assert proc.stderr == (
        f"input error: {ws / 'callgraph.csv'}: no call-graph row for the call "
        f"site masked in {mid} at line 1, col 32; re-run `callgraph`\n")
    assert not (ws / "tasks").exists()
    proc = run_cli("callgraph", "-w", ws)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(*mask)
    assert proc.returncode == 0, proc.stderr
    with open(ws / "callgraph.csv", newline="", encoding="utf-8") as f:
        edge = next(csv.DictReader(f))
    with open(ws / "tasks" / "call_mask.csv", newline="",
              encoding="utf-8") as f:
        sample = next(csv.DictReader(f))
    assert (edge["line"], edge["col"]) == ("1", "32")
    assert sample["stratum"] == edge["call_type"]


def test_a_package_declared_in_two_directories_is_noted(tmp_path):
    """Both classes keep the package row of the first directory, as javac
    sees one package, and the second file says so."""
    corpus = tmp_path / "corpus"
    (corpus / "proj" / "a").mkdir(parents=True)
    (corpus / "proj" / "Top.java").write_text(
        "package a;\nclass Top { int f() { return A.s(); } }\n",
        encoding="utf-8")
    (corpus / "proj" / "a" / "A.java").write_text(
        "package a;\nclass A { static int s() { return 1; } }\n",
        encoding="utf-8")
    ws = tmp_path / "ws"
    proc = run_cli("catalog", "--corpus", corpus, "-w", ws)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("note: proj/a/A.java: package 'a' is also declared "
                           "in directory '.'; its classes share that row\n")
    summary = last_json(proc)
    assert (summary["packages"], summary["classes"]) == (1, 2)
    assert summary["skipped_files"] == 0
    proc = run_cli("callgraph", "-w", ws)
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc)["distribution"]["Package"] == 1.0


@pytest.fixture(scope="module")
def metrics_ws(cli_env, tmp_path_factory):
    """A copy of the cataloged workspace with TKNA payloads and metrics."""
    _corpus, ws, _proc = cli_env
    copy = tmp_path_factory.mktemp("metrics") / "ws"
    shutil.copytree(ws, copy)
    for command in (("repr", "--types", "TKNA"), ("metrics",)):
        proc = run_cli(*command, "-w", copy)
        assert proc.returncode == 0, (command, proc.stderr)
    return copy


@pytest.mark.parametrize("expr, code", [
    ("SLOC>=x", 1), ("NAME>=5", 1), ("SLOC!=x", 0),
])
def test_a_filter_ordering_a_number_against_text_is_a_usage_error(
        metrics_ws, expr, code):
    proc = run_cli("taskgen", "-w", metrics_ws, "--task", "property",
                   "--filter", expr)
    assert proc.returncode == code, proc.stderr
    if code:
        assert "usage error" in proc.stderr
        assert f"filter {expr}:" in proc.stderr
        assert "cannot be ordered" in proc.stderr


@pytest.mark.parametrize("op", list(FILTER_OPS))
def test_every_filter_operator_parses_from_a_filter(op):
    # a two-character operator is not read as its first character
    assert cli._parse_filter(f"SLOC{op}5") == ("SLOC", op, 5)
    assert cli._parse_filter(f" SLOC {op} 05 ") == ("SLOC", op, "05")


@pytest.mark.parametrize("text, want", [
    ("NAME==a>=b", ("NAME", "==", "a>=b")),
    ("NAME==x<=y", ("NAME", "==", "x<=y")),
    ("NAME!=<", ("NAME", "!=", "<")),
    ("N<a>=b", ("N", "<", "a>=b")),
])
def test_a_filter_splits_at_its_first_operator(text, want):
    assert cli._parse_filter(text) == want


def _property_labels(ws, key):
    with open(ws / "tasks" / f"property_{key}.csv", newline="",
              encoding="utf-8") as f:
        return {row["method_id"]: row["label"] for row in csv.DictReader(f)}


def test_imported_property_values_keep_their_text(metrics_ws, tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(metrics_ws, ws)
    with open(ws / "metadata" / "methods.csv", newline="",
              encoding="utf-8") as f:
        mids = [row["method_id"] for row in csv.DictReader(f)]
    texts = ("007", "7", "1_000", " 5", "x")
    stored = {mid: texts[i % len(texts)] for i, mid in enumerate(mids)}
    imported = tmp_path / "GRADE.csv"
    with open(imported, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(
            [("method_id", "value"), *stored.items()])
    proc = run_cli("props-import", imported, "-w", ws)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("taskgen", "-w", ws, "--task", "property", "--key", "GRADE")
    assert proc.returncode == 0, proc.stderr
    assert _property_labels(ws, "GRADE") == stored
    # the filter value is read like a stored one: 007 is text, not 7
    proc = run_cli("taskgen", "-w", ws, "--task", "property", "--key", "GRADE",
                   "--filter", "GRADE==007")
    assert proc.returncode == 0, proc.stderr
    assert _property_labels(ws, "GRADE") == \
        {mid: t for mid, t in stored.items() if t == "007"}


@pytest.mark.parametrize("name, key", [("imp.csv", "CMPX"),
                                       ("SLOC.csv", None)])
def test_props_import_refuses_a_computed_key(metrics_ws, tmp_path, name, key):
    ws = tmp_path / "ws"
    shutil.copytree(metrics_ws, ws)
    stored = ws / "properties" / f"{key or 'SLOC'}.csv"
    before = stored.read_bytes()
    mid = before.decode("utf-8").splitlines()[1].split(",")[0]
    source = tmp_path / name
    source.write_text(f"method_id,value\n{mid},1\n", encoding="utf-8")
    proc = run_cli("props-import", source, *(("--key", key) if key else ()),
                   "-w", ws)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (f"usage error: property {key or 'SLOC'} is written "
                           "by `metrics`; import under another key\n")
    assert stored.read_bytes() == before


@pytest.mark.parametrize("option, key", [
    (("--filter", "cmpx>1"), "'cmpx'"),
    (("--key", "../../x"), "'../../X'"),
    (("--filter", "SLOC>1", "--filter", "a/b==1"), "'a/b'"),
])
def test_a_malformed_property_key_is_a_usage_error(metrics_ws, option, key):
    proc = run_cli("taskgen", "-w", metrics_ws, "--task", "property", *option)
    assert proc.returncode == 1, proc.stderr
    assert "usage error" in proc.stderr
    assert f"property key must be 4-16 uppercase letters, got {key}" \
        in proc.stderr


def test_a_bias_report_on_a_non_integer_size_is_an_input_error(metrics_ws,
                                                                tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(metrics_ws, ws)
    with open(ws / "properties" / "SLOC.csv", newline="",
              encoding="utf-8") as f:
        rows = list(csv.reader(f))
    rows[1][1] = "big"       # line 2: the first method's row
    # SLOC is computed, so `props-import` refuses it; edit the table itself
    with open(ws / "properties" / "SLOC.csv", "w", newline="",
              encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    proc = run_cli("report", "-w", ws, "--study", "bias")
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert "SLOC.csv:2: value 'big' is not an integer; re-run `metrics`" \
        in proc.stderr


@pytest.mark.parametrize("artifact, first, command, key", [
    ("representations/TKNA.csv", (), ("taskgen", "--task", "property"),
     "method_id={0}"),
    ("tokenstats/sizes.csv", ("tokenstats",), ("report", "--study", "windows"),
     "entity_id={0}, granularity={1}, tokenizer_tag={2}"),
    ("callgraph.csv", ("callgraph",), ("report", "--study", "calls"),
     "caller_method_id={0}, line={4}, col={5}"),
    ("metadata/classes.csv", (), ("metrics",), "class_id={2}"),
    ("properties/SLOC.csv", (), ("report", "--study", "bias"),
     "method_id={0}"),
], ids=["TKNA", "sizes", "callgraph", "classes", "SLOC"])
def test_a_repeated_key_is_an_input_error(metrics_ws, tmp_path, artifact,
                                          first, command, key):
    ws = tmp_path / "ws"
    shutil.copytree(metrics_ws, ws)
    if first:
        proc = run_cli(*first, "-w", ws)
        assert proc.returncode == 0, proc.stderr
    target = ws / artifact
    with open(target, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    with open(target, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows[:2] + rows[1:])
    proc = run_cli(*command, "-w", ws)
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert f"{target.name}:3: repeated key {key.format(*rows[1])} " \
        "(first on line 2)" in proc.stderr


@pytest.mark.parametrize("edits, command, writer", [
    ({"properties/CMPX.csv": slice(0)}, "taskgen", "metrics"),
    ({"properties/CMPX.csv": (-1, "not-a-method-id,7")}, "taskgen",
     "metrics"),
    ({"properties/CMPX.csv": (3, "demo,7")}, "taskgen", "metrics"),
    ({"representations/TKNA.csv": (-1, "zz,payload")}, "taskgen", "repr"),
    ({"representations/TKNA.csv": slice(0)}, "taskgen", "repr"),
    ({"properties/SLOC.csv": (2, "zz,3")}, "bias", "metrics"),
    ({"representations/TKNA.csv": slice(1, None)}, "taskgen", "repr"),
    ({"properties/CMPX.csv": slice(-1)}, "taskgen", "metrics"),
    ({"representations/TKNA.csv": slice(0, 1),
      "properties/CMPX.csv": slice(1, 2)}, "taskgen", "repr"),
], ids=["CMPX-empty", "CMPX-appended", "CMPX-project-id", "TKNA-appended",
        "TKNA-empty", "SLOC-first", "TKNA-missing-row", "CMPX-missing-row",
        "TKNA-CMPX-disjoint"])
def test_a_per_method_input_holds_rows_of_cataloged_methods(
        metrics_ws, tmp_path, edits, command, writer):
    """An empty table, a row whose id is no cataloged method (a project id
    included), and a computed table that misses a cataloged method are
    input errors naming the file, the row's line or the row count, and the
    file's writer, before any sample or report is made. An edit is the
    slice of data rows kept, or a row inserted at a line (-1 appends)."""
    ws = tmp_path / "ws"
    shutil.copytree(metrics_ws, ws)
    with open(ws / "metadata" / "methods.csv", newline="",
              encoding="utf-8") as f:
        methods = len(list(csv.reader(f))) - 1
    messages = []
    for artifact, edit in edits.items():
        target = ws / artifact
        lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
        if isinstance(edit, slice):
            lines = lines[:1] + lines[1:][edit]
            kept = len(lines) - 1
            messages.append(f"{target}: holds {kept} of the {methods} "
                            "cataloged methods" if kept else
                            f"{target}: holds no method rows")
        else:
            line, row = edit
            if row.startswith("demo,"):
                with open(ws / "metadata" / "projects.csv", newline="",
                          encoding="utf-8") as f:
                    row = f"{list(csv.reader(f))[1][0]},7"
            line = len(lines) + 1 if line == -1 else line
            lines.insert(line - 1, row + "\r\n")
            messages.append(f"{target}:{line}: method_id "
                            f"{row.split(',')[0]!r} is not a cataloged method")
        target.write_text("".join(lines), encoding="utf-8")
    proc = run_cli(*(("taskgen", "--task", "property") if command == "taskgen"
                     else ("report", "--study", "bias")), "-w", ws)
    assert proc.returncode == 2, proc.stderr
    # the first file edited is the first one read
    assert f"input error: {messages[0]}; re-run `{writer}`" in proc.stderr


@pytest.mark.parametrize("artifact, first, command, row, stray", [
    ("callgraph.csv", ("callgraph",), ("report", "--study", "calls"),
     "zz,,f(),API,1,1", "caller_method_id 'zz' is not a cataloged method"),
    ("callgraph.csv", ("callgraph",), ("taskgen", "--task", "call-mask"),
     "zz,,f(),API,1,1", "caller_method_id 'zz' is not a cataloged method"),
    ("callgraph.csv", ("callgraph",), ("report", "--study", "calls"),
     "{method},zz,f(),Local,1,1",
     "callee_method_id 'zz' is not a cataloged method"),
    ("callgraph.csv", ("callgraph",), ("taskgen", "--task", "call-mask"),
     "{method},{class},f(),Local,1,1",
     "callee_method_id '{class}' is not a cataloged method"),
    ("tokenstats/sizes.csv", ("tokenstats",), ("report", "--study", "windows"),
     "zz,method,code,5", "entity_id 'zz' is not a cataloged method"),
    ("tokenstats/sizes.csv", ("tokenstats",), ("report", "--study", "windows"),
     "{class},method,zz,5", "entity_id '{class}' is not a cataloged method"),
], ids=["calls-caller", "call-mask-caller", "calls-callee",
        "call-mask-callee", "windows-stray", "windows-granularity"])
def test_a_call_site_or_size_names_only_cataloged_entities(
        metrics_ws, tmp_path, artifact, first, command, row, stray):
    """A row appended after a blank line, whose id is no cataloged entity
    of its column's granularity, is an input error at its line."""
    ws = tmp_path / "ws"
    shutil.copytree(metrics_ws, ws)
    proc = run_cli(*first, "-w", ws)
    assert proc.returncode == 0, proc.stderr
    ids = {}
    for table, column in (("methods", "method"), ("classes", "class")):
        with open(ws / "metadata" / f"{table}.csv", newline="",
                  encoding="utf-8") as f:
            ids[column] = next(csv.DictReader(f))[f"{column}_id"]
    target = ws / artifact
    lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
    target.write_text("".join(lines) + "\n" + row.format_map(ids) + "\n",
                      encoding="utf-8")
    proc = run_cli(*command, "-w", ws)
    assert proc.returncode == 2, proc.stderr
    assert f"input error: {target}:{len(lines) + 2}: {stray.format_map(ids)}; " \
        f"re-run `{first[0]}`" in proc.stderr


@pytest.fixture(scope="module")
def tasks_ws(metrics_ws):
    """`metrics_ws` with a call graph, so that every task can be built."""
    proc = run_cli("callgraph", "-w", metrics_ws)
    assert proc.returncode == 0, proc.stderr
    return metrics_ws


@pytest.mark.parametrize("field, value", [
    ("call_type", "Remote"), ("callee_method_id", ""),
], ids=["unknown-call-type", "resolved-without-callee"])
def test_a_call_site_with_a_bad_locality_is_an_input_error(tasks_ws, tmp_path,
                                                           field, value):
    ws = tmp_path / "ws"
    shutil.copytree(tasks_ws, ws)
    target = ws / "callgraph.csv"
    with open(target, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    row = next(r for r in rows if r["call_type"] != "API")
    row[field] = value
    with open(target, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    proc = run_cli("report", "-w", ws, "--study", "calls")
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert f"callgraph.csv: call site of {row['caller_method_id']} at line " \
        f"{row['line']}, col {row['col']} has call_type {row['call_type']!r}" \
        in proc.stderr


@pytest.mark.parametrize("key, writer", [
    ("NUPC", "callgraph"), ("SLOC", "metrics"), ("ZZZZ", "props-import"),
])
def test_a_missing_property_table_names_its_writer(tasks_ws, tmp_path, key,
                                                   writer):
    ws = tmp_path / "ws"
    shutil.copytree(tasks_ws, ws)
    (ws / "properties" / f"{key}.csv").unlink(missing_ok=True)
    proc = run_cli("taskgen", "-w", ws, "--task", "property", "--key", key)
    assert proc.returncode == 2, proc.stderr
    assert f"missing artifact {key}.csv; run `{writer}` first" in proc.stderr


def test_a_method_name_is_no_task_label(tasks_ws, tmp_path):
    """Every payload spells its method's name, so `--key NAME` is a usage
    error before any task table is read: here none of them is there."""
    ws = tmp_path / "ws"
    shutil.copytree(tasks_ws, ws)
    (ws / "properties" / "NAME.csv").unlink()
    shutil.rmtree(ws / "representations")
    proc = run_cli("taskgen", "-w", ws, "--task", "property", "--key", "name")
    assert proc.returncode == 1, proc.stderr
    assert "usage error: every payload spells the method's own name, so NAME " \
        "cannot be a task label" in proc.stderr
    assert not (ws / "tasks" / "property_NAME.csv").exists()


@pytest.mark.parametrize("task,seed,name,empty", [
    ("call-mask", 5, "call_mask", ["valid", "test"]),
    ("mutation", 0, "mutation", ["valid", "test"]),
    ("property", 0, "property_CMPX", ["valid", "test"]),
    ("mutation", 5, "mutation", []),
])
def test_taskgen_names_each_empty_split(tasks_ws, task, seed, name, empty):
    proc = run_cli("taskgen", "-w", tasks_ws, "--task", task, "--seed", seed)
    assert proc.returncode == 0, proc.stderr
    splits = last_json(proc)["splits"]
    assert [s for s in ("train", "valid", "test") if not splits[s]] == empty
    notes = [line for line in proc.stderr.splitlines()
             if "has an empty" in line]
    assert notes == [f"note: tasks/{name}.csv has an empty {s} split"
                     for s in empty]


def test_fixturegen_takes_no_option_for_its_directory(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    assert fixturegen.main(["--help"]) == 1
    assert capsys.readouterr().err == \
        "usage: python -m codecorpus.fixturegen OUT_DIR\n"
    assert list(tmp_path.iterdir()) == []
