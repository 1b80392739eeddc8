"""The cyclic garbage collector: commands run without it, and that is safe.

`cli.main` switches the collector off for the length of a command and
restores the caller's setting. That only holds memory flat if no command
builds up cyclic garbage, which reference counting cannot free: a parse
must leave none, and a whole command no more than a few objects, however
many methods the corpus has.
"""

import contextlib
import gc
import io
import re
import shutil
from pathlib import Path

import pytest

from codecorpus import cli
from codecorpus.catalog import read_metadata
from codecorpus.fixturegen import fixture_files, write_fixture_corpus
from codecorpus.parser import file_view

# The most unreachable objects one command may leave. The fixture corpus
# has 774 methods in 201 files, so anything left per file or per method
# goes far past this.
MAX_CYCLIC_GARBAGE = 64

CRITERION_9 = [
    ["repr"],
    ["metrics"],
    ["callgraph"],
    ["taskgen", "--task", "property"],
    ["taskgen", "--task", "call-mask"],
    ["taskgen", "--task", "mutation"],
    ["tokenstats"],
    ["report", "--study", "calls"],
    ["report", "--study", "windows"],
    ["report", "--study", "bias"],
]


@contextlib.contextmanager
def collector(enabled: bool):
    """Run the block with the collector on or off, then restore it."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


def run_main(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in args])


def cyclic_garbage(*args) -> int:
    """Unreachable objects that one in-process command leaves behind."""
    with collector(False):
        gc.collect()
        code = run_main(*args)
        assert code == 0, args
        return gc.collect()


@pytest.fixture(scope="module")
def held_corpus(tmp_path_factory):
    """The fixture corpus without `textzoo`, which is kept aside for
    `add-project`."""
    base = tmp_path_factory.mktemp("collector")
    corpus, held = base / "corpus", base / "held"
    write_fixture_corpus(corpus)
    held.mkdir()
    shutil.move(corpus / "textzoo", held / "textzoo")
    return base, corpus, held


def test_parsing_leaves_no_cyclic_garbage():
    with collector(False):
        gc.collect()
        for _rel, text in sorted(fixture_files().items()):
            file_view(text)
        assert gc.collect() == 0


def test_no_command_leaves_cyclic_garbage_per_method(held_corpus):
    base, corpus, held = held_corpus
    ws = base / "ws"
    left = {"catalog": cyclic_garbage("catalog", "--corpus", corpus,
                                      "-w", ws)}
    for args in CRITERION_9:
        left[" ".join(args)] = cyclic_garbage(*args, "-w", ws)
    shutil.copytree(held / "textzoo", corpus / "textzoo")
    left["add-project"] = cyclic_garbage("add-project", corpus / "textzoo",
                                         "-w", ws)
    ids = sorted(m.method_id for m in read_metadata(ws / "metadata").methods)
    grade = base / "grade.csv"
    grade.write_text("method_id,value\n" + "".join(f"{mid},1\n" for mid in ids),
                     encoding="utf-8")
    left["props-import"] = cyclic_garbage("props-import", grade,
                                          "--key", "GRADE", "-w", ws)
    assert max(left.values()) <= MAX_CYCLIC_GARBAGE, left


def test_skipping_unparseable_files_leaves_no_cyclic_garbage_per_file(
        tmp_path):
    corpus = tmp_path / "corpus"
    write_fixture_corpus(corpus)
    for i in range(20):   # a parse error and a lex error each
        (corpus / "demo" / f"Lambda{i}.java").write_text(
            f"class Lambda{i} {{ int f() {{ return () -> 1; }} }}\n")
        (corpus / "demo" / f"Hash{i}.java").write_text(
            f"class Hash{i} {{ int f() {{ return 1 # 2; }} }}\n")
    left = cyclic_garbage("catalog", "--corpus", corpus,
                          "-w", tmp_path / "ws")
    assert left <= MAX_CYCLIC_GARBAGE


def test_only_the_cli_touches_the_collector():
    src = Path(cli.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py"))
             if re.search(r"\bgc\b", p.read_text(encoding="utf-8"))]
    assert users == ["cli.py"]


@pytest.fixture(scope="module")
def calls_ws(held_corpus):
    """A workspace that `report --study calls` can read."""
    base, corpus, _held = held_corpus
    ws = base / "calls_ws"
    assert run_main("catalog", "--corpus", corpus, "-w", ws) == 0
    assert run_main("callgraph", "-w", ws) == 0
    return ws


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("args, code", [
    (["report", "--study", "calls"], 0),
    (["report", "--study", "nonsense"], 1),
    (["metrics", "-w", "{ws}/nowhere"], 2),
], ids=["ok", "usage-error", "missing-workspace"])
def test_main_restores_the_collector_setting(calls_ws, monkeypatch,
                                             enabled, args, code):
    during = []
    load_corpus = cli.load_corpus

    def spy(*a, **kw):
        during.append(gc.isenabled())
        return load_corpus(*a, **kw)

    monkeypatch.setattr(cli, "load_corpus", spy)
    argv = [a.format(ws=calls_ws) for a in args]
    if "-w" not in argv:
        argv += ["-w", str(calls_ws)]
    with collector(enabled):
        assert run_main(*argv) == code
        assert gc.isenabled() is enabled
    assert not any(during)
