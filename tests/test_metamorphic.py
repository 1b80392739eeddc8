"""Layout transforms of a corpus and the workspace bytes they predict.

A transform rewrites every file of a corpus without changing what any
method means; each case states which workspace files may change. CRLF line
ends change none: the files are read in text mode, so every table a
command writes from the corpus keeps its bytes.
"""

import contextlib
import io
from pathlib import Path

from codecorpus import cli
from codecorpus.fixturegen import fixture_files

SMALL = {"bulk_b": 2, "bulk_c": 2, "bulk_d": 2}
COMMANDS = ["repr", "metrics", "callgraph", "taskgen --task property",
            "taskgen --task call-mask", "taskgen --task mutation",
            "tokenstats"]
# Every file under these entries is compared; `workspace.json` is not,
# since it holds the corpus root.
COMPARED = ["metadata", "properties", "representations", "tasks",
            "tokenstats", "callgraph.csv"]


def build(base: Path, line_end: str) -> dict[str, bytes]:
    """Write the small fixture corpus with `line_end`, run the commands on
    it and return the bytes of every compared file by relative path."""
    corpus, ws = base / "corpus", base / "ws"
    for rel, text in fixture_files(SMALL).items():
        path = corpus / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.replace("\n", line_end).encode("utf-8"))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["catalog", "--corpus", str(corpus),
                         "-w", str(ws)]) == 0
        for command in COMMANDS:
            assert cli.main([*command.split(), "-w", str(ws)]) == 0, command
    out = {}
    for entry in COMPARED:
        top = ws / entry
        for path in [top] if top.is_file() else sorted(top.rglob("*")):
            if path.is_file():
                out[path.relative_to(ws).as_posix()] = path.read_bytes()
    return out


def test_crlf_line_ends_give_the_same_bytes_as_lf(tmp_path):
    lf = build(tmp_path / "lf", "\n")
    crlf = build(tmp_path / "crlf", "\r\n")
    assert b"\r\n" in (tmp_path / "crlf" / "corpus" / "demo" / "app"
                       / "A.java").read_bytes()
    assert sorted(crlf) == sorted(lf)
    assert {"callgraph.csv", "representations/FTGR.csv", "tasks/mutation.csv",
            "tokenstats/sizes.csv", "properties/CMPX.csv",
            "metadata/methods.csv"} <= set(lf)
    assert [rel for rel in lf if crlf[rel] != lf[rel]] == []
