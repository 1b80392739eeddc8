"""A corrupt stored input names its file and the command that rewrites it.

Each command variant of `test_artifacts.READS` runs, in this process, on a
workspace of the small metamorphic corpus in which one file that it reads
has been corrupted in one way: emptied, given a foreign header, given a
short row or a byte that is not UTF-8, with its first data row repeated or
its last one dropped (tables only), or with a non-integer in an integer
column (the tables that have one), or with a stray word in a column that
takes one of a fixed set. Every run must exit 2, and its message must name
the file and the file's writer; a corrupt value also names its line. The
missing rows that no check finds yet are expected failures, each with its
reason.
"""

import csv
import io
import os
import shutil
from pathlib import Path

import pytest

from codecorpus.fixturegen import fixture_files
from test_artifacts import READS, WRITERS, run
from test_metamorphic import SMALL

# An integer column of each table that has one.
INT_COLUMNS = {"metadata/methods.csv": "start_line", "callgraph.csv": "line",
               "tokenstats/sizes.csv": "subtoken_count"}
# A column of each table that takes one of a fixed set of words.
WORD_COLUMNS = {"tokenstats/sizes.csv": "tokenizer_tag"}


def kinds(rel: str) -> list[str]:
    """The corruptions that apply to the workspace file `rel`."""
    return ["empty", "foreign-header", "short-row", "not-utf8",
            *["repeated-row", "missing-row"] * rel.endswith(".csv"),
            *["non-integer"] * (rel in INT_COLUMNS),
            *["stray-word"] * (rel in WORD_COLUMNS)]


def corrupt(rel: str, data: bytes, kind: str) -> bytes:
    head, *rest = data.splitlines(keepends=True)
    if kind == "empty":
        return b""
    if kind == "foreign-header":
        return b"foreign,header\r\n" + b"".join(rest)
    if kind == "short-row":
        return data + b"x,y\r\n"
    if kind == "not-utf8":
        return head + b"\xff" + b"".join(rest)
    if kind == "repeated-row":
        return head + rest[0] + b"".join(rest)
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    if kind == "missing-row":
        del rows[-1]
    else:
        column = (INT_COLUMNS if kind == "non-integer" else WORD_COLUMNS)[rel]
        rows[1][rows[0].index(column)] = "x"
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue().encode("utf-8")


# (variant, file) -> why a dropped last row still exits 0.
UNSEEN = {
    ("report --study calls", "callgraph.csv"):
        "a deleted call site is invisible to every check short of stored "
        "digests of the call graph",
    ("report --study windows", "tokenstats/sizes.csv"):
        "sizes.csv coverage is unchecked: after add-project it lacks the new "
        "project's entities until tokenstats runs again",
}


def case(variant: str, rel: str, kind: str):
    why = UNSEEN.get((variant, rel)) if kind == "missing-row" else None
    return pytest.param(variant, rel, kind, id="|".join((variant, rel, kind)),
                        marks=[pytest.mark.xfail(strict=True, reason=why)]
                        if why else [])


CASES = [case(variant, rel, kind) for variant, reads in READS.items()
         for rel in reads for kind in kinds(rel)]


@pytest.fixture(scope="module")
def small_ws(tmp_path_factory):
    """A workspace of the small corpus in which every variant has run."""
    base = tmp_path_factory.mktemp("corrupt")
    for rel, text in fixture_files(SMALL).items():
        path = base / "corpus" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    ws = base / "ws"
    assert run(base, ws, f"catalog --corpus {base / 'corpus'}")[0] == 0
    ids = [line.split(",")[3] for line in (ws / "metadata" / "methods.csv")
           .read_text(encoding="utf-8").splitlines()[1:]]
    (base / "GRADE.csv").write_text(
        "method_id,value\n" + "".join(f"{mid},1\n" for mid in ids),
        encoding="utf-8")
    for variant in READS:
        code, err = run(base, ws, variant)
        assert code == 0, (variant, err)
    return base, ws


@pytest.mark.parametrize("variant, rel, kind", CASES)
def test_a_corrupt_input_names_its_file_and_writer(small_ws, tmp_path,
                                                   variant, rel, kind):
    base, full = small_ws
    ws = tmp_path / "ws"
    # hard links: every command replaces a file by a rename, and the
    # corrupted file is unlinked before it is written
    shutil.copytree(full, ws, copy_function=os.link)
    target = ws / rel
    data = corrupt(rel, target.read_bytes(), kind)
    target.unlink()
    target.write_bytes(data)
    code, err = run(base, ws, variant)
    assert code == 2, err
    assert Path(rel).name in err and f"`{WRITERS[rel]}`" in err, err
    if kind in ("non-integer", "stray-word"):
        assert f"{Path(rel).name}:2: " in err, err
