"""The artifact contract: which workspace files each command reads, and
which command writes each of them.

The reads of every command variant are listed here by hand, with the
command that writes each file, so the code is checked against them in
both directions. Deleting any one file that a variant reads makes it exit
2 and name that file's writer; deleting every other file of the workspace
at once does not stop it. The README's layout block and
`pipeline.ARTIFACT_WRITERS` list the same top-level entries.
"""

import contextlib
import io
import os
import re
import shutil
from pathlib import Path

import pytest

from codecorpus import cli
from codecorpus.fixturegen import fixture_files, write_fixture_corpus
from codecorpus.pipeline import ARTIFACT_WRITERS

README = Path(__file__).resolve().parents[1] / "README.md"

# Each workspace file that some command reads -> the command that writes it.
WRITERS = {
    "workspace.json": "catalog",
    "metadata/projects.csv": "catalog",
    "metadata/packages.csv": "catalog",
    "metadata/classes.csv": "catalog",
    "metadata/methods.csv": "catalog",
    "representations/TKNA.csv": "repr",
    "properties/CMPX.csv": "metrics",
    "properties/SLOC.csv": "metrics",
    "callgraph.csv": "callgraph",
    "tokenstats/sizes.csv": "tokenstats",
}
CATALOG = list(WRITERS)[:5]     # what every command but `catalog` reads

# Each command variant -> the workspace files it reads, in an order in
# which each variant's reads are written by the variants before it.
READS = {
    "repr --types TKNA": CATALOG,
    "metrics": CATALOG,
    "callgraph": CATALOG,
    "tokenstats": CATALOG,
    "taskgen --task property": CATALOG + ["representations/TKNA.csv",
                                          "properties/CMPX.csv"],
    "taskgen --task call-mask": CATALOG + ["callgraph.csv"],
    "taskgen --task mutation": CATALOG,
    "report --study calls": CATALOG + ["callgraph.csv"],
    "report --study windows": CATALOG + ["tokenstats/sizes.csv"],
    "report --study bias": CATALOG + ["properties/SLOC.csv",
                                      "properties/CMPX.csv"],
    "props-import GRADE.csv": CATALOG,
}


def run(base: Path, ws: Path, variant: str) -> tuple[int, str]:
    """Run one variant in-process on `ws`; its exit code and stderr. A
    `.csv` argument names a file in `base`, outside the workspace."""
    args = [str(base / a) if a.endswith(".csv") else a
            for a in variant.split()]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main([*args, "-w", str(ws)])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def full_ws(tmp_path_factory):
    """A workspace in which every variant has run once, and its base."""
    base = tmp_path_factory.mktemp("artifacts")
    write_fixture_corpus(base / "corpus")
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


def workspace_copy(full_ws, tmp_path) -> Path:
    # Hard links are enough: every workspace file is replaced by a rename,
    # never rewritten in place, so a command leaves the original intact.
    ws = tmp_path / "ws"
    shutil.copytree(full_ws[1], ws, copy_function=os.link)
    return ws


def test_a_full_workspace_holds_exactly_the_tables_entries(full_ws):
    assert sorted(p.name for p in full_ws[1].iterdir()) == \
        sorted(ARTIFACT_WRITERS)


@pytest.mark.parametrize("variant, rel", [
    (variant, rel) for variant, reads in READS.items() for rel in reads])
def test_a_missing_input_names_its_writer(full_ws, tmp_path, variant, rel):
    ws = workspace_copy(full_ws, tmp_path)
    (ws / rel).unlink()
    code, err = run(full_ws[0], ws, variant)
    missing = f"no workspace at {ws}" if rel == "workspace.json" \
        else f"missing artifact {Path(rel).name}"
    assert (code, err) == (
        2, f"input error: {missing}; run `{WRITERS[rel]}` first\n")


@pytest.mark.parametrize("variant", READS)
def test_a_variant_needs_no_file_beyond_its_inputs(full_ws, tmp_path,
                                                   variant):
    ws = workspace_copy(full_ws, tmp_path)
    for path in sorted(ws.rglob("*"), reverse=True):   # files, then dirs
        if path.is_file() and path.relative_to(ws).as_posix() \
                not in READS[variant]:
            path.unlink()
        elif path.is_dir() and not any(path.iterdir()):
            path.rmdir()
    code, err = run(full_ws[0], ws, variant)
    assert code == 0, err


def test_the_readme_layout_lists_the_tables_entries():
    section = README.read_text(encoding="utf-8").split(
        "## Workspace layout", 1)[1]
    block = re.search(r"```\nws/\n(.*?)```", section, re.S).group(1)
    entries = [line.split()[0].rstrip("/") for line in block.splitlines()
               if re.match(r"  \S", line)]
    assert entries == list(ARTIFACT_WRITERS)


def test_the_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "Box.java").write_text(
        fixture_files()["textzoo/text/Box.java"], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4 and all(word.isdigit() for word in printed)
