import importlib.util
import re
from pathlib import Path

import pytest
from hypothesis import strategies as st

from codecorpus.catalog import ProjectData, catalog_project
from codecorpus.fixturegen import (DEFAULT_BUCKET_CLASSES, fixture_files,
                                   write_fixture_corpus)
from codecorpus.parser import FileView, MethodSource, file_view

FIXTURE_SOURCES = sorted(fixture_files().items())
# each parses wherever a statement may stand: right after `) {`
STATEMENTS = (
    "if (a && b) { x = f(y, 1); } else return;",
    "while (i < n) i++;",
    "for (int i = 0; i < n; i++) { s += g(i) ? i : -i; }",
    'return obj.call(x).other("q", \'c\');',
    "int v = (a + b) * c - d / e;",
    "{ { p = new Box(q); } }",
    "total = this.items.size() + count;",
)


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_fixture_corpus(root)
    return root


@pytest.fixture(scope="session")
def corpus_data(corpus_dir) -> list[ProjectData]:
    return [catalog_project(p, corpus_root=corpus_dir)
            for p in sorted(corpus_dir.iterdir()) if p.is_dir()]


@pytest.fixture(scope="session")
def scaled_corpus_data(tmp_path_factory) -> list[ProjectData]:
    """The fixture corpus with every bucket_classes count x4."""
    root = tmp_path_factory.mktemp("corpus_x4")
    write_fixture_corpus(root, {k: 4 * v
                                for k, v in DEFAULT_BUCKET_CLASSES.items()})
    return [catalog_project(p, corpus_root=root)
            for p in sorted(root.iterdir()) if p.is_dir()]


@pytest.fixture(scope="session")
def longgen_corpus_data(tmp_path_factory) -> list[ProjectData]:
    """`bench/longgen.py`'s long branchy methods, seeds 0 and 1."""
    root = tmp_path_factory.mktemp("corpus_longgen")
    for seed in (0, 1):
        for rel, text in longgen().generate(seed).items():
            path = root / f"seed{seed}" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    return [catalog_project(p, corpus_root=root)
            for p in sorted(root.iterdir())]


@pytest.fixture(scope="session", params=["fixture", "x4"])
def both_corpora(request) -> list[ProjectData]:
    """The fixture corpus, then the x4 one."""
    return request.getfixturevalue(
        "corpus_data" if request.param == "fixture" else "scaled_corpus_data")


@pytest.fixture(scope="session")
def views() -> dict[str, FileView]:
    return {rel: file_view(text, rel)
            for rel, text in fixture_files().items()}


def method_named(view: FileView, name: str, index: int = 0) -> MethodSource:
    found = [m for m in view.classes[0].methods if m.name == name]
    assert found, f"no method {name} in {view.path}"
    return found[index]


def nth_terminal(ast, lexeme: str, n: int = 0) -> int:
    """Index of the n-th terminal whose token text equals `lexeme`."""
    hits = [i for i in ast.terminals() if ast.lexeme(i) == lexeme]
    assert len(hits) > n, f"only {len(hits)} terminals spell {lexeme!r}"
    return hits[n]


@st.composite
def fixture_with_statements(draw, statements=STATEMENTS) -> FileView:
    """A fixture file with up to four of `statements` inserted, parsed."""
    rel, text = draw(st.sampled_from(FIXTURE_SOURCES))
    sites = [m.end() for m in re.finditer(r"\)\s*\{", text)]
    if sites:
        edits = draw(st.lists(st.tuples(st.sampled_from(sites),
                                        st.sampled_from(statements)),
                              max_size=4))
        for site, statement in sorted(edits, reverse=True):
            text = f"{text[:site]} {statement}{text[site:]}"
    return file_view(text, rel)


def longgen():
    """`bench/longgen.py`, the benchmark's generator of long branchy
    methods; `generate(seed)` maps relative paths to sources."""
    path = Path(__file__).resolve().parents[1] / "bench" / "longgen.py"
    spec = importlib.util.spec_from_file_location("bench_longgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
