import pytest

from codecorpus.catalog import ProjectData, catalog_project
from codecorpus.fixturegen import (DEFAULT_BUCKET_CLASSES, fixture_files,
                                   write_fixture_corpus)
from codecorpus.parser import FileView, MethodSource, file_view


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
