"""Workspace staging: config, artifact layout, and stage wiring.

These tests run the stages as a library against a scratch corpus and check
the on-disk contract: exact headers, deterministic bytes, and the guard
rails (missing artifacts, stale metadata, duplicate projects).
"""

import contextlib
import io
import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import codecorpus.catalog as catalog_mod
import codecorpus.lexer as lexer_mod
import codecorpus.parser as parser_mod
import codecorpus.pathcontexts as pathcontexts_mod
import codecorpus.pipeline as pipeline_mod
from codecorpus import cli
from codecorpus.callgraph import build_callgraph
from codecorpus.catalog import (METRIC_KEYS, read_metadata,
                               read_property_csv)
from codecorpus.errors import InputError, InvalidArgumentError, ParseError
from codecorpus.fixturegen import (DEFAULT_BUCKET_CLASSES, fixture_files,
                                   write_fixture_corpus)
from codecorpus.lexer import tkna_text
from codecorpus.metrics import compute_metrics
from codecorpus.parser import split_lines
from codecorpus.pipeline import (
    REPRESENTATION_TYPES, Workspace, WorkspaceConfig, _write_repr_csv,
    all_sources, discover_projects, load_corpus, merged_catalog, parse_corpus,
    read_repr_csv,
    stage_add_project,
    stage_callgraph, stage_catalog, stage_metrics, stage_props_import,
    stage_report, stage_representations, stage_taskgen, stage_tokenstats,
)
from codecorpus.taskgen import read_task_csv
from codecorpus.tokenstats import tokenizer_ratio


@pytest.fixture(scope="module")
def pipe_env(tmp_path_factory):
    """A cataloged workspace over its own corpus copy, cheap stages run."""
    base = tmp_path_factory.mktemp("pipe")
    corpus = base / "corpus"
    corpus.mkdir()
    write_fixture_corpus(corpus)
    ws = Workspace(base / "ws")
    cfg = WorkspaceConfig(corpus_root=str(corpus))
    summary = stage_catalog(ws, cfg)
    cfg, datas, cat = load_corpus(ws)
    stage_representations(ws, datas, ["TEXT", "TKNA"], cfg.seed)
    stage_metrics(ws, datas, cat)
    stage_callgraph(ws, datas, cat)
    return ws, cfg, datas, cat, summary


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_roundtrips_through_json(tmp_path):
    ws = Workspace(tmp_path / "ws")
    cfg = WorkspaceConfig(corpus_root="/some/where", seed=9,
                          strictness="fail-fast")
    ws.save_config(cfg)
    assert ws.load_config() == cfg
    data = json.loads(ws.config_path.read_text(encoding="utf-8"))
    assert set(data) == {"corpus_root", "seed", "parallelism", "strictness"}


def test_config_rejects_unknown_strictness(tmp_path):
    ws = Workspace(tmp_path / "ws")
    with pytest.raises(InvalidArgumentError, match="strictness"):
        ws.save_config(WorkspaceConfig(corpus_root=".", strictness="loose"))


def test_missing_workspace_points_at_catalog(tmp_path):
    with pytest.raises(InputError, match="run `catalog` first"):
        Workspace(tmp_path / "nope").load_config()


def test_discover_projects_validates_the_root(tmp_path):
    with pytest.raises(InputError, match="not a directory"):
        discover_projects(tmp_path / "missing")
    (tmp_path / "empty").mkdir()
    with pytest.raises(InputError, match="no project directories"):
        discover_projects(tmp_path / "empty")


# ---------------------------------------------------------------------------
# Catalog stage
# ---------------------------------------------------------------------------

def test_catalog_counts_the_fixture_corpus(pipe_env):
    _ws, _cfg, _datas, _cat, summary = pipe_env
    assert summary == {"projects": 7, "packages": 9, "classes": 201,
                       "methods": 774, "skipped_files": 0, "seed": 0}


# The columns of each metadata table, in the order they are written.
METADATA_HEADERS = {
    "projects": ["project_id", "project_path", "project_name"],
    "packages": ["project_id", "package_id", "package_path", "package_name"],
    "classes": ["project_id", "package_id", "class_id", "class_path",
                "class_name"],
    "methods": ["project_id", "package_id", "class_id", "method_id",
                "method_path", "method_name", "start_line", "end_line",
                "method_signature"],
}


def test_metadata_headers_are_exact(pipe_env):
    ws = pipe_env[0]
    for table, header in METADATA_HEADERS.items():
        first = (ws.metadata_dir / f"{table}.csv").read_text(
            encoding="utf-8").splitlines()[0]
        assert first == ",".join(header), table


def test_cataloging_twice_is_byte_identical(pipe_env):
    ws, cfg = pipe_env[0], pipe_env[1]
    before = {p.name: p.read_bytes() for p in ws.metadata_dir.iterdir()}
    stage_catalog(ws, cfg)
    after = {p.name: p.read_bytes() for p in ws.metadata_dir.iterdir()}
    assert before == after


def test_metadata_reads_back_as_the_same_catalog(pipe_env):
    ws, _cfg, _datas, cat, _s = pipe_env
    stored = read_metadata(ws.metadata_dir)
    assert [m.method_id for m in stored.methods] \
        == [m.method_id for m in cat.methods]
    assert [c.class_id for c in stored.classes] \
        == [c.class_id for c in cat.classes]
    assert {m.start_line for m in stored.methods} \
        == {m.start_line for m in cat.methods}


def test_read_metadata_returns_the_cataloged_rows(pipe_env):
    ws, _cfg, _datas, cat, _s = pipe_env
    stored = read_metadata(ws.metadata_dir)
    for table, header in METADATA_HEADERS.items():
        rows, want = getattr(stored, table), getattr(cat, table)
        assert len(rows) == len(want), table
        for row, cataloged in zip(rows, want):
            assert type(row) is type(cataloged), table
            # the fields are the table's columns, in the order written
            assert list(row) == [getattr(row, f) for f in header], table
            assert list(row) == [getattr(cataloged, f) for f in header], table
        with pytest.raises(AttributeError):
            setattr(rows[0], header[-1], "changed")


def test_class_counts_match_a_brute_force_count(pipe_env):
    ws, _cfg, datas, cat, _s = pipe_env
    for catalog in (cat, merged_catalog(datas), read_metadata(ws.metadata_dir)):
        counts = [catalog.class_count(p.project_id) for p in catalog.projects]
        assert counts == [sum(1 for c in catalog.classes
                              if c.project_id == p.project_id)
                          for p in catalog.projects]
        assert sum(counts) == len(catalog.classes) == 201
        assert catalog.class_count(catalog.methods[0].method_id) == 0


def test_stale_metadata_is_detected(pipe_env):
    ws, cfg = pipe_env[0], pipe_env[1]
    corpus = cfg.corpus_root
    extra = discover_projects(corpus)[0] / "Sneaky.java"
    extra.write_text("class Sneaky { int one() { return 1; } }\n",
                     encoding="utf-8")
    try:
        with pytest.raises(InputError,
                           match="no longer matches the cataloged metadata: "
                                 r"\w+\.csv:\d+ differs from the reparse; "
                                 "re-run `catalog`$"):
            load_corpus(ws)
        # rebuilding parses the changed corpus without that check
        datas = parse_corpus(ws.load_config())
        assert sum(len(d.methods) for d in datas) == 775
    finally:
        extra.unlink()
    load_corpus(ws)


def test_strictness_controls_unparseable_files(tmp_path):
    corpus = tmp_path / "corpus"
    proj = corpus / "mini" / "src"
    proj.mkdir(parents=True)
    (proj / "Good.java").write_text(
        "class Good { int f() { return 1; } }\n", encoding="utf-8")
    (proj / "Bad.java").write_text(
        "class Bad { int[] xs; }\n", encoding="utf-8")

    ws = Workspace(tmp_path / "ws")
    summary = stage_catalog(ws, WorkspaceConfig(corpus_root=str(corpus)))
    assert summary["skipped_files"] == 1
    assert summary["methods"] == 1

    strict = WorkspaceConfig(corpus_root=str(corpus), strictness="fail-fast")
    with pytest.raises(ParseError):
        stage_catalog(Workspace(tmp_path / "ws2"), strict)


def test_catalog_saves_the_resolved_root_and_keeps_its_argument(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "mini").mkdir(parents=True)
    (corpus / "mini" / "A.java").write_text(
        "class A { int f() { return 1; } }\n", encoding="utf-8")
    given = str(corpus / "mini" / "..")
    cfg = WorkspaceConfig(corpus_root=given, seed=4)
    ws = Workspace(tmp_path / "ws")
    stage_catalog(ws, cfg)
    assert cfg == WorkspaceConfig(corpus_root=given, seed=4)
    saved = json.loads(ws.config_path.read_text(encoding="utf-8"))
    assert saved["corpus_root"] == str(corpus.resolve())
    assert ws.load_config() == WorkspaceConfig(str(corpus.resolve()), 4)


def test_the_listing_is_the_sorted_rglob_and_keeps_its_diagnostics(tmp_path):
    """One walk lists what `sorted(root.rglob("*.java"))` lists, in its
    order: by path parts, so `a/` sorts before `a-b/` though `-` sorts
    before `/` as a character. Hidden directories are entered, symlinked
    ones are not, and an entry named `*.java` that is no readable file
    keeps its diagnostic."""
    corpus = tmp_path / "corpus"
    root, outside = corpus / "proj", tmp_path / "outside"
    for rel, text in {"a-b/B.java": "package ab; class B { }",
                      "a/A.java": "package a; class A { }",
                      "a/.java": "package a; class Dot { }",
                      ".hidden/H.java": "package hidden; class H { }",
                      "Top.java": "class Top { }",
                      "q/A.JAVA": "package q; class A { }",
                      "../../outside/pkg/Out.java": "class Out { }"}.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text + "\n", encoding="utf-8")
    (root / "x.java").mkdir()
    (corpus / "onlylinks").mkdir()
    (corpus / "onlylinks" / "pkg").symlink_to(outside / "pkg")
    (root / "linked").symlink_to(outside / "pkg", target_is_directory=True)
    (root / "d.java").symlink_to(outside / "pkg", target_is_directory=True)
    (root / "Link.java").symlink_to(root / "Top.java")
    (root / "gone.java").symlink_to(root / "Missing.java")

    want = [p.relative_to(root).parts for p in sorted(root.rglob("*.java"))]
    assert sorted(catalog_mod.java_entries(str(root))) == want
    assert sorted(map("/".join, want)) != ["/".join(parts) for parts in want]
    data = catalog_mod.catalog_project(root, corpus_root=corpus)
    assert [c.class_path for c in data.classes] == [
        "proj/.hidden/H.java", "proj/Link.java", "proj/Top.java",
        "proj/a/.java", "proj/a/A.java", "proj/a-b/B.java"]
    assert [(p.package_path, p.package_name) for p in data.packages] == [
        (".", ""), (".hidden", "hidden"), ("a", "a"), ("a-b", "ab")]
    assert data.diagnostics == [catalog_mod.Diagnostic(f"proj/{name}", why)
                                for name, why in (
        ("d.java", "not readable: Is a directory"),
        ("gone.java", "not readable: No such file or directory"),
        ("x.java", "not readable: Is a directory"))]
    # a project whose only `.java` file is behind a symlinked directory
    assert discover_projects(corpus) == [root]


@pytest.mark.parametrize("body, first", [
    ("int f() { return 1; } int f() { return 2; } int g() { return f(); }",
     "int f ( ) { return 1 ; }"),
    ("A() { } void A() { } void g() { A(); new A(); }", "A ( ) { }"),
], ids=["method", "constructor"])
def test_a_repeated_declaration_is_skipped_with_a_diagnostic(tmp_path, body,
                                                              first):
    # the repeat has the first one's signature and first line, so its id
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text(f"class A {{ {body} }}\n",
                                           encoding="utf-8")
    data = catalog_mod.catalog_project(tmp_path / "p", corpus_root=tmp_path)
    kept, g = data.methods
    name = kept.method_signature
    assert [d.message for d in data.diagnostics] == \
        [f"duplicate declaration of {name} at line 1; skipped"]
    assert list(data.sources) == [kept.method_id, g.method_id]
    assert tkna_text(data.sources[kept.method_id].tokens) == first
    edges = build_callgraph([data]).edges
    assert edges and all(e.callee == kept.method_id for e in edges)


@pytest.mark.parametrize("stmt", ["assert b;", "break;", "continue;"])
def test_a_reserved_word_statement_skips_its_file(tmp_path, stmt):
    # the words lex as keywords, so no statement reads them as names
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text(
        "class A { int f() { return 1; } }\n", encoding="utf-8")
    (tmp_path / "p" / "B.java").write_text(
        f"class B {{ void g(boolean b) {{ while (b) {{ {stmt} }} }} }}\n",
        encoding="utf-8")
    data = catalog_mod.catalog_project(tmp_path / "p", corpus_root=tmp_path)
    assert [c.class_path for c in data.classes] == ["p/A.java"]
    word = stmt.rstrip(";").split()[0]
    assert [(d.path, d.message) for d in data.diagnostics] == [
        ("p/B.java", "statement form outside the supported subset, "
         f"found '{word}' at 1:43")]


def test_a_project_where_no_file_parses_is_returned_without_rows(tmp_path):
    (tmp_path / "p" / "q").mkdir(parents=True)
    for name in ("A", "B"):
        (tmp_path / "p" / "q" / f"{name}.java").write_text(
            f"class {name} {{ int[] h() {{ return null; }} }}\n",
            encoding="utf-8")
    data = catalog_mod.catalog_project(tmp_path / "p", corpus_root=tmp_path)
    assert data.project.project_path == "p"
    assert (data.packages, data.classes, data.methods) == ([], [], [])
    assert (data.sources, data.class_views) == ({}, {})
    assert [d.path for d in data.diagnostics] == ["p/q/A.java", "p/q/B.java"]


def test_a_file_with_java_number_literals_is_cataloged(tmp_path):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text(
        "class A { long f() { long x = 1L; return x * 0xFFL; } }\n",
        encoding="utf-8")
    data = catalog_mod.catalog_project(tmp_path / "p", corpus_root=tmp_path)
    assert [m.method_signature for m in data.methods] == ["f()"]
    assert data.diagnostics == []


def test_a_property_value_is_an_int_only_in_canonical_form():
    texts = ["7", "-3", "0", "007", "-0", "+5", "1_000", " 5", "5 ", "x", ""]
    assert [catalog_mod.property_value(t) for t in texts] == \
        [7, -3, 0, "007", "-0", "+5", "1_000", " 5", "5 ", "x", ""]


@given(st.text())
def test_a_property_value_keeps_its_text(text):
    assert str(catalog_mod.property_value(text)) == text


@given(st.integers())
def test_an_integer_property_value_reads_back_as_that_integer(n):
    assert catalog_mod.property_value(str(n)) == n


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

def test_text_payloads_are_the_method_sources(pipe_env):
    ws, _cfg, datas, _cat, _s = pipe_env
    payloads = read_repr_csv(ws.repr_path("TEXT"))
    for d in datas:
        for mid, m in d.sources.items():
            assert payloads[mid] == m.text
    assert len(payloads) == 774


def test_repr_csv_has_the_expected_header(pipe_env):
    ws = pipe_env[0]
    first = ws.repr_path("TKNA").read_text(encoding="utf-8").splitlines()[0]
    assert first == "method_id,payload"


def test_unknown_representation_types_are_rejected(pipe_env):
    ws, cfg, datas = pipe_env[0], pipe_env[1], pipe_env[2]
    with pytest.raises(InvalidArgumentError,
                       match="unknown representation types"):
        stage_representations(ws, datas, ["TKNA", "BEST"], cfg.seed)
    assert "BEST" not in REPRESENTATION_TYPES


def test_repr_reader_rejects_foreign_headers(tmp_path):
    bad = tmp_path / "TEXT.csv"
    bad.write_text("id,text\n", encoding="utf-8")
    with pytest.raises(InputError, match="header"):
        read_repr_csv(bad)


def test_repr_reader_names_the_line_of_a_short_row(tmp_path):
    bad = tmp_path / "TKNA.csv"
    bad.write_text('method_id,payload\na#f,"two\nlines"\nb#g\n',
                   encoding="utf-8")
    with pytest.raises(InputError, match="TKNA.csv:4: expected 2 fields"):
        read_repr_csv(bad)


def test_repr_holds_no_table_and_a_failed_build_keeps_the_old_one(
        tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    write_fixture_corpus(corpus)
    datas = parse_corpus(WorkspaceConfig(corpus_root=str(corpus)))
    ws = Workspace(tmp_path / "ws")
    tracemalloc.start()
    try:
        stage_representations(ws, datas, list(REPRESENTATION_TYPES), 0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # what the stage allocates and frees again stays well below any table
    largest = max(ws.repr_path(t).stat().st_size for t in REPRESENTATION_TYPES)
    assert peak - retained < largest / 4

    tkna = ws.repr_path("TKNA")
    before = tkna.read_bytes()
    calls = []

    def failing(method, fields, argmap, seed):
        calls.append(method)
        if len(calls) == 300:
            raise RuntimeError("payload 300")
        return "changed"

    monkeypatch.setitem(pipeline_mod._PAYLOAD_BUILDERS, "TKNA", failing)
    with pytest.raises(RuntimeError, match="payload 300"):
        stage_representations(ws, datas, ["TKNA"], 0)
    assert tkna.read_bytes() == before
    assert sorted(p.name for p in tkna.parent.iterdir()) == sorted(
        f"{t}.csv" for t in REPRESENTATION_TYPES)


def test_repr_payloads_beyond_the_csv_field_limit_read_back(tmp_path):
    path = tmp_path / "TKNA.csv"
    payload = "x = x + i ;\n" * 20000          # 240 KB in one field
    _write_repr_csv(path, [("a#f", payload)])
    assert read_repr_csv(path) == {"a#f": payload}


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def test_metric_properties_match_direct_computation(pipe_env):
    ws, _cfg, datas, _cat, _s = pipe_env
    sloc = read_property_csv(ws.property_path("SLOC"))
    cmpx = read_property_csv(ws.property_path("CMPX"))
    some = sorted(datas[0].sources.items())[:10]
    for mid, method in some:
        values = compute_metrics(method)
        assert int(sloc[mid]) == values["SLOC"]
        assert int(cmpx[mid]) == values["CMPX"]
    assert len(sloc) == 774


def test_imported_properties_filter_unknown_methods(pipe_env, tmp_path):
    ws, _cfg, _datas, cat, _s = pipe_env
    known = [m.method_id for m in cat.methods[:3]]
    src = tmp_path / "GRADE.csv"
    src.write_text("method_id,value\n"
                   + "".join(f"{mid},{i}\n" for i, mid in enumerate(known))
                   + "ffffffffffffffffffffffffffffffff,9\n",
                   encoding="utf-8")
    summary = stage_props_import(ws, cat, src)
    assert summary == {"key": "GRADE", "stored": 3, "rejected": 1}
    table = read_property_csv(ws.property_path("GRADE"))
    assert set(table) == set(known)


def test_property_import_guards_key_and_source(pipe_env, tmp_path):
    ws, _cfg, _datas, cat, _s = pipe_env
    with pytest.raises(InputError, match="no such property file"):
        stage_props_import(ws, cat, tmp_path / "ghost.csv")
    # a directory is not a property file, nor a missing workspace artifact
    (tmp_path / "GRADES.csv").mkdir()
    with pytest.raises(InputError, match="no such property file: .*GRADES"):
        stage_props_import(ws, cat, tmp_path / "GRADES.csv")
    src = tmp_path / "bad.csv"
    src.write_text("method_id,value\n", encoding="utf-8")
    with pytest.raises(InvalidArgumentError, match="uppercase"):
        stage_props_import(ws, cat, src, key="lower")
    # a method id given twice is an error, not "the last row wins"
    mid = cat.methods[0].method_id
    twice = tmp_path / "TWICE.csv"
    twice.write_text(f"method_id,value\n{mid},1\n{mid},2\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(
            f"TWICE.csv:3: repeated key method_id={mid} (first on line 2)")):
        stage_props_import(ws, cat, twice)
    assert not ws.property_path("TWICE").exists()


def test_missing_artifacts_name_the_fix(tmp_path):
    ws = Workspace(tmp_path / "ws")
    with pytest.raises(InputError,
                       match=r"missing artifact TKNA\.csv; run `repr` first"):
        ws.read(ws.repr_path("TKNA"), read_repr_csv)


@pytest.mark.parametrize("table", ["projects", "packages", "classes",
                                   "methods"])
def test_a_missing_metadata_table_names_catalog_before_any_parse(
        tmp_path, monkeypatch, table):
    corpus = tmp_path / "corpus"
    (corpus / "first").mkdir(parents=True)
    (corpus / "first" / "A.java").write_text(
        "class A { int f() { return 1; } }\n", encoding="utf-8")
    ws = Workspace(tmp_path / "ws")
    stage_catalog(ws, WorkspaceConfig(corpus_root=str(corpus)))
    (ws.metadata_dir / f"{table}.csv").unlink()
    parsed = []
    monkeypatch.setattr(catalog_mod, "file_view", parsed.append)
    message = re.escape(f"missing artifact {table}.csv; run `catalog` first")
    with pytest.raises(InputError, match=message):
        load_corpus(ws)
    with pytest.raises(InputError, match=message):
        stage_add_project(ws, corpus / "first", replace=True)
    assert parsed == []


# ---------------------------------------------------------------------------
# Call graph and task stages
# ---------------------------------------------------------------------------

def test_callgraph_stage_writes_graph_and_connectivity(pipe_env):
    ws, _cfg, _datas, _cat, _s = pipe_env
    assert ws.callgraph_path.exists()
    for key in ("NUPC", "NUCC", "NMNC", "NMLC"):
        table = read_property_csv(ws.property_path(key))
        assert len(table) == 774


def test_property_task_stage_needs_the_tkna_payloads(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_fixture_corpus(corpus)
    ws = Workspace(tmp_path / "ws")
    stage_catalog(ws, WorkspaceConfig(corpus_root=str(corpus)))
    _cfg, datas, cat = load_corpus(ws)
    with pytest.raises(InputError, match="missing artifact TKNA.csv"):
        stage_taskgen(ws, datas, cat, "property", seed=0,
                      split_fracs=(0.8, 0.05, 0.15))


def test_property_task_stage_writes_a_full_dataset(pipe_env):
    ws, cfg, datas, cat, _s = pipe_env
    summary = stage_taskgen(ws, datas, cat, "property", seed=3,
                            split_fracs=(0.8, 0.05, 0.15), key="CMPX")
    assert summary["task"] == "property_CMPX"
    assert summary["samples"] == 774
    assert sum(summary["splits"].values()) == 774
    ds = read_task_csv(ws.task_path("property_CMPX"))
    assert len(ds.samples) == 774
    assert {s.label for s in ds.samples} >= {"1", "2"}


def test_call_mask_stage_reports_baselines(pipe_env):
    ws, cfg, datas, cat, _s = pipe_env
    summary = stage_taskgen(ws, datas, cat, "call-mask", seed=7,
                            split_fracs=(0.8, 0.05, 0.15))
    assert summary["samples"] == 296
    evals = json.loads(ws.task_path("call_mask").with_suffix(
        ".eval.json").read_text(encoding="utf-8"))
    assert set(evals) == {"most_frequent", "context_unigram"}
    for report in evals.values():
        assert 0.0 <= report["overall"] <= 1.0
    assert set(summary["baseline_overall"]) == set(evals)


def test_unknown_task_kind_is_rejected(pipe_env):
    ws, cfg, datas, cat, _s = pipe_env
    with pytest.raises(InvalidArgumentError, match="task must be"):
        stage_taskgen(ws, datas, cat, "rename", seed=0,
                      split_fracs=(0.8, 0.05, 0.15))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_call_report_writes_csv_and_text(pipe_env):
    ws, _cfg, _datas, cat, _s = pipe_env
    summary = stage_report(ws, cat, "calls")
    assert summary["total_percent"] == pytest.approx(100.0, abs=0.05)
    csv_lines = (ws.reports_dir / "calls.csv").read_text(
        encoding="utf-8").splitlines()
    assert csv_lines[0] == "call_type,percent"
    assert len(csv_lines) == 5
    text = (ws.reports_dir / "calls.txt").read_text(encoding="utf-8")
    assert text.startswith("Call sites by locality")


def test_bias_report_counts_every_method(pipe_env):
    ws, _cfg, _datas, cat, _s = pipe_env
    summary = stage_report(ws, cat, "bias")
    assert summary["methods"] == 774
    lines = (ws.reports_dir / "bias.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0].startswith("sloc_bin,")


def test_unknown_study_is_rejected(pipe_env):
    ws, _cfg, _datas, cat, _s = pipe_env
    with pytest.raises(InvalidArgumentError, match="study must be"):
        stage_report(ws, cat, "vibes")


# ---------------------------------------------------------------------------
# add-project
# ---------------------------------------------------------------------------

def test_duplicate_projects_need_replace(pipe_env):
    ws, cfg = pipe_env[0], pipe_env[1]
    demo = discover_projects(cfg.corpus_root)[0]
    with pytest.raises(InputError, match="pass --replace"):
        stage_add_project(ws, demo)


def test_replacing_a_project_is_byte_stable(pipe_env):
    ws, cfg = pipe_env[0], pipe_env[1]
    demo = discover_projects(cfg.corpus_root)[0]
    before_meta = {p.name: p.read_bytes() for p in ws.metadata_dir.iterdir()}
    before_tkna = ws.repr_path("TKNA").read_bytes()
    summary = stage_add_project(ws, demo, replace=True)
    assert summary["project"] == demo.name
    after_meta = {p.name: p.read_bytes() for p in ws.metadata_dir.iterdir()}
    assert after_meta == before_meta
    assert ws.repr_path("TKNA").read_bytes() == before_tkna
    # the composite run also fills in every other representation
    for rtype in REPRESENTATION_TYPES:
        assert ws.repr_path(rtype).exists()


def test_new_projects_join_the_catalog(tmp_path):
    corpus = tmp_path / "corpus"
    proj = corpus / "first" / "src"
    proj.mkdir(parents=True)
    (proj / "A.java").write_text(
        "class A { int f() { return 1; } }\n", encoding="utf-8")
    ws = Workspace(tmp_path / "ws")
    stage_catalog(ws, WorkspaceConfig(corpus_root=str(corpus)))

    outside = tmp_path / "elsewhere"
    (outside / "src").mkdir(parents=True)
    (outside / "src" / "B.java").write_text(
        "class B { int g() { return 2; } }\n", encoding="utf-8")
    with pytest.raises(InputError, match="under the corpus root"):
        stage_add_project(ws, outside)

    second = corpus / "second"
    (second / "pkg").mkdir(parents=True)
    (second / "pkg" / "B.java").write_text(
        "package pkg;\nclass B { int g() { return 2; }\n"
        "  int h() { return 3; } }\n", encoding="utf-8")
    summary = stage_add_project(ws, second)
    assert summary == {"project": "second", "classes": 1, "methods": 2,
                       "skipped_files": 0}
    stored = read_metadata(ws.metadata_dir)
    assert {p.project_name for p in stored.projects} == {"first", "second"}
    assert len(stored.methods) == 3


def test_add_project_parses_each_file_once(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    for rel, text in {
            "first/A.java": "class A { int f() { return 1; } }\n",
            "first/sub/B.java": "package sub;\nclass B { int g() { return 2; } }\n",
    }.items():
        (corpus / rel).parent.mkdir(parents=True, exist_ok=True)
        (corpus / rel).write_text(text, encoding="utf-8")
    ws = Workspace(tmp_path / "ws")
    stage_catalog(ws, WorkspaceConfig(corpus_root=str(corpus)))
    second = corpus / "second"
    (second / "pkg").mkdir(parents=True)
    for name in ("C", "D"):
        (second / "pkg" / f"{name}.java").write_text(
            f"package pkg;\nclass {name} {{ int h() {{ return 3; }} }}\n",
            encoding="utf-8")

    parsed = counted(monkeypatch, catalog_mod, "file_view")
    stage_add_project(ws, second)
    assert sorted(parsed) == sorted(
        p.read_text(encoding="utf-8") for p in corpus.rglob("*.java"))


def test_the_fixture_writer_writes_exactly_the_generated_files(tmp_path):
    x4 = {k: 4 * v for k, v in DEFAULT_BUCKET_CLASSES.items()}
    write_fixture_corpus(tmp_path, x4)
    assert {p.relative_to(tmp_path).as_posix(): p.read_bytes()
            for p in tmp_path.rglob("*") if p.is_file()} == {
        rel: text.encode("utf-8") for rel, text in fixture_files(x4).items()}


CLONE = "package pkg;\nclass A { int f(int x) { return x + 1; } }\n"


def clone_corpus(root, clone: str = CLONE):
    """Projects `p` and `q` that hold `clone` at `pkg/A.java`; `p` also
    holds a text of its own."""
    for rel, text in {"p/pkg/A.java": clone, "q/pkg/A.java": clone,
                      "p/pkg/B.java": "package pkg;\nclass B { }\n"}.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    return WorkspaceConfig(corpus_root=str(root))


def counted(monkeypatch, module, name) -> list:
    """The first arguments of every call through `module.name`."""
    calls, real = [], getattr(module, name)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_cloned_text_is_lexed_once_per_load(tmp_path, monkeypatch):
    cfg = clone_corpus(tmp_path)
    lexed = counted(monkeypatch, parser_mod, "lex")
    viewed = counted(monkeypatch, catalog_mod, "file_view")
    parse_corpus(cfg)
    assert sorted(viewed) == sorted(lexed) == \
        sorted({CLONE, "package pkg;\nclass B { }\n"})


def unshared(cfg) -> list:
    """`parse_corpus` with a memo of its own for each project, so no
    view is shared between projects."""
    root = Path(cfg.corpus_root)
    return [catalog_mod.catalog_project(p, corpus_root=root)
            for p in discover_projects(root)]


def test_clones_share_one_view_and_keep_their_own_rows(tmp_path):
    cfg = clone_corpus(tmp_path)
    shared = parse_corpus(cfg)
    cats = merged_catalog(shared), merged_catalog(unshared(cfg))
    for table in ("projects", "packages", "classes", "methods"):
        assert getattr(cats[0], table) == getattr(cats[1], table), table
    (view_p, mp, id_p), (view_q, mq, id_q) = twins(shared)
    assert [c.class_path for d in shared for c in d.classes
            if c.class_name == "A"] == ["p/pkg/A.java", "q/pkg/A.java"]
    assert view_p is view_q and mp is mq and id_p and id_q and id_p != id_q
    p, q = shared
    assert p.sources[id_p] is q.sources[id_q] is mp
    assert mp.text == "class A { int f(int x) { return x + 1; } }\n"


def test_no_parse_outlives_its_load(tmp_path, monkeypatch):
    cfg = clone_corpus(tmp_path)
    lexed = counted(monkeypatch, parser_mod, "lex")
    parse_corpus(cfg)
    parse_corpus(cfg)
    assert len(lexed) == 4
    edited = CLONE.replace("x + 1", "x + 2")
    (tmp_path / "q" / "pkg" / "A.java").write_text(edited, encoding="utf-8")
    _p, q = parse_corpus(cfg)
    assert "x + 2" in next(iter(q.sources.values())).text


def test_a_cloned_text_that_fails_gives_a_note_per_path(tmp_path):
    cfg = clone_corpus(tmp_path, "class A { int[] f() { return null; } }\n")
    message = "array types are outside the supported subset, found '[' at 1:14"
    p, q = parse_corpus(cfg)
    assert [(d.path, d.message) for d in p.diagnostics + q.diagnostics] == [
        ("p/pkg/A.java", message), ("q/pkg/A.java", message)]
    with pytest.raises(ParseError, match=f"^p/pkg/A.java: {re.escape(message)}$"):
        parse_corpus(cfg._replace(strictness="fail-fast"))


CALLER = ("package pkg;\nclass A { int n;\n"
          "  int f(int x) { n = B.g(x); return n; } }\n")


def callee_corpus(root):
    """`clone_corpus` with `CALLER` as the clone, whose callee `B.g` names
    its parameter `a` in project `p` and `b` in project `q`."""
    cfg = clone_corpus(root, CALLER)
    for project, name in (("p", "a"), ("q", "b")):
        (root / project / "pkg" / "B.java").write_text(
            f"package pkg;\nclass B {{ static int g(int {name}) "
            f"{{ return {name}; }} }}\n", encoding="utf-8")
    return cfg


def test_one_text_at_two_paths_of_a_project_is_one_view(tmp_path):
    text = "class A { int f() { return g(); } int g() { return 1; } }\n"
    for rel in ("p/x/A.java", "p/y/A.java"):
        (tmp_path / rel).parent.mkdir(parents=True)
        (tmp_path / rel).write_text(text, encoding="utf-8")
    data = catalog_mod.catalog_project(tmp_path / "p", corpus_root=tmp_path)
    assert [c.class_path for c in data.classes] == ["p/x/A.java", "p/y/A.java"]
    assert len({m.method_id for m in data.methods}) == 4
    view_x, view_y = (data.class_views[c.class_id] for c in data.classes)
    assert view_x is view_y
    # each class's f calls its own g, though both read one MethodSource
    g_of = {m.class_id: m.method_id for m in data.methods
            if m.method_name == "g"}
    f_of = {m.method_id: m.class_id for m in data.methods
            if m.method_name == "f"}
    edges = build_callgraph([data]).edges
    assert sorted((e.caller, e.callee, e.call_type) for e in edges) == \
        sorted((f, g_of[cid], "Local") for f, cid in f_of.items())


def test_a_load_builds_one_view_per_distinct_text_and_member(tmp_path,
                                                              monkeypatch):
    x4 = {k: 4 * v for k, v in DEFAULT_BUCKET_CLASSES.items()}
    write_fixture_corpus(tmp_path, x4)
    built = {"MethodSource": 0, "FileView": 0}
    for cls_name in built:
        cls = getattr(parser_mod, cls_name)
        real = cls.__init__

        def counting(self, *args, _name=cls_name, _real=real, **kwargs):
            built[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    datas = parse_corpus(WorkspaceConfig(corpus_root=str(tmp_path)))
    distinct = {id(v): v for d in datas for v in d.class_views.values()}
    assert built == {
        "MethodSource": sum(len(c.methods) for v in distinct.values()
                            for c in v.classes),
        "FileView": len(distinct)}
    assert built == {"MethodSource": 1656, "FileView": 428}
    assert sum(len(d.methods) for d in datas) == 2966


def twins(datas) -> list[tuple]:
    """Per project: the view of `pkg/A.java`, its one method and that
    method's id, read off the metadata rows."""
    metas = [next(m for m in d.methods if m.method_path.endswith("A.java"))
             for d in datas]
    return [(d.class_views[m.class_id], d.sources[m.method_id], m.method_id)
            for d, m in zip(datas, metas)]


def test_twins_write_the_bytes_of_an_unshared_parse(tmp_path):
    cfg = callee_corpus(tmp_path / "corpus")

    def tables(ws: Workspace, load) -> dict[str, bytes]:
        datas = load(cfg)
        stage_representations(ws, datas, list(REPRESENTATION_TYPES), 0)
        stage_metrics(ws, datas, merged_catalog(datas))
        return {p.relative_to(ws.root).as_posix(): p.read_bytes()
                for p in ws.root.rglob("*.csv")}

    shared = tables(Workspace(tmp_path / "shared"), parse_corpus)
    alone = tables(Workspace(tmp_path / "alone"), unshared)
    assert len(shared) == len(REPRESENTATION_TYPES) + len(METRIC_KEYS)
    assert shared == alone


def test_twins_whose_callees_name_their_parameters_apart_differ_in_ftgr(
        tmp_path):
    datas = parse_corpus(callee_corpus(tmp_path / "corpus"))
    ws = Workspace(tmp_path / "ws")
    stage_representations(ws, datas, ["FTGR", "ASTS"], 0)
    (_view_p, _mp, id_p), (_view_q, _mq, id_q) = twins(datas)
    ftgr, asts = (read_repr_csv(ws.repr_path(t)) for t in ("FTGR", "ASTS"))
    assert asts[id_p] == asts[id_q]
    assert ftgr[id_p] != ftgr[id_q]


def test_repr_extracts_paths_twice_per_method_over_clones(tmp_path,
                                                          monkeypatch):
    """`bench/smoke.py` pins this count: C2VC and C2SQ each extract the
    paths of every method, twins included."""
    datas = parse_corpus(callee_corpus(tmp_path / "corpus"))
    extracted = counted(monkeypatch, pipeline_mod, "extract_paths")
    stage_representations(Workspace(tmp_path / "ws"), datas,
                          list(REPRESENTATION_TYPES), 0)
    methods = sum(len(d.methods) for d in datas)
    assert methods == 4
    assert len(extracted) == 2 * methods


def distinct_members() -> int:
    """The fixture's methods counted once per distinct file text: the
    (text, member) pairs whose views every file with that text shares."""
    views = map(parser_mod.file_view, set(fixture_files().values()))
    return sum(len(v.classes[0].methods) for v in views)


def test_commands_build_method_subtrees_only_when_they_read_them(
        tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    write_fixture_corpus(corpus)
    built = []
    real = parser_mod._flatten

    def counting(root, *args):
        built.append(root)
        return real(root, *args)

    def subtrees_built(*args) -> int:
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*map(str, args), "-w", str(tmp_path / "ws")])
        assert code == 0, args
        return len(built)

    monkeypatch.setattr(parser_mod, "_flatten", counting)
    assert subtrees_built("catalog", "--corpus", corpus) == 0
    assert subtrees_built("repr", "--types", "TEXT,TKNA,TKNB") == 0
    counts = {" ".join(args): subtrees_built(*args) for args in (
        ("repr",), ("metrics",), ("callgraph",),
        ("taskgen", "--task", "property"), ("taskgen", "--task", "call-mask"),
        ("taskgen", "--task", "mutation"), ("tokenstats",),
        ("report", "--study", "calls"), ("report", "--study", "windows"),
        ("report", "--study", "bias"))}
    methods = distinct_members()
    assert methods == 450
    # the seven representation types, and twins, share each method's subtree
    assert counts.pop("repr") == methods
    assert counts.pop("metrics") == methods
    assert counts.pop("callgraph") == methods
    assert 0 < counts.pop("taskgen --task call-mask") <= methods
    assert 0 < counts.pop("taskgen --task mutation") <= methods
    assert counts == {"taskgen --task property": 0, "tokenstats": 0,
                      "report --study calls": 0, "report --study windows": 0,
                      "report --study bias": 0}


def test_loading_the_corpus_flattens_no_ast(tmp_path, monkeypatch):
    """`load_corpus` reads headers off the build trees: a metadata-only
    command flattens nothing while it loads, and `repr` flattens each
    method of each distinct text once and no whole file."""
    corpus = tmp_path / "corpus"
    write_fixture_corpus(corpus)
    ws = tmp_path / "ws"
    for command in (["catalog", "--corpus", str(corpus)], ["callgraph"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*command, "-w", str(ws)]) == 0
    flattened, loads = [], []
    real_flatten, real_load = parser_mod._flatten, pipeline_mod.load_corpus

    def counting(root, *args):
        flattened.append(root[0])
        return real_flatten(root, *args)

    def load(*args, **kwargs):
        before = len(flattened)
        out = real_load(*args, **kwargs)
        loads.append(len(flattened) - before)
        return out

    monkeypatch.setattr(parser_mod, "_flatten", counting)
    monkeypatch.setattr(cli, "load_corpus", load)
    for command in (["report", "--study", "calls"], ["repr"]):
        flattened.clear()
        loads.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*command, "-w", str(ws)]) == 0
        assert loads == [0], command
    assert len(flattened) == distinct_members()
    assert set(flattened) == {"MethodDecl", "ConstructorDecl"}


def test_payloads_and_metrics_count_only_the_declaration_tokens(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "proj").mkdir(parents=True)
    (corpus / "proj" / "C.java").write_text(
        "class C {\n"
        "    void g() { int y = 1; } int z;\n"
        "    int a() { return 1; } int b(int x) { return x; }\n"
        "}\n", encoding="utf-8")
    ws = Workspace(tmp_path / "ws")
    stage_catalog(ws, WorkspaceConfig(corpus_root=str(corpus)))
    cfg, datas, cat = load_corpus(ws)
    stage_representations(ws, datas, ["TKNA", "TKNB"], cfg.seed)
    stage_metrics(ws, datas, cat)
    name_of = {m.method_id: m.method_name for m in cat.methods}

    def by_name(table):
        return {name_of[mid]: value for mid, value in table.items()}

    assert by_name(read_repr_csv(ws.repr_path("TKNA"))) == {
        "g": "void g ( ) { int y = 1 ; }",
        "a": "int a ( ) { return 1 ; }",
        "b": "int b ( int x ) { return x ; }",
    }
    assert by_name(read_repr_csv(ws.repr_path("TKNB"))) == {
        "g": "void,g,(,),{,int,y,=,1,;,}",
        "a": "int,a,(,),{,return,1,;,}",
        "b": "int,b,(,int,x,),{,return,x,;,}",
    }
    for key, want in (("NMTK", {"g": "11", "a": "9", "b": "11"}),
                      ("SLOC", {"g": "1", "a": "1", "b": "1"}),
                      ("NUID", {"g": "2", "a": "1", "b": "2"})):
        assert by_name(read_property_csv(ws.property_path(key))) == want, key


def test_the_code_vocab_trains_on_the_method_lines(tmp_path, monkeypatch):
    # no final newline: each method's last line ends its file without "\n"
    corpus = tmp_path / "corpus"
    (corpus / "p").mkdir(parents=True)
    for k in range(4):
        (corpus / "p" / f"C{k}.java").write_text(
            f"class C{k} {{\n    int f() {{ return {k}; }} }}",
            encoding="utf-8")
    ws = Workspace(tmp_path / "ws")
    stage_catalog(ws, WorkspaceConfig(corpus_root=str(corpus)))
    _cfg, datas, cat = load_corpus(ws)
    trained = {}
    real = pipeline_mod.train_bpe

    def recording(text, vocab_size, corpus_tag=""):
        trained[corpus_tag] = text
        return real(text, vocab_size, corpus_tag)

    monkeypatch.setattr(pipeline_mod, "train_bpe", recording)
    stage_tokenstats(ws, datas, cat)
    method_lines = [line.rstrip("\n")
                    for _mid, m in sorted(all_sources(datas).items())
                    for line in split_lines(m.text)]
    assert len(method_lines) == 4
    lines = split_lines(trained["code"])
    assert all(line.endswith("\n") for line in lines)
    assert [line[:-1] for line in lines] == method_lines


def test_recorded_training_counts_leave_tokenstats_bytes_unchanged(
        pipe_env, tmp_path, monkeypatch):
    """The counts `train_bpe` records give the same tables and ratios as
    vocabularies that start with an empty memo and encode every line."""
    _ws, _cfg, datas, cat, _s = pipe_env
    real = pipeline_mod.train_bpe

    def unrecorded(text, vocab_size, corpus_tag=""):
        v = real(text, vocab_size, corpus_tag)
        assert v._line_cache
        v._line_cache.clear()
        return v

    names = ("sizes.csv", "fit.csv", "fit_bucketed.csv")
    outputs = []
    for empty_memo in (False, True):
        if empty_memo:
            monkeypatch.setattr(pipeline_mod, "train_bpe", unrecorded)
        ws = Workspace(tmp_path / f"ws{empty_memo}")
        summary = stage_tokenstats(ws, datas, cat)
        outputs.append((summary, [(ws.tokenstats_dir / name).read_bytes()
                                  for name in names]))
    assert outputs[0] == outputs[1]


def test_no_stage_relexes_method_texts(pipe_env, tmp_path, monkeypatch):
    _ws, cfg, datas, cat, _s = pipe_env
    lexed = []
    real = lexer_mod.lex

    def counting(source):
        lexed.append(source)
        return real(source)

    patched = []
    for name, module in sorted(sys.modules.items()):
        if name == "codecorpus" or name.startswith("codecorpus."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
                    patched.append(f"{name}.{attr}")
    assert "codecorpus.lexer.lex" in patched

    ws = Workspace(tmp_path / "ws")
    stage_representations(ws, datas, list(REPRESENTATION_TYPES), cfg.seed)
    stage_metrics(ws, datas, cat)
    stage_tokenstats(ws, datas, cat)
    assert lexed == []
    # the patch is live where a lexer call remains: texts without counts
    tokenizer_ratio(lambda text: [text], ["int a;"])
    assert lexed == ["int a;"]


def test_representations_leave_the_render_caches_empty(pipe_env, tmp_path):
    _ws, cfg, datas, _cat, _s = pipe_env
    stage_representations(Workspace(tmp_path / "ws"), datas,
                          ["C2VC", "C2SQ"], cfg.seed)
    for cache in (pathcontexts_mod._shape_strings,
                  pathcontexts_mod._joined_subtokens):
        assert cache.cache_info().currsize == 0
