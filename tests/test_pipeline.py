"""Workspace staging: config, artifact layout, and stage wiring.

These tests run the stages as a library against a scratch corpus and check
the on-disk contract: exact headers, deterministic bytes, and the guard
rails (missing artifacts, stale metadata, duplicate projects).
"""

import json

import pytest

from codecorpus.catalog import (
    CLASSES_HEADER, METHODS_HEADER, PACKAGES_HEADER, PROJECTS_HEADER,
    read_metadata, read_property_csv,
)
from codecorpus.errors import InputError, InvalidArgumentError, ParseError
from codecorpus.fixturegen import write_fixture_corpus
from codecorpus.metrics import compute_metrics
from codecorpus.pipeline import (
    REPRESENTATION_TYPES, Workspace, WorkspaceConfig, _write_repr_csv,
    discover_projects, load_corpus, parse_corpus, read_repr_csv,
    stage_add_project,
    stage_callgraph, stage_catalog, stage_metrics, stage_props_import,
    stage_report, stage_representations, stage_taskgen,
)
from codecorpus.taskgen import read_task_csv


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


def test_metadata_headers_are_exact(pipe_env):
    ws = pipe_env[0]
    for name, header in (("projects.csv", PROJECTS_HEADER),
                         ("packages.csv", PACKAGES_HEADER),
                         ("classes.csv", CLASSES_HEADER),
                         ("methods.csv", METHODS_HEADER)):
        first = (ws.metadata_dir / name).read_text(
            encoding="utf-8").splitlines()[0]
        assert first == ",".join(header), name


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


def test_stale_metadata_is_detected(pipe_env):
    ws, cfg = pipe_env[0], pipe_env[1]
    corpus = cfg.corpus_root
    extra = discover_projects(corpus)[0] / "Sneaky.java"
    extra.write_text("class Sneaky { int one() { return 1; } }\n",
                     encoding="utf-8")
    try:
        with pytest.raises(InputError,
                           match="no longer matches the cataloged metadata"):
            load_corpus(ws)
        # unverified loads are for rebuilding, so they still work
        _cfg2, datas, _cat = load_corpus(ws, verify=False)
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
    src = tmp_path / "bad.csv"
    src.write_text("method_id,value\n", encoding="utf-8")
    with pytest.raises(InvalidArgumentError, match="uppercase"):
        stage_props_import(ws, cat, src, key="lower")


def test_missing_artifacts_name_the_fix(tmp_path):
    ws = Workspace(tmp_path / "ws")
    with pytest.raises(InputError,
                       match=r"missing artifact TKNA\.csv; run `repr` first"):
        ws.require(ws.repr_path("TKNA"), "repr")


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
