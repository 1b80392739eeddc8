"""The benchmark binds `codecorpus` names.

`bench/tracing.py` wraps each `(module, function)` of its SPECS where the
program binds it, and `bench/workloads.py` calls `pipeline` attributes by
name and patches `pipeline.parse_corpus`; a renamed or removed name, or a
call that no longer goes through the wrapped binding, would otherwise only
surface in a benchmark run.
"""

import importlib
import importlib.util
import re
from pathlib import Path

from codecorpus import catalog, parser, pipeline
from codecorpus.fixturegen import write_fixture_corpus

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPECS
    for module, func, _before, _after in tracing.SPECS:
        mod = importlib.import_module(f"codecorpus.{module}")
        assert callable(getattr(mod, func, None)), f"{module}.{func}"


def test_every_pipeline_name_the_workloads_use_resolves():
    source = (BENCH / "workloads.py").read_text(encoding="utf-8")
    used = set(re.findall(r"\bpl\.(\w+)", source))
    assert {"parse_corpus", "merged_catalog", "Workspace", "WorkspaceConfig",
            "REPRESENTATION_TYPES", "stage_catalog"} <= used
    for name in sorted(used):
        assert hasattr(pipeline, name), f"pipeline.{name}"


def test_stage_catalog_parses_through_the_module_global(tmp_path,
                                                         monkeypatch):
    # The long_methods workload replaces `pipeline.parse_corpus` to keep
    # what stage_catalog parsed.
    corpus = tmp_path / "corpus" / "p"
    corpus.mkdir(parents=True)
    (corpus / "A.java").write_text("class A { int f() { return 1; } }\n",
                                   encoding="utf-8")
    kept = []
    real = pipeline.parse_corpus

    def keep(cfg):
        kept.append(real(cfg))
        return kept[-1]

    monkeypatch.setattr(pipeline, "parse_corpus", keep)
    summary = pipeline.stage_catalog(
        pipeline.Workspace(tmp_path / "ws"),
        pipeline.WorkspaceConfig(corpus_root=str(corpus.parent)))
    assert len(kept) == 1
    assert summary["methods"] == sum(len(d.methods) for d in kept[0]) == 1


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_front_end_calls_go_through_the_wrapped_bindings(tmp_path,
                                                              monkeypatch):
    # lexer.lex_s and lexer.lex.calls come from `parser.lex`, and
    # parser.file_view_s and parser.nodes from `catalog.file_view`.
    lexed = _counting(monkeypatch, parser, "lex")
    viewed = _counting(monkeypatch, catalog, "file_view")
    source = "class A { int f() { return 1 + 2 * 3; } }\n"
    parser.parse(source)
    assert lexed == [(source,)]
    project = tmp_path / "p"
    project.mkdir()
    for name in ("A", "B"):
        (project / f"{name}.java").write_text(
            source.replace("A", name), encoding="utf-8")
    data = catalog.catalog_project(project, corpus_root=tmp_path)
    assert len(data.methods) == 2
    assert sorted(args[1] for args in viewed) == ["p/A.java", "p/B.java"]
    assert len(lexed) == 3


def test_call_site_resolution_goes_through_the_wrapped_bindings(tmp_path,
                                                                monkeypatch):
    # callgraph.arg_name_maps_s and callgraph.build_callgraph_s come from
    # `pipeline.arg_name_maps` and `pipeline.build_callgraph`.
    corpus = tmp_path / "corpus"
    write_fixture_corpus(corpus, {"bulk_b": 2, "bulk_c": 2, "bulk_d": 2})
    cfg = pipeline.WorkspaceConfig(corpus_root=str(corpus))
    datas = pipeline.parse_corpus(cfg)
    ws = pipeline.Workspace(tmp_path / "ws")
    named = _counting(monkeypatch, pipeline, "arg_name_maps")
    built = _counting(monkeypatch, pipeline, "build_callgraph")
    pipeline.stage_representations(ws, datas, ["TEXT", "FTGR"], 0)
    assert [args[0] for args in named] == datas
    summary = pipeline.stage_callgraph(ws, datas,
                                       pipeline.merged_catalog(datas))
    assert built == [(datas,)]
    assert summary["edges"] > 0


def test_graph_payloads_go_through_the_wrapped_bindings(tmp_path,
                                                        monkeypatch):
    # featuregraph.ast_graph_s, build_feature_graph_s, graph_payload_s and
    # edges come from `pipeline.ast_graph`, `pipeline.build_feature_graph`
    # and `pipeline.graph_payload`.
    corpus = tmp_path / "corpus"
    write_fixture_corpus(corpus, {"bulk_b": 1, "bulk_c": 1, "bulk_d": 1})
    datas = pipeline.parse_corpus(
        pipeline.WorkspaceConfig(corpus_root=str(corpus)))
    methods = sum(len(d.methods) for d in datas)
    calls = {name: _counting(monkeypatch, pipeline, name)
             for name in ("ast_graph", "build_feature_graph",
                          "graph_payload")}
    summary = pipeline.stage_representations(
        pipeline.Workspace(tmp_path / "ws"), datas, ["ASTS", "FTGR"], 0)
    assert summary["methods_per_type"] == {"ASTS": methods, "FTGR": methods}
    assert {name: len(c) for name, c in calls.items()} == {
        "ast_graph": methods, "build_feature_graph": methods,
        "graph_payload": 2 * methods}
