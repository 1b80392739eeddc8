"""The benchmark binds `codecorpus` names.

`bench/tracing.py` wraps each `(module, function)` of its SPECS where the
program binds it, and `bench/workloads.py` calls `pipeline` attributes by
name and patches `pipeline.parse_corpus`; a renamed or removed name would
otherwise only surface in a benchmark run.
"""

import importlib
import importlib.util
import re
from pathlib import Path

from codecorpus import pipeline

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
