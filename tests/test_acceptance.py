"""The acceptance gate: one test per shipped guarantee.

Each criterion prints a single PASS/FAIL line so a log scan shows the
state of the whole contract at a glance. The checks here deliberately
recompute everything from scratch against independent oracles rather
than trusting intermediate artifacts.
"""

import json
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import method_named
from test_metrics import HAND_TABLE

from codecorpus.callgraph import (
    CallEdge, arg_name_maps, build_callgraph, classify_distribution,
)
from codecorpus.catalog import catalog_project, read_metadata, write_metadata
from codecorpus.featuregraph import ast_graph, build_feature_graph, \
    filter_edges, graph_payload
from codecorpus.fixturegen import write_fixture_corpus
from codecorpus.lexer import lex, tkna_text
from codecorpus.metrics import compute_metrics, npath, token_census
from codecorpus.pathcontexts import extract_paths, to_c2vc
from codecorpus.pipeline import all_sources, merged_catalog
from codecorpus.taskgen import (
    DEFAULT_SPLIT_FRACS, SPLIT_NAMES, baseline_most_frequent,
    evaluate_exact_match, make_call_masking_task, make_mutation_task,
    make_property_task, unmask_payload, write_task_csv,
)
from codecorpus.tokenstats import (
    bpe_decode, bpe_encode, english_sample_text, entity_sizes,
    tokenizer_ratio, train_bpe, window_fit,
)

from oracles import (
    all_path_contexts, flow_edges_saturated, npath_enumerator,
    recount_distribution, recount_fit,
)

NO_LIMIT = 10 ** 9


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def acc(tmp_path_factory):
    """One parsed corpus copy shared by the non-subprocess criteria."""
    root = tmp_path_factory.mktemp("acceptance-corpus")
    write_fixture_corpus(root)
    datas = [catalog_project(p, corpus_root=root)
             for p in sorted(root.iterdir()) if p.is_dir()]
    cat = merged_catalog(datas)
    sources = all_sources(datas)
    fields_of, argmaps = {}, {}
    for d in datas:
        per_class = {cid: v.classes[0].fields
                     for cid, v in d.class_views.items()}
        per_call = arg_name_maps(d)
        for m in d.methods:
            fields_of[m.method_id] = per_class.get(m.class_id, {})
            argmaps[m.method_id] = per_call.get(m.method_id, {})
    return SimpleNamespace(root=root, datas=datas, cat=cat, sources=sources,
                           fields_of=fields_of, argmaps=argmaps,
                           graph=build_callgraph(datas))


def test_criterion_1_metadata_round_trip(acc, tmp_path):
    with criterion(1, "metadata round trip"):
        t0 = time.perf_counter()
        datas = [catalog_project(p, corpus_root=acc.root)
                 for p in sorted(acc.root.iterdir()) if p.is_dir()]
        cat = merged_catalog(datas)
        write_metadata(cat, tmp_path)
        stored = read_metadata(tmp_path)
        assert stored.projects == cat.projects
        assert stored.packages == cat.packages
        assert stored.classes == cat.classes
        assert stored.methods == cat.methods
        elapsed = time.perf_counter() - t0

        # same corpus, fresh parse: identical ids, all well-formed
        assert [m.method_id for m in cat.methods] \
            == [m.method_id for m in acc.cat.methods]
        hex32 = re.compile(r"^[0-9a-f]{32}$")
        for meta in cat.projects + cat.packages + cat.classes + cat.methods:
            first_id = (meta.project_id if hasattr(meta, "project_id")
                        else None)
            assert hex32.match(first_id)

        headers = {
            "projects.csv": "project_id,project_path,project_name",
            "packages.csv": "project_id,package_id,package_path,package_name",
            "classes.csv":
                "project_id,package_id,class_id,class_path,class_name",
            "methods.csv":
                "project_id,package_id,class_id,method_id,method_path,"
                "method_name,start_line,end_line,method_signature",
        }
        for name, header in headers.items():
            first = (tmp_path / name).read_text(
                encoding="utf-8").splitlines()[0]
            assert first == header, name
        assert elapsed < 5.0, f"round trip took {elapsed:.2f}s"


def test_criterion_2_metrics_oracle(acc, views):
    with criterion(2, "metrics oracle"):
        calc = views["metricsuite/calc/Calc.java"]
        assert len(HAND_TABLE) >= 10
        for name, (_tl, _sl, cmpx, npth, _mx, _rt) in HAND_TABLE.items():
            m = method_named(calc, name)
            got = compute_metrics(m)
            assert got["CMPX"] == cmpx, name
            assert got["NPTH"] == npth, name
            assert npath_enumerator(m.ast) == npth, name
            assert npath(m.ast) == npth, name

        for mid, m in acc.sources.items():
            census = token_census(m)
            total = (census["operators"] + census["literals"]
                     + census["identifiers"] + census["structural"])
            assert total == census["total"] == compute_metrics(m)["NMTK"], mid


def test_criterion_3_dataflow_oracle(acc):
    with criterion(3, "data-flow oracle"):
        memo = {}
        for mid, m in acc.sources.items():
            fields = acc.fields_of[mid]
            g = build_feature_graph(m, fields)
            key = (m.text, tuple(sorted(fields.items())))
            if key not in memo:
                memo[key], _bound = flow_edges_saturated(m, fields)
            for fam in ("LastRead", "LastWrite"):
                assert set(g.edges[fam]) == memo[key][fam], (mid, fam)
            order = g.token_order
            assert set(g.edges["NextToken"]) \
                == set(zip(order, order[1:])), mid
            assert len(g.edges.get("NextToken", [])) == len(order) - 1, mid


def test_criterion_4_ast_consistency(acc):
    with criterion(4, "ast/feature-graph consistency"):
        for mid, m in acc.sources.items():
            full = build_feature_graph(m, acc.fields_of[mid],
                                       acc.argmaps[mid].get)
            child_only = filter_edges(full, {"Child"})
            assert graph_payload(child_only) == graph_payload(ast_graph(m)), \
                mid


def test_criterion_5_path_contexts(acc):
    with criterion(5, "path contexts"):
        counts = {}
        for mid, m in acc.sources.items():
            if m.text not in counts:
                counts[m.text] = len(all_path_contexts(m.ast))
            got = extract_paths(m.ast, max_length=NO_LIMIT,
                                max_width=NO_LIMIT, max_contexts=NO_LIMIT)
            assert len(got) == counts[m.text], mid

        for mid, m in acc.sources.items():
            once = to_c2vc(m, extract_paths(m.ast, seed=11))
            again = to_c2vc(m, extract_paths(m.ast, seed=11))
            assert once == again, mid


def test_criterion_6_call_graph(acc):
    with criterion(6, "call graph"):
        g = acc.graph
        demo = next(d for d in acc.datas
                    if d.project.project_name == "demo")

        def mid(file_suffix, signature):
            hits = [m for m in demo.methods
                    if m.method_path.endswith(file_suffix)
                    and m.method_signature == signature]
            assert len(hits) == 1
            return hits[0].method_id

        main = mid("app/A.java", "main()")
        assert g.by_caller.get(main, []) == [
            CallEdge(main, mid("app/A.java", "helper()"), "helper()",
                     "Local", 8, 9),
            CallEdge(main, mid("app/B.java", "util(int)"), "util(int)",
                     "Package", 9, 11),
            CallEdge(main, mid("lib/C.java", "fmt(String)"), "fmt(String)",
                     "Project", 10, 11),
            CallEdge(main, "", "format(String)", "API", 11, 16),
        ]

        where = {m.method_id: (m.class_id, m.package_id, m.project_id)
                 for m in acc.cat.methods}
        for e in g.edges:
            if e.call_type == "API":
                assert e.callee == "", e
                continue
            assert e.callee in where, e
            c0, p0, j0 = where[e.caller]
            c1, p1, j1 = where[e.callee]
            expected = ("Local" if c1 == c0
                        else "Package" if p1 == p0
                        else "Project" if j1 == j0
                        else "API")
            assert e.call_type == expected, e

        dist = classify_distribution(g)
        assert dist == recount_distribution(g.edges)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_criterion_7_task_generation(acc, tmp_path):
    with criterion(7, "task generation"):
        payloads = {mid: tkna_text(lex(m.text))
                    for mid, m in acc.sources.items()}
        cmpx = {mid: compute_metrics(m)["CMPX"]
                for mid, m in acc.sources.items()}
        datasets = [
            make_call_masking_task(acc.cat, acc.sources, acc.graph,
                                   seed=13, split_fracs=DEFAULT_SPLIT_FRACS),
            make_property_task("CMPX", {"CMPX": cmpx}, payloads, acc.cat,
                               split_fracs=DEFAULT_SPLIT_FRACS, seed=13),
            make_mutation_task(acc.cat, acc.sources, 0.5, seed=13,
                               split_fracs=DEFAULT_SPLIT_FRACS),
        ]
        project_of = {m.method_id: m.project_id for m in acc.cat.methods}
        for ds in datasets:
            violations = 0
            seen = {}
            for s in ds.samples:
                assert s.split in SPLIT_NAMES, s.sample_id
                proj = project_of[s.method_id]
                if seen.setdefault(proj, s.split) != s.split:
                    violations += 1
            assert violations == 0

        masked = datasets[0]
        twin = make_call_masking_task(acc.cat, acc.sources, acc.graph,
                                      seed=13,
                                      split_fracs=DEFAULT_SPLIT_FRACS)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_task_csv(a, masked)
        write_task_csv(b, twin)
        assert a.read_bytes() == b.read_bytes()

        for s in masked.samples:
            assert unmask_payload(s) == payloads[s.method_id], s.sample_id

        report = evaluate_exact_match(masked, baseline_most_frequent(masked))
        strata = report["per_stratum"].values()
        recombined = sum(r["n"] * r["accuracy"] for r in strata) \
            / sum(r["n"] for r in strata)
        assert abs(recombined - report["overall"]) < 1e-9


def test_criterion_8_tokenizer_study(acc):
    with criterion(8, "tokenizer study"):
        texts = [m.text for _, m in sorted(acc.sources.items())]
        code = train_bpe("".join(texts), 512, corpus_tag="code")
        english = train_bpe(english_sample_text(), 512, corpus_tag="english")
        assert tokenizer_ratio(code, texts) < 100.0 \
            < tokenizer_ratio(english, texts)

        documents = texts + [english_sample_text()]
        for vocab in (code, english):
            for doc in documents:
                assert bpe_decode(bpe_encode(vocab, doc)) == doc

        method_texts = {mid: m.text for mid, m in acc.sources.items()}
        class_texts = {cid: fv.source for d in acc.datas
                       for cid, fv in d.class_views.items()}
        records = entity_sizes(acc.cat, method_texts, class_texts,
                               code, "code")
        table = window_fit(records)
        for key, fracs in table.fractions.items():
            assert fracs == sorted(fracs), key
        got = {(g, t): fracs
               for (g, t, _bucket), fracs in table.fractions.items()}
        assert got == recount_fit(records, table.thresholds)


def test_criterion_9_end_to_end(tmp_path, monkeypatch):
    with criterion(9, "end to end"):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_fixture_corpus(corpus)

        def run_pipeline(ws):
            steps = [
                ["catalog", "--corpus", str(corpus), "--seed", "5"],
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
            env = dict(os.environ)
            env["CODECORPUS_WORKSPACE"] = str(ws)
            for step in steps:
                proc = subprocess.run(
                    [sys.executable, "-m", "codecorpus", *step],
                    capture_output=True, text=True, env=env)
                assert proc.returncode == 0, (step, proc.stderr)
                json.loads(proc.stdout.splitlines()[-1])

        t0 = time.perf_counter()
        run_pipeline(tmp_path / "ws_a")
        elapsed = time.perf_counter() - t0
        run_pipeline(tmp_path / "ws_b")

        def tree(ws):
            return {p.relative_to(ws).as_posix(): p.read_bytes()
                    for p in sorted(ws.rglob("*")) if p.is_file()}

        first, second = tree(tmp_path / "ws_a"), tree(tmp_path / "ws_b")
        assert set(first) == set(second)
        assert first == second
        # the bytes are also those the benchmark recorded for this
        # sequence, so a writer that drifts from `csv` or `json` fails here
        bench = Path(__file__).resolve().parents[1] / "bench"
        monkeypatch.syspath_prepend(str(bench))
        from workloads import tree_digest
        recorded = json.loads((bench / "digests.json").read_text())
        assert tree_digest(tmp_path / "ws_a", corpus) == \
            recorded["fixture_cli"]["5"]
        assert elapsed < 60.0, f"pipeline took {elapsed:.2f}s"
