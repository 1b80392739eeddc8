"""Call-graph resolution against hand-traced fixture edges.

Every expected edge below was read off the fixture sources by eye: line and
column point at the callee name token, the locality class follows from where
the callee lives relative to the caller (same class, same package, same
project, or outside the corpus). Unresolved calls must appear as API edges
with an empty callee id, so the two notions coincide by construction and the
partition test checks that they also coincide in the output.
"""

import pytest

from codecorpus import callgraph
from codecorpus.callgraph import (
    CALL_TYPES, CALLGRAPH_HEADER, CallEdge, CallGraph, arg_name_maps,
    build_callgraph, classify_distribution, connectivity_props,
    n_hop_context, read_callgraph_csv, write_callgraph_csv,
)
from codecorpus.catalog import catalog_project
from codecorpus.errors import InputError, InvalidArgumentError, NotFoundError
from codecorpus.lexer import KIND_IDENTIFIER
from codecorpus.parser import CallSite, call_sites
from codecorpus.pipeline import merged_catalog
from codecorpus.taskgen import make_call_masking_task

from oracles import (SiteExtractorOracle, call_sites_oracle,
                     mask_sites_oracle, recount_distribution,
                     simple_type_oracle, swap_sites_oracle)


def _project(corpus_data, name):
    return next(d for d in corpus_data if d.project.project_name == name)


def _mid(data, file_suffix, signature):
    hits = [m for m in data.methods
            if m.method_path.endswith(file_suffix)
            and m.method_signature == signature]
    assert len(hits) == 1, (file_suffix, signature, hits)
    return hits[0].method_id


@pytest.fixture(scope="module")
def demo(corpus_data):
    data = _project(corpus_data, "demo")
    return data, build_callgraph([data])


@pytest.fixture(scope="module")
def textzoo(corpus_data):
    data = _project(corpus_data, "textzoo")
    return data, build_callgraph([data])


# ---------------------------------------------------------------------------
# Hand-traced edges
# ---------------------------------------------------------------------------

def test_demo_main_hits_all_four_locality_classes(demo):
    data, g = demo
    main = _mid(data, "app/A.java", "main()")
    helper = _mid(data, "app/A.java", "helper()")
    util = _mid(data, "app/B.java", "util(int)")
    fmt = _mid(data, "lib/C.java", "fmt(String)")

    assert g.by_caller.get(main, []) == [
        CallEdge(main, helper, "helper()", "Local", 8, 9),
        CallEdge(main, util, "util(int)", "Package", 9, 11),
        CallEdge(main, fmt, "fmt(String)", "Project", 10, 11),
        CallEdge(main, "", "format(String)", "API", 11, 16),
    ]
    # nothing else in the project makes calls
    assert len(g.edges) == 4


def test_textzoo_edges_by_line(textzoo):
    data, g = textzoo

    def sites(file_suffix, signature):
        edges = g.by_caller.get(_mid(data, file_suffix, signature), [])
        return [(e.line, e.callee_signature, e.call_type, e.callee == "")
                for e in edges]

    # overloads pick the right target from argument shapes
    assert sites("text/Over.java", "go()") == [
        (14, "f(int)", "Local", False),
        (15, "f(String)", "Local", False),
    ]
    # constructor call plus a same-class instance call
    assert sites("text/Box.java", "scaled(int)") == [
        (21, "Box(int,int)", "Local", False),
        (22, "area()", "Local", False),
    ]
    # interface dispatch lands on the declaration in the same package
    assert sites("text/Helper.java", "describe(Shape)") == [
        (8, "area()", "Package", False),
        (9, "wrap(String,int)", "Project", False),
        (10, "valueOf(int)", "API", True),
    ]
    assert sites("text/Helper.java", "grow(Shape,int)") == [
        (14, "scaled(int)", "Package", False),
    ]
    # one method per locality class
    assert sites("text/Solo.java", "localOnly()") == [
        (8, "pick()", "Local", False)]
    assert sites("text/Solo.java", "packageOnly()") == [
        (16, "Box(int,int)", "Package", False),
        (17, "area()", "Package", False),
    ]
    assert sites("text/Solo.java", "projectOnly(int,int)") == [
        (21, "flip(int,int)", "Project", False)]
    assert sites("text/Solo.java", "apiOnly(int)") == [
        (25, "valueOf(int)", "API", True)]


def test_name_and_column_point_at_the_callee_token(demo):
    data, g = demo
    main = _mid(data, "app/A.java", "main()")
    names = [(e.callee_name, e.col) for e in g.by_caller.get(main, [])]
    assert names == [("helper", 9), ("util", 11), ("fmt", 11), ("format", 16)]


def test_constructors_can_be_excluded(corpus_data):
    data = _project(corpus_data, "textzoo")
    with_ctors = build_callgraph([data])
    without = build_callgraph([data], include_constructors=False)
    dropped = {(e.caller, e.line, e.callee_signature)
               for e in with_ctors.edges} - \
              {(e.caller, e.line, e.callee_signature) for e in without.edges}
    assert dropped == {
        (_mid(data, "text/Box.java", "scaled(int)"), 21, "Box(int,int)"),
        (_mid(data, "text/Solo.java", "packageOnly()"), 16, "Box(int,int)"),
    }


# ---------------------------------------------------------------------------
# Call sites
# ---------------------------------------------------------------------------

def test_call_sites_match_the_previous_scans(both_corpora):
    # the call graph's, the call-mask task's and the mutation task's scans,
    # each with its own copy of the rule that names a `new`
    for data in both_corpora:
        for m in data.sources.values():
            ast = m.ast
            order = ast.terminals()
            for ctors in (False, True):
                sites = call_sites(ast, include_new=ctors)
                assert [(s.node, s.name, ast.lexeme(s.name), s.args)
                        for s in sites] == call_sites_oracle(ast, ctors)
                assert [(s.name, order.index(s.name), ast.lexeme(s.name))
                        for s in sites
                        if ast.token(s.name).kind == KIND_IDENTIFIER] \
                    == mask_sites_oracle(m, ctors)
            assert [(s.node, s.args) for s in call_sites(ast)
                    if len(s.args) >= 2] == swap_sites_oracle(m)


def test_a_new_is_named_by_its_last_identifier_before_generics(tmp_path):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text(
        "class A {\n"
        "  Object f() {\n"
        "    Object o = new int(5);\n"
        "    return new a.B<String>(1);\n"
        "  }\n"
        "}\n", encoding="utf-8")
    data = catalog_project(tmp_path / "p", corpus_root=tmp_path)
    (method,) = data.sources.values()
    assert [method.ast.lexeme(s.name) for s in call_sites(method.ast)] == \
        ["int", "B"]
    g = build_callgraph([data])
    assert [(e.callee_signature, e.call_type, e.line, e.col)
            for e in g.edges] == [("int(int)", "API", 3, 20),
                                  ("B(int)", "API", 4, 18)]
    assert build_callgraph([data], include_constructors=False).edges == []
    cat = merged_catalog([data])
    for seed in range(4):
        masked = make_call_masking_task(cat, data.sources, g, seed=seed,
                                        include_constructors=True)
        assert [(s.label, s.stratum) for s in masked.samples] == \
            [("B", "API")]
    assert make_call_masking_task(cat, data.sources, g).samples == []


def test_a_number_literal_is_typed_by_its_kind_and_suffix(tmp_path):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text(
        "class A {\n"
        "  void g(int x) { }\n"
        "  void g(long x) { }\n"
        "  void g(float x) { }\n"
        "  void g(double x) { }\n"
        "  void f() { g(1); g(1L); g(0x1l); g(1.5f); g(1.5); g(2d); h(1e3F); }\n"
        "}\n", encoding="utf-8")
    data = catalog_project(tmp_path / "p", corpus_root=tmp_path)
    assert [e.callee_signature for e in build_callgraph([data]).edges] == [
        "g(int)", "g(long)", "g(long)", "g(float)", "g(double)", "g(double)",
        "h(float)"]


def test_a_qualified_new_resolves_the_named_class(tmp_path):
    box = ("package {pkg};\n"
           "class Box {{\n"
           "  Box(int w, int h) {{ }}\n"
           "  Object f() {{\n"
           "    Object a = new q.Box(1, 2);\n"
           "    return new Box(1, 2);\n"
           "  }}\n"
           "}}\n")
    for pkg in ("p", "q"):
        (tmp_path / "proj" / pkg).mkdir(parents=True)
        (tmp_path / "proj" / pkg / "Box.java").write_text(
            box.format(pkg=pkg), encoding="utf-8")
    data = catalog_project(tmp_path / "proj", corpus_root=tmp_path)
    g = build_callgraph([data])
    p_f = _mid(data, "p/Box.java", "f()")
    p_ctor = _mid(data, "p/Box.java", "Box(int,int)")
    q_ctor = _mid(data, "q/Box.java", "Box(int,int)")
    assert [(e.callee, e.callee_signature, e.call_type, e.line)
            for e in g.by_caller[p_f]] == [
        (q_ctor, "Box(int,int)", "Project", 5),
        (p_ctor, "Box(int,int)", "Local", 6),
    ]


# ---------------------------------------------------------------------------
# Receiver resolution against the previous case-by-case rule
# ---------------------------------------------------------------------------

_RECEIVERS = {
    "p/Box.java": """package p;
public class Box {
    int w;
    Box next;
    Box(int w) { this.w = w; }
    Box grow(int by) { return new Box(w + by); }
    int size() { return w; }
    static Box make() { return new Box(1); }
}
""",
    "p/User.java": """package p;
import q.Other;
public class User {
    Box box;
    int run(Box b, int n) {
        int k = size(n);
        Box local = b.grow(n);
        this.box.grow(1);
        (local).size();
        new Box(2).size();
        make2().grow((k));
        Box.make().size();
        q.Other.twice(n);
        Other.twice(k);
        box.size();
        this.run(b, k);
        return local.next.size();
    }
    int size(int n) { Other box = null; box.twice(n); return n; }
    Box make2() { return box; }
}
""",
    "q/Other.java": """package q;
public class Other { public static int twice(int x) { return x + x; } }
""",
}


@pytest.fixture(scope="module")
def receivers_corpus_data(tmp_path_factory) -> list:
    """One project with a call through every receiver shape: implicit,
    `this`, a parameter, a local (one shadowing a field), `this.f`, a
    parenthesized name, `new T(...)`, a call, a simple and a qualified
    class name, and a dotted chain through a field."""
    root = tmp_path_factory.mktemp("receivers")
    for rel, text in _RECEIVERS.items():
        (root / "proj" / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / "proj" / rel).write_text(text, encoding="utf-8")
    return [catalog_project(root / "proj", corpus_root=root)]


def _graphs_and_arg_names(datas):
    return {ctors: (build_callgraph(datas, include_constructors=ctors).edges,
                    [arg_name_maps(d, ctors) for d in datas])
            for ctors in (False, True)}


@pytest.mark.parametrize("corpus", ["receivers_corpus_data", "corpus_data",
                                    "scaled_corpus_data",
                                    "longgen_corpus_data"])
def test_edges_and_arg_names_match_the_previous_resolution(
        request, monkeypatch, corpus):
    datas = request.getfixturevalue(corpus)
    got = _graphs_and_arg_names(datas)
    monkeypatch.setattr(callgraph, "_SiteExtractor", SiteExtractorOracle)
    monkeypatch.setattr(callgraph, "call_sites", lambda ast, ctors: [
        CallSite(node, name, args)
        for node, name, _n, args in call_sites_oracle(ast, ctors)])
    assert got == _graphs_and_arg_names(datas)


def test_resolver_type_names_are_already_simple(both_corpora):
    # what the previous resolver simplified: field, parameter and return
    # types, and the erased names of locals and `new` (the parser tests
    # compare type_simple_name with the erased text)
    for data in both_corpora:
        for view in data.class_views.values():
            for cls in view.classes:
                names = [*cls.fields.values()]
                for m in cls.methods:
                    names += [*m.param_types, m.return_type]
                assert all(simple_type_oracle(t) == t for t in names)


# ---------------------------------------------------------------------------
# Corpus-wide partition
# ---------------------------------------------------------------------------

def test_locality_follows_the_catalog_partition(corpus_data):
    g = build_callgraph(list(corpus_data))
    meta = {}
    for data in corpus_data:
        for m in data.methods:
            meta[m.method_id] = m
    assert g.edges, "fixture corpus should produce call edges"
    for e in g.edges:
        assert e.call_type in CALL_TYPES
        assert (e.callee == "") == (e.call_type == "API")
        if not e.callee:
            continue
        caller, callee = meta[e.caller], meta[e.callee]
        assert caller.project_id == callee.project_id
        if e.call_type == "Local":
            assert caller.class_id == callee.class_id
        elif e.call_type == "Package":
            assert caller.package_id == callee.package_id
            assert caller.class_id != callee.class_id
        else:
            assert caller.package_id != callee.package_id


def test_edges_are_sorted_by_caller_then_position(corpus_data):
    g = build_callgraph(list(corpus_data))
    keys = [(e.caller, e.line, e.col) for e in g.edges]
    assert keys == sorted(keys)


def test_distribution_sums_to_one_and_matches_a_recount(corpus_data):
    g = build_callgraph(list(corpus_data))
    dist = classify_distribution(g)
    assert set(dist) == set(CALL_TYPES)
    assert abs(sum(dist.values()) - 1.0) < 1e-12
    assert dist == recount_distribution(g.edges)
    with pytest.raises(InvalidArgumentError):
        classify_distribution(CallGraph([]))


# ---------------------------------------------------------------------------
# Connectivity tables
# ---------------------------------------------------------------------------

def test_connectivity_counts_for_the_demo_project(demo):
    data, g = demo
    cat = merged_catalog([data])
    props = connectivity_props(g, cat)
    main = _mid(data, "app/A.java", "main()")
    helper = _mid(data, "app/A.java", "helper()")
    util = _mid(data, "app/B.java", "util(int)")
    fmt = _mid(data, "lib/C.java", "fmt(String)")
    twice = _mid(data, "lib/C.java", "twice(int)")

    assert props["NUCC"][main] == 3      # helper, util, fmt resolve
    assert props["NMLC"][main] == 1      # helper()
    assert props["NMNC"][main] == 3      # util, fmt, and the API call
    assert props["NUPC"][main] == 0
    for mid in (helper, util, fmt):
        assert props["NUPC"][mid] == 1
        assert props["NUCC"][mid] == 0
    # an uncalled leaf gets explicit zeros in every table
    assert all(props[k][twice] == 0 for k in ("NUPC", "NUCC", "NMLC", "NMNC"))
    # zero-fill covers the whole catalog
    for k in ("NUPC", "NUCC", "NMLC", "NMNC"):
        assert set(props[k]) == {m.method_id for m in cat.methods}


# ---------------------------------------------------------------------------
# Hop contexts
# ---------------------------------------------------------------------------

def test_callee_hops_collect_neighbors_and_external_names(demo):
    data, g = demo
    main = _mid(data, "app/A.java", "main()")
    helper = _mid(data, "app/A.java", "helper()")
    util = _mid(data, "app/B.java", "util(int)")
    fmt = _mid(data, "lib/C.java", "fmt(String)")

    bundle = n_hop_context(g, main, 1)
    assert bundle.hop_sets == [{main}, {main, helper, util, fmt}]
    assert bundle.external_names == {"format"}
    assert dict(bundle.callee_name_counts) == {
        "helper": 1, "util": 1, "fmt": 1, "format": 1}

    # the demo graph is one hop deep: extra hops add nothing
    two = n_hop_context(g, main, 2)
    assert two.hop_sets[2] == two.hop_sets[1]


def test_bundles_share_no_mutable_field(demo):
    data, g = demo
    main = _mid(data, "app/A.java", "main()")
    helper = _mid(data, "app/A.java", "helper()")
    one, other = n_hop_context(g, main, 1), n_hop_context(g, helper, 1)
    assert one.external_names is not other.external_names
    assert one.callee_name_counts is not other.callee_name_counts
    assert other.external_names == set()


def test_zero_hops_keep_only_the_center(demo):
    data, g = demo
    main = _mid(data, "app/A.java", "main()")
    bundle = n_hop_context(g, main, 0)
    assert bundle.hop_sets == [{main}]
    assert bundle.external_names == set()
    assert sum(bundle.callee_name_counts.values()) == 4


def test_caller_direction_walks_edges_backwards(demo):
    data, g = demo
    main = _mid(data, "app/A.java", "main()")
    helper = _mid(data, "app/A.java", "helper()")
    bundle = n_hop_context(g, helper, 1, direction="caller")
    assert bundle.hop_sets == [{helper}, {helper, main}]
    assert dict(bundle.callee_name_counts) == {}


def test_hop_context_rejects_bad_arguments(demo):
    data, g = demo
    main = _mid(data, "app/A.java", "main()")
    with pytest.raises(InvalidArgumentError):
        n_hop_context(g, main, -1)
    with pytest.raises(InvalidArgumentError):
        n_hop_context(g, main, 1, direction="sideways")
    with pytest.raises(NotFoundError):
        n_hop_context(g, main, 1, known_ids={"somebody-else"})


# ---------------------------------------------------------------------------
# Formal-name maps and serialization
# ---------------------------------------------------------------------------

def test_arg_name_maps_list_callee_formals(demo):
    data, _g = demo
    main = _mid(data, "app/A.java", "main()")
    maps = arg_name_maps(data)
    assert set(maps) == {m.method_id for m in data.methods}
    # helper() takes no arguments, so only util and fmt contribute; the
    # keys are their call nodes, which FTGR looks up
    ast = data.sources[main].ast
    assert {ast.lexeme(s.name): maps[main][s.node]
            for s in call_sites(ast) if s.node in maps[main]} == \
        {"util": ["n"], "fmt": ["s"]}
    assert len(maps[main]) == 2
    assert maps[_mid(data, "app/A.java", "helper()")] == {}


def test_csv_roundtrip_preserves_edges(tmp_path, demo):
    _data, g = demo
    path = tmp_path / "edges.csv"
    write_callgraph_csv(path, g)
    again = read_callgraph_csv(path)
    assert again.edges == g.edges

    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CALLGRAPH_HEADER)

    bad = tmp_path / "bad.csv"
    bad.write_text("caller,callee\nx,y\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_callgraph_csv(bad)
