"""Call-graph resolution against hand-traced fixture edges.

Every expected edge below was read off the fixture sources by eye: line and
column point at the callee name token, the locality class follows from where
the callee lives relative to the caller (same class, same package, same
project, or outside the corpus). Unresolved calls must appear as API edges
with an empty callee id, so the two notions coincide by construction and the
partition test checks that they also coincide in the output.
"""

import pytest

from codecorpus.callgraph import (
    CALL_TYPES, CALLGRAPH_HEADER, CallEdge, CallGraph, arg_name_maps,
    build_callgraph, call_sites_of, classify_distribution, connectivity_props,
    n_hop_context, read_callgraph_csv, write_callgraph_csv,
)
from codecorpus.catalog import Catalog
from codecorpus.errors import InputError, InvalidArgumentError, NotFoundError

from oracles import recount_distribution


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

    assert call_sites_of(g, main) == [
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
        edges = call_sites_of(g, _mid(data, file_suffix, signature))
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
    names = [(e.callee_name, e.col) for e in call_sites_of(g, main)]
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
    cat = data.catalog()
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
    # helper() takes no arguments, so only util and fmt contribute
    assert sorted(maps[main].values()) == [["n"], ["s"]]
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
