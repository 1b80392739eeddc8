"""Feature-graph edges checked against hand-traced examples and a path oracle.

The dataflow assertions below were worked out by hand from the flow fixture
before anything ran: each terminal is pinned down by its occurrence rank, so
a test failure names the exact edge that moved. The oracle agreement test
recomputes LastRead/LastWrite by brute-force path enumeration (loops unrolled
until the edge sets saturate) and must match the fixpoint builder exactly.
`build_feature_graph_oracle`, the builder that passed an `emit` flag through
every step, must give the same payload bytes for every method, and
`graph_payload` must write what `graph_payload_oracle` (`json.dumps` over a
dict per node) writes.
"""

from collections import Counter

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import (STATEMENTS, fixture_with_statements,
                      method_named, nth_terminal)

from codecorpus.callgraph import arg_name_maps
from codecorpus.errors import InvalidArgumentError
from codecorpus.featuregraph import (
    EDGE_TYPES, FeatureGraph, GraphNode, ast_graph, build_feature_graph,
    filter_edges, graph_payload, parse_graph_payload,
)
from codecorpus.parser import file_view

from oracles import (build_feature_graph_oracle, flow_edges_saturated,
                     graph_payload_oracle)


@pytest.fixture(scope="module")
def flow(views):
    return views["flowlab/flow/Flow.java"]


def _graph(flow_view, name):
    m = method_named(flow_view, name)
    return m, build_feature_graph(m, flow_view.classes[0].fields)


# ---------------------------------------------------------------------------
# Hand-traced dataflow edges
# ---------------------------------------------------------------------------

def test_straight_line_defs_and_uses(flow):
    # int x = 1; int y = x; return y;
    m, g = _graph(flow, "straight")
    x0, x1 = (nth_terminal(m.ast, "x", k) for k in (0, 1))
    y0, y1 = (nth_terminal(m.ast, "y", k) for k in (0, 1))
    assert set(g.edges["LastWrite"]) == {(x1, x0), (y1, y0)}
    assert set(g.edges["LastRead"]) == set()          # nothing is read twice
    assert set(g.edges["ComputedFrom"]) == {(y0, x1)}
    assert set(g.edges["LastLexicalUse"]) == {(x1, x0), (y1, y0)}


def test_branch_join_unions_writes_and_kills_the_declaration(flow):
    # int b = 0; if (a > 0) { b = a; } else { b = 0; } int c = b; ...
    m, g = _graph(flow, "joinuse")
    b0, b1, b2, b3 = (nth_terminal(m.ast, "b", k) for k in range(4))
    a0, a1, a2 = (nth_terminal(m.ast, "a", k) for k in range(3))
    c0, c1 = (nth_terminal(m.ast, "c", k) for k in (0, 1))
    cond = m.ast.find("Binary")[0]

    # the use after the join may see either branch's write, never the decl
    assert set(g.edges["LastWrite"]) == {
        (a1, a0), (a2, a0), (b3, b1), (b3, b2), (c1, c0)}
    assert (b3, b0) not in set(g.edges["LastWrite"])
    assert set(g.edges["LastRead"]) == {(a2, a1)}
    assert set(g.edges["GuardedBy"]) == {(a2, cond)}
    assert set(g.edges["GuardedByNegation"]) == set()
    assert set(g.edges["ComputedFrom"]) == {(b1, a2), (c0, b3)}


def test_loop_fixpoint_reaches_back_edge_writes(flow):
    # int i = 0; while (i < n) { i = i + 1; } return i;
    m, g = _graph(flow, "looped")
    i0, i1, i2, i3, i4 = (nth_terminal(m.ast, "i", k) for k in range(5))
    n0, n1 = (nth_terminal(m.ast, "n", k) for k in (0, 1))

    # every i use may see the initializer or the loop-body write
    assert set(g.edges["LastWrite"]) == {
        (i1, i0), (i1, i2), (i3, i0), (i3, i2), (i4, i0), (i4, i2), (n1, n0)}
    # the condition rereads n each iteration: a self loop after saturation
    assert set(g.edges["LastRead"]) == {(i1, i3), (i3, i1), (i4, i1), (n1, n1)}
    assert set(g.edges["ComputedFrom"]) == {(i2, i3)}
    assert set(g.edges["LastLexicalUse"]) == {
        (i1, i0), (i2, i1), (i3, i2), (i4, i3), (n1, n0)}


def test_assignment_replaces_the_write_set(flow):
    # int x = a + 1; int y = x * 2; x = y - a; return x;
    m, g = _graph(flow, "chain")
    x0, x1, x2, x3 = (nth_terminal(m.ast, "x", k) for k in range(4))
    y0, y1 = (nth_terminal(m.ast, "y", k) for k in (0, 1))
    a0, a1, a2 = (nth_terminal(m.ast, "a", k) for k in range(3))

    assert set(g.edges["LastWrite"]) == {
        (a1, a0), (x1, x0), (y1, y0), (a2, a0), (x3, x2)}
    assert (x3, x0) not in set(g.edges["LastWrite"])  # reassignment wins
    assert set(g.edges["LastRead"]) == {(a2, a1), (x3, x1)}
    assert set(g.edges["ComputedFrom"]) == {
        (x0, a1), (y0, x1), (x2, y1), (x2, a2)}


def test_increment_reads_then_writes(flow):
    # a++; return a;
    m, g = _graph(flow, "bump")
    a0, a1, a2 = (nth_terminal(m.ast, "a", k) for k in range(3))
    assert set(g.edges["LastWrite"]) == {(a1, a0), (a2, a1)}
    assert set(g.edges["LastRead"]) == {(a2, a1)}


def _flow_edges_by_occurrence(loop: str) -> dict[str, set]:
    """LastRead and LastWrite edges of a method around `loop`, each end
    named by (lexeme, occurrence), so two loop forms compare."""
    view = file_view("class A { boolean f(boolean go) { " + loop
                     + " { go = false; } return go; } }")
    m = view.classes[0].methods[0]
    g = build_feature_graph(m, {})
    seen = Counter()
    name = {}
    for t in m.ast.terminals():
        lexeme = m.ast.lexeme(t)
        name[t] = (lexeme, seen[lexeme])
        seen[lexeme] += 1
    return {fam: {(name[a], name[b]) for a, b in g.edges[fam]}
            for fam in ("LastRead", "LastWrite")}


def test_a_single_name_for_condition_flows_like_a_while_condition():
    got = _flow_edges_by_occurrence("for (; go; )")
    # go#0 the parameter, go#1 the condition, go#2 the write, go#3 the return
    assert got["LastWrite"] == {(("go", 1), ("go", 0)), (("go", 1), ("go", 2)),
                                (("go", 3), ("go", 0)), (("go", 3), ("go", 2))}
    assert got["LastRead"] == {(("go", 1), ("go", 1)), (("go", 3), ("go", 1))}
    assert got == _flow_edges_by_occurrence("while (go)")


def test_guard_edges_point_at_the_condition(flow):
    m, g = _graph(flow, "guard")
    a2 = nth_terminal(m.ast, "a", 2)                # the a inside the branch
    cond = m.ast.find("Binary")[0]
    assert set(g.edges["GuardedBy"]) == {(a2, cond)}
    # b appears only in the else branch and not in the condition: no edge
    assert set(g.edges["GuardedByNegation"]) == set()


def test_negated_guard_for_condition_variable_in_else_branch():
    v = file_view(
        "class A { int f(int a) {"
        " int r = 0;"
        " if (a > 0) { r = a; } else { r = a + 1; }"
        " return r; } }")
    m = v.classes[0].methods[0]
    g = build_feature_graph(m)
    cond = m.ast.find("Binary")[0]
    a_then = nth_terminal(m.ast, "a", 2)
    a_else = nth_terminal(m.ast, "a", 3)
    assert set(g.edges["GuardedBy"]) == {(a_then, cond)}
    assert set(g.edges["GuardedByNegation"]) == {(a_else, cond)}


# ---------------------------------------------------------------------------
# Synthetic nodes
# ---------------------------------------------------------------------------

def test_field_use_hangs_off_a_synthetic_definition(flow):
    # total = total + a; return total;
    m, g = _graph(flow, "fieldflow")
    t0, t1, t2 = (nth_terminal(m.ast, "total", k) for k in range(3))
    a0, a1 = (nth_terminal(m.ast, "a", k) for k in (0, 1))
    fdef = len(m.ast)
    assert g.nodes[fdef].node_type == "FieldDef"
    assert g.nodes[fdef].token == "total"
    assert set(g.edges["LastWrite"]) == {(t1, fdef), (a1, a0), (t2, t0)}
    assert set(g.edges["LastRead"]) == {(t2, t1)}
    assert set(g.edges["ComputedFrom"]) == {(t0, t1), (t0, a1)}
    # synthetic nodes never join the token order
    assert fdef not in g.token_order


def test_field_write_without_read_leaves_the_definition_alone(flow):
    # this.total = v;
    m, g = _graph(flow, "setTotal")
    t0 = nth_terminal(m.ast, "total", 0)
    v0, v1 = (nth_terminal(m.ast, "v", k) for k in (0, 1))
    fdef = len(m.ast)
    assert g.nodes[fdef].node_type == "FieldDef"
    assert set(g.edges["LastWrite"]) == {(v1, v0)}
    assert set(g.edges["ComputedFrom"]) == {(t0, v1)}


def test_resolved_call_sites_grow_formal_arg_nodes():
    v = file_view("class A { int g(int p, int q) { return p + q; }"
                  " int f() { return g(1, 2); } }")
    m = method_named(v, "f")
    g = build_feature_graph(m, arg_name_resolver=lambda node: ["p", "q"])
    synth = [n for n in g.nodes if n.node_type == "FormalArgName"]
    assert [n.token for n in synth] == ["p", "q"]
    assert [n.index for n in synth] == [len(m.ast), len(m.ast) + 1]
    lit1 = nth_terminal(m.ast, "1", 0)
    lit2 = nth_terminal(m.ast, "2", 0)
    assert set(g.edges["FormalArgName"]) == {
        (lit1, synth[0].index), (lit2, synth[1].index)}


# ---------------------------------------------------------------------------
# Syntactic families and serialization
# ---------------------------------------------------------------------------

def test_next_token_is_the_terminal_chain(views):
    for rel, view in views.items():
        for cls in view.classes:
            for m in cls.methods:
                g = build_feature_graph(m, cls.fields)
                terms = m.ast.terminals()
                assert g.token_order == terms, (rel, m.name)
                assert set(g.edges["NextToken"]) == set(zip(terms, terms[1:]))


def test_return_to_points_at_the_declaration(flow):
    m, g = _graph(flow, "straight")
    ret = nth_terminal(m.ast, "return", 0)
    assert set(g.edges["ReturnTo"]) == {(ret, 0)}


def test_child_edges_alone_reproduce_the_plain_ast(flow):
    for m in flow.classes[0].methods:
        g = build_feature_graph(m, flow.classes[0].fields)
        plain = ast_graph(m)
        pruned = filter_edges(g, {"Child"})
        assert pruned.edges == plain.edges
        assert pruned.nodes[:len(plain.nodes)] == plain.nodes
        assert pruned.token_order == plain.token_order


def test_filter_edges_rejects_bad_edge_sets(flow):
    _, g = _graph(flow, "straight")
    with pytest.raises(InvalidArgumentError):
        filter_edges(g, set())
    with pytest.raises(InvalidArgumentError):
        filter_edges(g, {"Child", "Sibling"})


def test_payload_roundtrip_is_byte_stable(flow):
    for name in ("straight", "joinuse", "fieldflow"):
        _, g = _graph(flow, name)
        payload = graph_payload(g)
        again = graph_payload(parse_graph_payload(payload))
        assert again == payload
        back = parse_graph_payload(payload)
        assert back.nodes == g.nodes
        assert back.token_order == g.token_order
        assert {t: set(es) for t, es in back.edges.items() if es} == \
            {t: set(es) for t, es in g.edges.items() if es}


# ---------------------------------------------------------------------------
# Path-enumeration oracle
# ---------------------------------------------------------------------------

def test_fixpoint_builder_matches_path_enumeration(views):
    subset = ["flowlab/flow/Flow.java", "demo/app/A.java", "demo/app/B.java",
              "demo/lib/C.java", "metricsuite/calc/Calc.java",
              "textzoo/text/Box.java", "textzoo/text/Solo.java"]
    for rel in subset:
        view = views[rel]
        for cls in view.classes:
            for m in cls.methods:
                g = build_feature_graph(m, cls.fields)
                want, _ = flow_edges_saturated(m, cls.fields)
                for fam, expected in want.items():
                    assert set(g.edges[fam]) == expected, (rel, m.name, fam)


# ---------------------------------------------------------------------------
# Builder oracle: the same payload bytes
# ---------------------------------------------------------------------------

def _assert_payloads_match_the_oracle(datas):
    for d in datas:
        argmaps = arg_name_maps(d)
        for meta in d.methods:
            m = d.sources[meta.method_id]
            fields = d.class_views[meta.class_id].classes[0].fields
            resolve = argmaps.get(meta.method_id, {}).get
            g = build_feature_graph(m, fields, resolve)
            assert graph_payload(g) == graph_payload_oracle(g) == \
                graph_payload(build_feature_graph_oracle(m, fields, resolve)), \
                meta.method_id
            tree = ast_graph(m)
            assert graph_payload(tree) == graph_payload_oracle(tree), \
                meta.method_id


def test_payloads_match_the_builder_oracle(both_corpora):
    _assert_payloads_match_the_oracle(both_corpora)


def test_long_method_payloads_match_the_builder_oracle(longgen_corpus_data):
    _assert_payloads_match_the_oracle(longgen_corpus_data)


_TOKEN = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029'),
                           st.characters(codec="utf-8"),
                           st.characters(min_codepoint=0x10000,
                                         codec="utf-8")),
                 max_size=6)
_INDEX = st.integers(0, 2 ** 40)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_TOKEN, st.none() | _TOKEN, _INDEX, _INDEX),
                max_size=6),
       st.dictionaries(st.sampled_from(EDGE_TYPES + ("Sibling",)),
                       st.lists(st.tuples(_INDEX, _INDEX), max_size=4)))
def test_payloads_are_written_as_json_dumps_writes_them(nodes, edges):
    g = FeatureGraph([GraphNode(i, *node) for i, node in enumerate(nodes)],
                     edges, [])
    assert graph_payload(g) == graph_payload_oracle(g)


# `seed` is a field of most fixture classes
_FLOW_STATEMENTS = (
    *STATEMENTS,
    "while (i < n) { i = i + seed; int seed = i; }",
    "for (int k = 0; k < n; k++) { while (k > seed) "
    "{ seed = g(k, this.seed); k--; } }",
    "this.seed += seed++ - --k;",
    "if (seed > 0) { int t = seed; } else { seed = -seed; }",
    "Box p = new Box(seed); p.seed = q.seed;",
)


def _some_formals(node):
    # resolves about three call sites in four, to up to three names
    return ["a", "b", "c"][:node % 4] or None


@settings(max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(fixture_with_statements(_FLOW_STATEMENTS))
def test_payloads_match_the_builder_oracle_with_statements_inserted(view):
    for cls in view.classes:
        for m in cls.methods:
            for resolve in (None, _some_formals):
                assert graph_payload(
                    build_feature_graph(m, cls.fields, resolve)) == \
                    graph_payload(
                        build_feature_graph_oracle(m, cls.fields, resolve)), \
                    m.signature


def test_a_local_declared_later_in_a_loop_shadows_the_field_from_the_start():
    # From the second pass on, `v` in the sum is the local declared after it;
    # the edges come from the saturated state only, so none reaches the field.
    v = file_view("class S { int v; int f(int n) { int s = 0;"
                  " while (n > 0) { s = s + v; int v = n; n = n - 1; }"
                  " return s; } }")
    m = v.classes[0].methods[0]
    g = build_feature_graph(m, v.classes[0].fields)
    fdef = len(m.ast)
    assert g.nodes[fdef].node_type == "FieldDef"
    v_use, v_decl = (nth_terminal(m.ast, "v", k) for k in (0, 1))
    assert {e for t in ("LastRead", "LastWrite") for e in g.edges[t]
            if e[0] == v_use} == {(v_use, v_use), (v_use, v_decl)}
    assert not any(fdef in e for es in g.edges.values() for e in es)


def test_a_resolved_call_in_nested_loops_gets_one_formal_per_argument():
    v = file_view("class A { int g(int p, int q) { return p; }"
                  " int f(int n) { for (int i = 0; i < n; i++) {"
                  " while (n > i) { n = g(i, n); } } return n; } }")
    m = method_named(v, "f")
    g = build_feature_graph(m, arg_name_resolver=lambda node: ["p", "q"])
    synth = [n for n in g.nodes if n.node_type == "FormalArgName"]
    assert [(n.index, n.token) for n in synth] == [
        (len(m.ast), "p"), (len(m.ast) + 1, "q")]
    i_arg, n_arg = nth_terminal(m.ast, "i", 4), nth_terminal(m.ast, "n", 4)
    assert g.edges["FormalArgName"] == [(i_arg, len(m.ast)),
                                        (n_arg, len(m.ast) + 1)]
