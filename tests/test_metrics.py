"""Metric values checked against hand-computed rows and a path enumerator.

The NPTH recurrence is cross-checked by oracles.npath_enumerator, which walks
condition outcomes and multiplies out actual execution paths instead of
applying the recurrence. The two agree on every method in the fixture corpus.
"""

from conftest import method_named

from codecorpus.metrics import compute_metrics, npath, token_census
from codecorpus.parser import file_view

from oracles import npath_enumerator

# name -> (TLOC, SLOC, CMPX, NPTH, MXIN, NMRT); worked out from the source
# by hand before running anything
HAND_TABLE = {
    "zero":    (3, 3, 1, 1, 0, 1),
    "nothing": (2, 2, 1, 1, 0, 0),
    "abs":     (6, 6, 2, 2, 1, 2),
    "clamp":   (6, 6, 3, 3, 1, 1),
    "pick":    (7, 7, 2, 2, 1, 2),
    "sum":     (9, 9, 2, 2, 1, 1),
    "grid":    (13, 13, 3, 3, 2, 1),
    "steps":   (7, 7, 2, 2, 1, 1),
    "branchy": (11, 11, 3, 3, 2, 1),
    "trio":    (13, 13, 4, 8, 1, 1),
    "either":  (6, 6, 3, 3, 1, 2),
    "ternary": (4, 4, 2, 1, 0, 1),
    "hits":    (9, 9, 3, 3, 2, 1),
}

# name -> (NMTK, NMPR, NUID, NMOP, NMLT); counted token by token
HAND_COUNTS = {
    "zero":    (10, 0, 1, 0, 1),
    "abs":     (25, 1, 2, 2, 2),
    "sum":     (42, 1, 4, 7, 3),
    "ternary": (23, 1, 3, 4, 3),
    "hits":    (50, 1, 4, 8, 5),
}


# Code sharing a line with a declaration belongs to the field or method it
# spells, not to the declaration whose lines it is on.
SHARED_LINES = (
    "class C {\n"
    "    void g() { int y = 1; } int z;\n"
    "    int a() { return 1; } int b(int x) { return x + 2; }\n"
    "}\n")

# name -> (NMTK, SLOC, NUID, NMOP, NMLT), counted on the declaration alone
SHARED_LINE_COUNTS = {
    "g": (11, 1, 2, 1, 1),   # void g ( ) { int y = 1 ; }
    "a": (9, 1, 1, 0, 1),    # int a ( ) { return 1 ; }
    "b": (13, 1, 2, 1, 1),   # int b ( int x ) { return x + 2 ; }
}


def test_hand_computed_metric_table(views):
    calc = views["metricsuite/calc/Calc.java"]
    seen = set()
    for m in calc.classes[0].methods:
        got = compute_metrics(m)
        tloc, sloc, cx, np_, mx, rt = HAND_TABLE[m.name]
        assert got["TLOC"] == tloc, m.name
        assert got["SLOC"] == sloc, m.name
        assert got["CMPX"] == cx, m.name
        assert got["NPTH"] == np_, m.name
        assert got["MXIN"] == mx, m.name
        assert got["NMRT"] == rt, m.name
        assert got["NAME"] == m.name
        seen.add(m.name)
    assert seen == set(HAND_TABLE)


def test_hand_computed_token_counts(views):
    calc = views["metricsuite/calc/Calc.java"]
    for name, (tk, pr, uid, op, lt) in HAND_COUNTS.items():
        got = compute_metrics(method_named(calc, name))
        assert got["NMTK"] == tk, name
        assert got["NMPR"] == pr, name
        assert got["NUID"] == uid, name
        assert got["NMOP"] == op, name
        assert got["NMLT"] == lt, name


def test_token_census_partitions_every_method(views):
    for rel, view in [*views.items(), ("<shared>", file_view(SHARED_LINES))]:
        for cls in view.classes:
            for m in cls.methods:
                census = token_census(m)
                parts = (census["operators"] + census["literals"]
                         + census["identifiers"] + census["structural"])
                assert parts == census["total"], (rel, m.name)
                got = compute_metrics(m)
                assert census["total"] == got["NMTK"], (rel, m.name)
                assert census["operators"] == got["NMOP"], (rel, m.name)
                assert census["literals"] == got["NMLT"], (rel, m.name)
                assert got["CMPX"] >= 1 and got["NPTH"] >= 1, (rel, m.name)


def test_npath_recurrence_matches_path_enumeration(views):
    """The recurrence equals brute-force path counting on the whole corpus."""
    for rel, view in views.items():
        for cls in view.classes:
            for m in cls.methods:
                assert npath(m.ast) == npath_enumerator(m.ast), (rel, m.name)


def test_each_condition_counts_only_its_own_short_circuits():
    # if: 1 + 1 + sc(a && b); while: 1 + 1 + sc(c || d); 3 * 3 paths
    m = file_view(
        "class A { int f(boolean a, boolean b, boolean c, boolean d) {"
        " if (a && b) { a = c; } while (c || d) { c = a; } return 1; } }"
    ).classes[0].methods[0]
    assert npath(m.ast) == npath_enumerator(m.ast) == 9
    assert compute_metrics(m)["CMPX"] == 5


def test_a_lexeme_counts_for_cmpx_only_as_a_token_of_its_own():
    # a literal that spells a decision lexeme is not one
    m = file_view(
        'class A { String f(boolean a) { String s = "if"; char c = \'?\';'
        ' double d = a ? 1.5 : .5f; return s; } }').classes[0].methods[0]
    got = compute_metrics(m)
    assert got["CMPX"] == 2
    assert got["NMLT"] == 4            # a float literal counts as one


def test_bodyless_declarations_get_floor_values(views):
    shape = views["textzoo/text/Shape.java"]
    for m in shape.classes[0].methods:
        got = compute_metrics(m)
        assert got["TLOC"] == got["SLOC"] == 1
        assert got["CMPX"] == 1 and got["NPTH"] == 1
        assert got["MXIN"] == 0 and got["NMRT"] == 0
    assert compute_metrics(method_named(shape, "area"))["NMTK"] == 5


def test_mxin_counts_braces_not_branches():
    braceless = file_view("class A { int f(int x) { if (x > 0) x = 1; return x; } }")
    m = braceless.classes[0].methods[0]
    got = compute_metrics(m)
    assert got["MXIN"] == 0
    assert got["CMPX"] == 2 and got["NPTH"] == 2

    braced = file_view("class A { int f(int x) { if (x > 0) { x = 1; } return x; } }")
    assert compute_metrics(braced.classes[0].methods[0])["MXIN"] == 1


def test_code_sharing_a_line_is_not_counted():
    view = file_view(SHARED_LINES)
    for name, (tk, sloc, uid, op, lt) in SHARED_LINE_COUNTS.items():
        m = method_named(view, name)
        got = compute_metrics(m)
        assert (got["NMTK"], got["SLOC"], got["NUID"], got["NMOP"],
                got["NMLT"]) == (tk, sloc, uid, op, lt), name
        assert got["TLOC"] == 1, name
