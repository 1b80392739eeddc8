"""Parser structure: the flat preorder table, accessors, file views, errors."""

import pytest
from hypothesis import given, settings, strategies as st

from codecorpus.errors import CorpusError, ParseError
from codecorpus.fixturegen import fixture_files
from codecorpus.lexer import lex
from codecorpus.parser import (
    assign_parts, call_parts, file_view, for_parts, if_parts,
    local_decl_parts, new_parts, parse, slice_lines, type_simple_name,
    type_text, while_parts,
)


# ---------------------------------------------------------------------------
# Whole-corpus structural invariants
# ---------------------------------------------------------------------------

def test_terminal_walk_reproduces_token_stream(views):
    for rel, view in views.items():
        ast = view.ast
        tokens = lex(view.source)
        terms = ast.terminals()
        assert [ast.lexeme(i) for i in terms] == [t.lexeme for t in tokens], rel
        # every token appears exactly once, in source order
        assert [ast.token_indices[i] for i in terms] == list(range(len(tokens))), rel


def test_flat_preorder_table_is_well_formed(views):
    for rel, view in views.items():
        ast = view.ast
        n = len(ast)
        assert ast.parents[0] == -1, rel
        for i in range(1, n):
            assert 0 <= ast.parents[i] < i, (rel, i)
        for i in range(n):
            kids = ast.children[i]
            assert kids == sorted(kids), (rel, i)
            # subtrees are contiguous index ranges
            end = i + ast.subtree_sizes[i]
            assert all(i < c < end for c in kids), (rel, i)
            assert ast.subtree_sizes[i] == 1 + sum(
                ast.subtree_sizes[c] for c in kids), (rel, i)


def test_nonterminal_position_is_first_leaf_below(views):
    for rel, view in views.items():
        ast = view.ast
        for i in range(len(ast)):
            if ast.is_terminal(i):
                continue
            leaves = ast.terminals(i)
            if not leaves:
                continue
            tok = ast.token(leaves[0])
            assert (ast.lines[i], ast.cols[i]) == (tok.line, tok.col), (rel, i)


def test_method_text_matches_method_subtree(views):
    """The whole-line text slice of each method lexes back to its terminals."""
    for rel, view in views.items():
        for cls in view.classes:
            for m in cls.methods:
                assert m.text == slice_lines(view.source, m.start_line, m.end_line)
                want = [m.ast.lexeme(i) for i in m.ast.terminals()]
                assert want == [t.lexeme for t in lex(m.text)], (rel, m.name)
                assert m.ast.parents[0] == -1


# ---------------------------------------------------------------------------
# Statement and expression accessors
# ---------------------------------------------------------------------------

def test_if_parts_with_and_without_else():
    ast = parse("class A { int f(int n) { if (n > 0) { n = 1; } else { n = 2; } return n; } }")
    cond, then, els = if_parts(ast, ast.find("IfStmt")[0])
    assert ast.node_types[cond] == "Binary"
    assert ast.node_types[then] == "Block"
    assert ast.node_types[els] == "Block"

    ast = parse("class A { int f(int n) { if (n > 0) n = 1; return n; } }")
    cond, then, els = if_parts(ast, ast.find("IfStmt")[0])
    assert ast.node_types[then] == "ExprStmt"
    assert els is None


def test_while_parts():
    ast = parse("class A { int f(int n) { while (n > 0) { n = n - 1; } return n; } }")
    cond, body = while_parts(ast, ast.find("WhileStmt")[0])
    assert ast.node_types[cond] == "Binary"
    assert ast.node_types[body] == "Block"


def test_for_parts_full_header():
    ast = parse("class A { int f(int n) {"
                " int s = 0; for (int i = 0; i < n; i++) { s = s + i; } return s; } }")
    init, cond, update, body = for_parts(ast, ast.find("ForStmt")[0])
    assert ast.node_types[init] == "LocalDecl"
    assert ast.node_types[cond] == "Binary"
    assert ast.node_types[update] == "PostfixOp"
    assert ast.node_types[body] == "Block"


def test_for_parts_empty_slots():
    ast = parse("class A { int f(int n) { for (; n > 0; n--) { n = n - 1; } return n; } }")
    init, cond, update, body = for_parts(ast, ast.find("ForStmt")[0])
    assert init is None
    assert ast.node_types[cond] == "Binary"
    assert ast.node_types[update] == "PostfixOp"

    ast = parse("class A { void f(int x) { for (;;) { x = x + 1; } } }")
    init, cond, update, body = for_parts(ast, ast.find("ForStmt")[0])
    assert init is None and cond is None and update is None
    assert ast.node_types[body] == "Block"


def test_assign_parts_plain_and_compound():
    ast = parse("class A { void f(int x) { x = 1; x += 2; } }")
    plain, compound = ast.find("Assign")
    target, op, _ = assign_parts(ast, plain)
    assert (ast.lexeme(target), op) == ("x", "=")
    _, op2, _ = assign_parts(ast, compound)
    assert op2 == "+="


def test_local_decl_parts_and_type_erasure():
    ast = parse("class A { void f() { java.util.List<String> xs = null; int k; } }")
    with_init, bare = ast.find("LocalDecl")
    ty, name, init = local_decl_parts(ast, with_init)
    assert type_text(ast, ty) == "java.util.List"
    assert type_simple_name(ast, ty) == "List"
    assert ast.lexeme(name) == "xs"
    assert ast.node_types[init] == "null_literal"

    _, name2, init2 = local_decl_parts(ast, bare)
    assert ast.lexeme(name2) == "k"
    assert init2 is None


def test_call_parts_receiver_shapes():
    ast = parse('class A { void f(B obj) { f(1, 2); obj.m("x"); this.f(obj); } }')
    shapes = []
    for c in ast.find("Call"):
        recv, name, args = call_parts(ast, c)
        shapes.append((None if recv is None else ast.lexeme(recv),
                       ast.lexeme(name), len(args)))
    assert shapes == [(None, "f", 2), ("obj", "m", 1), ("this", "f", 1)]


def test_new_parts():
    ast = parse("class A { Object f() { return new java.awt.Point(1, 2); } }")
    ty, args = new_parts(ast, ast.find("New")[0])
    assert type_simple_name(ast, ty) == "Point"
    assert len(args) == 2


# ---------------------------------------------------------------------------
# Out-of-subset diagnostics
# ---------------------------------------------------------------------------

def test_array_types_are_rejected_with_position():
    with pytest.raises(ParseError) as exc:
        parse("class A { void f() { int[] a; } }")
    assert "outside the supported subset" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, 25)


def test_lambdas_are_rejected():
    with pytest.raises(ParseError) as exc:
        parse("class A { void f() { java.util.function.Function<Integer,Integer> g = x -> x; } }")
    assert "outside the supported subset" in str(exc.value)


def test_try_and_switch_are_rejected():
    with pytest.raises(ParseError):
        parse("class A { void f() { try { g(); } catch (Exception e) { } } }")
    with pytest.raises(ParseError):
        parse("class A { void f(int n) { switch (n) { default: } } }")


def test_empty_source_is_rejected():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   \n// only a comment\n")


# ---------------------------------------------------------------------------
# File views
# ---------------------------------------------------------------------------

def test_file_view_of_class_with_fields_and_constructor(views):
    v = views["textzoo/text/Box.java"]
    assert v.package_name == "text"
    assert v.imports == [("java.util.List", False)]
    cls = v.classes[0]
    assert (cls.name, cls.kind) == ("Box", "class")
    assert cls.extends is None
    assert cls.implements == ["Shape"]
    assert cls.fields == {"width": "int", "height": "int"}

    ctor = cls.methods[0]
    assert ctor.is_constructor
    assert ctor.name == "Box"
    assert ctor.signature == "Box(int,int)"
    assert ctor.return_type == "Box"
    assert ctor.param_names == ["width", "height"]

    area = next(m for m in cls.methods if m.name == "area")
    assert not area.is_constructor
    assert area.signature == "area()"
    assert "public" in area.modifiers
    assert area.class_name == "Box"
    # annotations belong to the member, so the text slice starts at the @ line
    assert area.text.splitlines()[0].strip() == "@Override"

    tags = next(m for m in cls.methods if m.name == "tags")
    assert tags.return_type == "List"


def test_file_view_of_interface(views):
    v = views["textzoo/text/Shape.java"]
    cls = v.classes[0]
    assert cls.kind == "interface"
    assert [m.signature for m in cls.methods] == ["area()", "scaled(int)"]
    assert cls.fields == {}


def test_file_view_headers_with_wildcard_import_and_extends():
    src = (
        "package demo.deep.pkg;\n"
        "\n"
        "import java.util.List;\n"
        "import util.helpers.*;\n"
        "\n"
        "public class Widget extends Base implements Shape, Cmp {\n"
        "    int size;\n"
        "\n"
        "    void tick(int by) {\n"
        "        size = size + by;\n"
        "    }\n"
        "}\n"
    )
    v = file_view(src, "w/Widget.java")
    assert v.path == "w/Widget.java"
    assert v.package_name == "demo.deep.pkg"
    assert v.imports == [("java.util.List", False), ("util.helpers", True)]
    cls = v.classes[0]
    assert cls.extends == "Base"
    assert cls.implements == ["Shape", "Cmp"]
    assert cls.fields == {"size": "int"}


def test_slice_lines_is_one_based_and_keeps_endings():
    src = "a\nb\nc\n"
    assert slice_lines(src, 1, 1) == "a\n"
    assert slice_lines(src, 2, 3) == "b\nc\n"
    assert slice_lines(src, 1, 3) == src


# ---------------------------------------------------------------------------
# Robustness: any input parses or raises a CorpusError
# ---------------------------------------------------------------------------

_SOURCES = sorted(fixture_files().items())
_BYTES = st.one_of(st.sampled_from(b"{}()[];,.=+-*/%<>!&|?:@\"'\\ \n\tx0"),
                   st.integers(0, 255))
_EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "swap"]),
                            st.integers(0, 1 << 20), _BYTES),
                  min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SOURCES), _EDITS)
def test_mutated_sources_parse_or_raise_a_corpus_error(item, edits):
    rel, text = item
    data = bytearray(text.encode("utf-8"))
    for op, pos, byte in edits:
        if op == "insert":
            data.insert(pos % (len(data) + 1), byte)
        elif len(data) > 1:
            i = pos % (len(data) - 1)
            if op == "delete":
                del data[i]
            else:
                data[i], data[i + 1] = data[i + 1], data[i]
    try:
        file_view(data.decode("utf-8", errors="replace"), rel)
    except CorpusError:
        pass
