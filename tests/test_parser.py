"""Parser structure: the flat preorder table, accessors, file views, errors."""

import hashlib
import json
import re

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import STATEMENTS, fixture_with_statements, longgen

from codecorpus.errors import CorpusError, ParseError
from codecorpus.featuregraph import _ast_nodes
from codecorpus.fixturegen import DEFAULT_BUCKET_CLASSES, fixture_files
from codecorpus.lexer import lex
from codecorpus.parser import (
    NT_BLOCK, NT_CALL, NT_CTOR, NT_EXPR_STMT, NT_FIELD, NT_FOR, NT_FOR_INIT,
    NT_IF, NT_LOCAL, NT_METHOD, NT_NEW, NT_PARAM, NT_RETURN, NT_TYPE,
    NT_WHILE, Ast, FileView, _Parser, assign_parts, call_parts, call_sites,
    file_view, for_parts, if_parts, local_decl_parts, new_parts, parse,
    type_simple_name, type_text, while_parts,
)

from oracles import (call_parts_oracle, call_sites_oracle, for_parts_oracle,
                     local_decl_parts_oracle, local_decl_start_oracle,
                     method_sources_oracle,
                     new_parts_oracle, slice_lines_oracle, subtree,
                     type_simple_name_oracle, type_text_oracle,
                     view_headers_oracle)


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
            assert list(kids) == sorted(kids), (rel, i)
            # subtrees are contiguous index ranges
            end = i + ast.subtree_sizes[i]
            assert all(i < c < end for c in kids), (rel, i)
            assert ast.subtree_sizes[i] == 1 + sum(
                ast.subtree_sizes[c] for c in kids), (rel, i)


def test_nonterminal_position_is_first_leaf_below(views):
    for rel, view in views.items():
        asts = [view.ast, *[m.ast for cls in view.classes for m in cls.methods]]
        for ast in asts:
            nodes, _terminals, _edges = _ast_nodes(ast)
            assert len(nodes) == len(ast), rel
            for i, node in enumerate(nodes):
                tok = ast.token(ast.terminals(i)[0])
                assert (node.index, node.line, node.col) == \
                    (i, tok.line, tok.col), (rel, i)


@pytest.mark.parametrize("corpus", ["corpus_data", "scaled_corpus_data"])
def test_token_span_runs_from_the_first_to_the_last_terminal(request, corpus):
    for data in request.getfixturevalue(corpus):
        for view in data.class_views.values():
            ast = view.ast
            for i in range(len(ast)):
                terms = ast.terminals(i)
                assert ast.token_span(i) == (ast.token_indices[terms[0]],
                                             ast.token_indices[terms[-1]] + 1)


def test_method_text_matches_method_subtree(views):
    """The whole-line text slice of each method lexes back to its terminals."""
    for rel, view in views.items():
        for cls in view.classes:
            for m in cls.methods:
                assert m.text == slice_lines_oracle(view.source, m.start_line,
                                                    m.end_line)
                want = [m.ast.lexeme(i) for i in m.ast.terminals()]
                assert want == [t.lexeme for t in lex(m.text)], (rel, m.name)
                assert m.ast.parents[0] == -1


def _tables(ast):
    # the digest holds a line and a column per node: its first leaf's
    firsts = [ast.token(ast.terminals(i)[0]) for i in range(len(ast))]
    return [ast.node_types, ast.token_indices, ast.parents,
            [t.line for t in firsts], [t.col for t in firsts],
            [list(kids) for kids in ast.children],
            ast.subtree_sizes,
            [[t.kind, t.lexeme, t.line, t.col] for t in ast.tokens]]


def _view_record(rel, view):
    return [rel, _tables(view.ast),
            [[m.name, m.signature, m.start_line, m.end_line, m.text,
              _tables(m.ast), m.param_types, m.param_names, m.return_type,
              m.is_constructor, sorted(m.modifiers), m.class_name]
             for cls in view.classes for m in cls.methods]]


# sha256 of every fixture file's tables and method sources, recorded with the
# match-at-position lexer (`oracles.lex_oracle`) and one parse function per
# binary precedence level: a front-end change must leave all of them as they
# were.
FIXTURE_PARSE_DIGEST = \
    "f396a9b7106bce4abf9282860a5248a23b6a0edc26b818eba1440b9512a7ff9c"


def test_fixture_parses_match_the_recorded_digest(views):
    h = hashlib.sha256()
    for rel in sorted(views):
        h.update(json.dumps(_view_record(rel, views[rel])).encode("utf-8"))
    assert h.hexdigest() == FIXTURE_PARSE_DIGEST


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

    # a condition that is a single terminal is kept too
    ast = parse("class A { void f(boolean go) { for (; go; ) go = false; } }")
    init, cond, update, body = for_parts(ast, ast.find("ForStmt")[0])
    assert init is None and update is None
    assert ast.lexeme(cond) == "go" and ast.node_types[body] == "ExprStmt"

    ast = parse("class A { void f(int i) { for (i = 0; ; i++) { } } }")
    init, cond, update, body = for_parts(ast, ast.find("ForStmt")[0])
    assert ast.node_types[init] == "Assign" and cond is None
    assert ast.node_types[update] == "PostfixOp"


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


@pytest.mark.parametrize("ty", ["List<? extends Number>", "Map<K, List<V>>"])
def test_a_type_reads_alike_as_a_local_a_field_and_a_parameter(ty):
    ast = parse(f"class A {{ {ty} g; void f({ty} p) {{ {ty} xs = ys; }} }}")
    want = [ast.lexeme(i) for i in ast.terminals(ast.find(NT_TYPE)[0])]
    for node_type in (NT_FIELD, NT_PARAM, NT_LOCAL):
        node = ast.find(node_type)[0]
        ty_node = next(c for c in ast.children[node]
                       if ast.node_types[c] == NT_TYPE)
        assert [ast.lexeme(i) for i in ast.terminals(ty_node)] == want
        assert type_text(ast, ty_node) == ty.split("<")[0]
    assert "".join(want) == ty.replace(" ", "")


def test_a_type_argument_outside_the_rule_is_named():
    with pytest.raises(ParseError) as exc:
        parse("class A { List<1> x; }")
    assert "found '1'" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, 16)


def test_a_comparison_chain_stays_one_expression_statement():
    ast = parse("class A { void f() { a < b == c > d != e; } }")
    assert ast.find(NT_LOCAL) == []
    assert len(ast.find(NT_EXPR_STMT)) == 1


def _bracketed(ast, i):
    """An expression with every operator node in parentheses."""
    if ast.is_terminal(i):
        return ast.lexeme(i)
    kids = [_bracketed(ast, c) for c in ast.children[i]]
    if ast.node_types[i] == "Paren":
        return kids[1]
    return "(" + " ".join(kids) + ")"


@pytest.mark.parametrize("expr, want", [
    ("a - b + c", "((a - b) + c)"),
    ("a + b - c", "((a + b) - c)"),
    ("a / b * c % d", "(((a / b) * c) % d)"),
    ("a * b - c / d % e", "((a * b) - ((c / d) % e))"),
    ("a || b && c == d < e + f * g",
     "(a || (b && (c == (d < (e + (f * g))))))"),
    ("a * b + c < d == e && f || g",
     "((((((a * b) + c) < d) == e) && f) || g)"),
    ("a < b == c > d != e", "(((a < b) == (c > d)) != e)"),
    ("!a && -b * c++ || d", "(((! a) && ((- b) * (c ++))) || d)"),
    ("a - (b - c) * d", "(a - ((b - c) * d))"),
    ("x = a > b ? a - b : b - a", "(x = ((a > b) ? (a - b) : (b - a)))"),
    ("x += y = z || w", "(x += (y = (z || w)))"),
])
def test_binary_operators_bind_by_level_and_associate_left(expr, want):
    ast = parse("class A { void f() { " + expr + "; } }")
    stmt = ast.find("ExprStmt")[0]
    assert _bracketed(ast, ast.children[stmt][0]) == want


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


@pytest.mark.parametrize("rel", ["flowlab/flow/Flow.java",
                                 "metricsuite/calc/Calc.java",
                                 "textzoo/text/Box.java"])
def test_input_ending_after_any_token_is_a_parse_error(rel):
    # end of input inside every construct, e.g. right after `for (`
    text = fixture_files()[rel]
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    tokens = lex(text)
    for t in tokens[:-1]:
        end = line_starts[t.line - 1] + t.col - 1 + len(t.lexeme)
        with pytest.raises(ParseError):
            file_view(text[:end])


_IN_METHOD = "class A { void f() { "


# One input per end-of-input check the parser has or had: where the check
# chose the message, and where the lexeme comparison that replaced it must
# give the same one.
@pytest.mark.parametrize("source, message", [
    # a member's annotations and modifiers, then its type
    ("class A {", "expected a type, found end of input at 1:9"),
    # a parameter's type
    ("class A { int f(", "expected a type, found end of input at 1:16"),
    # a for header's statement lookahead, then its expression
    (_IN_METHOD + "for (",
     "expected an expression, found end of input at 1:26"),
    # the member name after '.'
    (_IN_METHOD + "x.",
     "expected a member name after '.', found '.' at 1:23"),
    # a ternary's middle operand
    (_IN_METHOD + "y = a ?",
     "expected an expression, found end of input at 1:28"),
    # the balanced-run scanner, for annotation and type arguments
    ("@A(", "unterminated annotation arguments, found end of input at 1:3"),
    ("class A { List<",
     "unterminated type arguments, found end of input at 1:15"),
    # a statement
    (_IN_METHOD, "expected a statement, found end of input at 1:20"),
    (_IN_METHOD + "if (a) x = 1; else",
     "expected a statement, found end of input at 1:36"),
    # an expression's operand, after a binary and a unary operator
    (_IN_METHOD + "a +", "expected an expression, found end of input at 1:24"),
    (_IN_METHOD + "!", "expected an expression, found end of input at 1:22"),
    # the operators that may follow an operand: assignment, binary, postfix
    (_IN_METHOD + "x = 1", "expected ';', found end of input at 1:26"),
    ("class A { int x = a", "expected ';', found end of input at 1:19"),
    (_IN_METHOD + "x++", "expected ';', found end of input at 1:23"),
    # a fixed lexeme and a kind that `expect` and `expect_kind` wait for
    ("class A", "expected '{', found end of input at 1:7"),
    ("package", "expected 'identifier', found end of input at 1:1"),
    (_IN_METHOD + "int", "expected 'identifier', found end of input at 1:22"),
    (_IN_METHOD + "while (a", "expected ')', found end of input at 1:29"),
])
def test_each_end_of_input_check_gives_its_message_and_position(source,
                                                                message):
    with pytest.raises(ParseError) as exc:
        file_view(source)
    assert str(exc.value) == message


def test_java_number_literals_are_operands():
    view = file_view("class A { long f() { long x = 1L; double d = 1.5e-3;"
                     " float g = .5f; x = 0xFF_FFL + 017 + 0b101; return x; }"
                     " }")
    (method,) = view.classes[0].methods
    ast = method.ast
    assert [ast.lexeme(i) for i in range(len(ast))
            if ast.node_types[i] in ("int_literal", "float_literal")] == \
        ["1L", "1.5e-3", ".5f", "0xFF_FFL", "017", "0b101"]


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
    v = file_view(src)
    assert v.package_name == "demo.deep.pkg"
    assert v.imports == [("java.util.List", False), ("util.helpers", True)]
    cls = v.classes[0]
    assert cls.extends == "Base"
    assert cls.implements == ["Shape", "Cmp"]
    assert cls.fields == {"size": "int"}


@pytest.mark.parametrize("source", [
    "package a.b; import c.*; import d.E;"
    " public final class A extends B implements C, D<E> { }",
    "class A extends p.B<T> { }",
    "abstract class A<T extends B> implements C { }",
    "@Deprecated interface I extends J { int f(final int x, @Q String s); }",
    "class A { A(int x) { } private static void g() { } }",
    "class A { java.util.List<String> xs = null; final int k; }",
])
def test_file_view_headers_match_the_previous_scans(source):
    view = file_view(source)
    assert _view_headers(view) == view_headers_oracle(view)


def test_slice_lines_is_one_based_and_keeps_endings():
    src = "a\nb\nc\n"
    assert slice_lines_oracle(src, 1, 1) == "a\n"
    assert slice_lines_oracle(src, 2, 3) == "b\nc\n"
    assert slice_lines_oracle(src, 1, 3) == src


@pytest.mark.parametrize("separator", ["\x0c", "\r", "\x0b", "\x1c", "\x85",
                                       "\u2028", "\u2029"])
def test_method_text_breaks_lines_where_the_lexer_counts_them(separator):
    # str.splitlines would break inside the comment and shift every method
    src = (f"class A {{\n  // page{separator}break\n"
           "  int a() { return 1; }\n  int b() { return 2; }\n}\n")
    a, b = file_view(src).classes[0].methods
    assert (a.start_line, a.text) == (3, "  int a() { return 1; }\n")
    assert (b.start_line, b.text) == (4, "  int b() { return 2; }\n")
    assert slice_lines_oracle(src, 2, 2) == f"  // page{separator}break\n"


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
        view = file_view(data.decode("utf-8", errors="replace"))
        for cls in view.classes:
            for m in cls.methods:
                m.ast, m.tokens, m.text    # the views built on first read
    except CorpusError:
        pass


_GENERIC_STATEMENTS = (
    "List<String> xs = f(a);",
    "Map<K, List<V>> m = new HashMap<K, List<V>>(n);",
    "List<? extends Number> ns = ys;",
    "a < b == c > d != e;",
    "for (Map<K, V> e = m; e != null; e = e.next()) x++;",
)
_BODY_SOURCES = [(rel, text) for rel, text in _SOURCES
                 if re.search(r"\)\s*\{", text)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_BODY_SOURCES), st.integers(0, 1 << 16),
       st.sampled_from(_GENERIC_STATEMENTS),
       st.lists(st.tuples(st.integers(0, 1 << 16),
                          st.sampled_from(["<", ">", "?", "[", "@", "<<",
                                           "? super ", " & "])),
                min_size=1, max_size=5))
def test_mutated_generic_statements_parse_or_raise_a_corpus_error(
        item, site, statement, splices):
    # a statement start that `type_node` reads part of and rewinds
    rel, text = item
    for pos, mark in splices:
        at = pos % (len(statement) + 1)
        statement = f"{statement[:at]}{mark}{statement[at:]}"
    sites = [m.end() for m in re.finditer(r"\)\s*\{", text)]
    at = sites[site % len(sites)]
    try:
        file_view(f"{text[:at]} {statement}{text[at:]}")
    except CorpusError:
        pass


# ---------------------------------------------------------------------------
# The local-declaration lookahead against the previous hand scan
# ---------------------------------------------------------------------------

_STATEMENT_TYPES = frozenset({NT_BLOCK, NT_LOCAL, NT_EXPR_STMT, NT_IF,
                              NT_WHILE, NT_FOR, NT_RETURN})


def _assert_statement_starts_match_the_previous_lookahead(ast: Ast) -> int:
    parser = _Parser(ast.tokens)
    starts = {ast.token_span(i)[0] for i, nt in enumerate(ast.node_types)
              if nt in _STATEMENT_TYPES or (
                  i and ast.node_types[ast.parents[i]] == NT_FOR_INIT)}
    for start in starts:
        parser.i = start
        assert parser._at_local_decl() == \
            local_decl_start_oracle(ast.tokens, start), ast.tokens[start]
        assert parser.i == start
    return len(starts)


@pytest.mark.parametrize("corpus", ["corpus_data", "scaled_corpus_data"])
def test_every_statement_start_reads_as_the_previous_lookahead(request,
                                                               corpus):
    for data in request.getfixturevalue(corpus):
        for view in data.class_views.values():
            _assert_statement_starts_match_the_previous_lookahead(view.ast)


def test_every_long_method_statement_start_reads_as_the_previous_lookahead():
    generate = longgen().generate
    starts = 0
    for seed in range(32):
        for rel, text in generate(seed).items():
            starts += _assert_statement_starts_match_the_previous_lookahead(
                file_view(text).ast)
    assert starts > 1000


# ---------------------------------------------------------------------------
# Accessors against the previous scans: the same parts of every node
# ---------------------------------------------------------------------------

def _view_headers(view: FileView) -> dict:
    return {"package": view.package_name, "imports": view.imports,
            "classes": [
                (c.name, c.kind, c.extends, c.implements, c.fields,
                 [(m.name, m.return_type, m.param_types, m.param_names,
                   m.modifiers, m.is_constructor) for m in c.methods])
                for c in view.classes]}


def _assert_shapes_match_the_previous_scans(view: FileView,
                                            single_name_conds=0) -> None:
    """Every accessor on every node of the file, its call sites and its
    headers, against the previous scans. The one difference allowed: the
    previous `for_parts` dropped a condition that is a single terminal;
    exactly `single_name_conds` such loops are expected."""
    ast = view.ast
    fixed = 0
    for i, nt in enumerate(ast.node_types):
        if nt == NT_TYPE:
            assert type_text(ast, i) == type_text_oracle(ast, i)
            assert type_simple_name(ast, i) == type_simple_name_oracle(ast, i)
        elif nt == NT_FOR:
            got, want = for_parts(ast, i), for_parts_oracle(ast, i)
            if got != want:
                init, cond, update, body = got
                assert ast.is_terminal(cond), i
                assert (init, None, update, body) == want
                fixed += 1
        elif nt in (NT_LOCAL, NT_FIELD):
            assert local_decl_parts(ast, i) == local_decl_parts_oracle(ast, i)
        elif nt == NT_CALL:
            assert call_parts(ast, i) == call_parts_oracle(ast, i)
        elif nt == NT_NEW:
            assert new_parts(ast, i) == new_parts_oracle(ast, i)
    assert fixed == single_name_conds
    for ctors in (False, True):
        assert [(s.node, s.name, s.args) for s in call_sites(ast, ctors)] == \
            [(node, name, args)
             for node, name, _n, args in call_sites_oracle(ast, ctors)]
    assert _view_headers(view) == view_headers_oracle(view)
    _assert_methods_match_the_eager_sources(view)


_HEADER_FIELDS = ("name", "signature", "start_line", "end_line",
                  "param_types", "param_names", "return_type",
                  "is_constructor", "modifiers", "class_name")


def _assert_methods_match_the_eager_sources(view: FileView) -> None:
    """Each method's header fields and its views, built on first read,
    equal the method built eagerly."""
    eager = method_sources_oracle(view)
    assert len(eager) == len(view.classes)
    for cls, want in zip(view.classes, eager):
        assert len(cls.methods) == len(want), cls.name
        for m, o in zip(cls.methods, want):
            assert [getattr(m, f) for f in _HEADER_FIELDS] == \
                [getattr(o, f) for f in _HEADER_FIELDS], (cls.name, m.name)
            assert m.text == o.text, (cls.name, m.name)
            assert m.tokens == o.ast.tokens, (cls.name, m.name)
            assert m.ast == o.ast, (cls.name, m.name)
            assert m.ast is m.ast and m.ast.tokens is m.tokens


@pytest.mark.parametrize("corpus", ["corpus_data", "scaled_corpus_data",
                                    "longgen_corpus_data"])
def test_accessors_and_views_match_the_previous_scans(request, corpus):
    # fixture, x4 and `longgen` seeds 0-1: no single-name for condition
    for data in request.getfixturevalue(corpus):
        for view in data.class_views.values():
            _assert_shapes_match_the_previous_scans(view)


def _corpus_sources(name: str) -> dict[str, str]:
    if name == "fixture":
        return fixture_files()
    if name == "x4":
        return fixture_files({k: 4 * v
                              for k, v in DEFAULT_BUCKET_CLASSES.items()})
    seed = int(name.removeprefix("longgen"))
    return longgen().generate(seed)


@pytest.mark.parametrize("corpus", ["fixture", "x4", "longgen0", "longgen1",
                                    "longgen2", "longgen3"])
def test_method_asts_equal_the_subtree_of_the_whole_file(corpus):
    """Each method's AST, flattened from its own build node, has the tables
    of its member's subtree in the whole-file parse, and its tokens are the
    file's slice from its first leaf to its last."""
    for rel, text in sorted(_corpus_sources(corpus).items()):
        view = file_view(text)
        whole = parse(text)
        members = [i for i, nt in enumerate(whole.node_types)
                   if nt in (NT_METHOD, NT_CTOR)]
        methods = [m for cls in view.classes for m in cls.methods]
        assert len(methods) == len(members), rel
        for m, member in zip(methods, members):
            first, end = whole.token_span(member)
            assert m.tokens == whole.tokens[first:end], (rel, m.name)
            # every table, and the tokens, of the re-rooted subtree
            assert m.ast == subtree(whole, member, whole.tokens[first:end]), \
                (rel, m.name)


def test_a_file_view_has_at_least_one_class():
    with pytest.raises(ParseError, match="no type declaration in file"):
        file_view("package q;")
    view = file_view("interface I { }")
    assert [(c.name, c.kind, c.methods) for c in view.classes] == \
        [("I", "interface", [])]


def test_a_method_builds_its_views_in_either_order():
    src = "class A {\n  int a(int x) {\n    return x;\n  }\n}\n"
    first, second = file_view(src), file_view(src)
    a, b = first.classes[0].methods[0], second.classes[0].methods[0]
    assert a.ast.tokens is a.tokens
    assert b.tokens is b.ast.tokens
    assert a.text == b.text == "  int a(int x) {\n    return x;\n  }\n"


def test_method_equality_compares_the_header_not_the_file(monkeypatch):
    src = "class A { int a(int x) { return x; } }"
    a = file_view(src).classes[0].methods[0]
    b = file_view(src + "\n// another file\n").classes[0].methods[0]

    def refuse(self, other):
        raise AssertionError("== compared an Ast")
    monkeypatch.setattr(Ast, "__eq__", refuse)
    assert a == b
    assert a != file_view(src.replace("x", "y")).classes[0].methods[0]


_SHAPE_STATEMENTS = (
    *STATEMENTS,
    "for (; go; ) { go = f(go); }",
    "for (i = 0; ; ) i++;",
    "java.util.List<String> xs = new java.util.ArrayList<String>(a, b);",
    "final int k = (a);",
    "q.r.m(this.f(x), new Box(), (y));",
)


@settings(max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(fixture_with_statements(_SHAPE_STATEMENTS))
def test_accessors_and_views_match_the_previous_scans_with_statements_inserted(
        view):
    inserted = view.source.count("for (; go; )")
    _assert_shapes_match_the_previous_scans(view, single_name_conds=inserted)
