import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codecorpus.errors import LexError
from codecorpus.fixturegen import DEFAULT_BUCKET_CLASSES, fixture_files
from codecorpus.lexer import (_LEXEME_KINDS, KIND_BOOL, KIND_CHAR,
                              KIND_FLOAT, KIND_IDENTIFIER, KIND_INT,
                              KIND_KEYWORD, KIND_NULL, KIND_OPERATOR,
                              KIND_SEPARATOR, KIND_STRING, Token, lex,
                              tkna_text, tknb_decode, tknb_text)
from codecorpus.parser import MODIFIER_WORDS, PRIMITIVE_WORDS

from oracles import lex_oracle, tknb_decode_oracle


def kinds(source):
    return [t.kind for t in lex(source)]


def lexemes(source):
    return [t.lexeme for t in lex(source)]


def test_kind_classification():
    toks = lex('int x = a + 1; String s = "hi"; char c = \'y\'; '
               'boolean b = true; Object o = null;')
    table = {t.lexeme: t.kind for t in toks}
    assert table["int"] == KIND_KEYWORD
    assert table["x"] == KIND_IDENTIFIER
    assert table["1"] == KIND_INT
    assert table['"hi"'] == KIND_STRING
    assert table["'y'"] == KIND_CHAR
    assert table["true"] == KIND_BOOL
    assert table["null"] == KIND_NULL
    assert table["+"] == KIND_OPERATOR
    assert table[";"] == KIND_SEPARATOR
    assert table["String"] == KIND_IDENTIFIER  # class names are not keywords


# JLS SE 17 §3.9, written out here rather than taken from the lexer
RESERVED_WORDS = """
    abstract continue for new switch assert default if package synchronized
    boolean do goto private this break double implements protected throw
    byte else import public throws case enum instanceof return transient
    catch extends int short try char final interface static void
    class finally long strictfp volatile const float native super while _
""".split()


def test_every_reserved_word_lexes_as_a_keyword():
    assert len(set(RESERVED_WORDS)) == 51
    assert {t.lexeme: t.kind for t in lex(" ".join(RESERVED_WORDS))} == \
        dict.fromkeys(RESERVED_WORDS, KIND_KEYWORD)


def test_contextual_words_stay_identifiers():
    words = ["var", "record", "yield", "sealed", "permits", "module", "_x"]
    assert {t.kind for t in lex(" ".join(words))} == {KIND_IDENTIFIER}


def test_every_fixed_lexeme_lexes_alone_as_its_one_kind():
    # what lets the parser and the AST readers test such a token by its
    # lexeme alone
    for lexeme, kind in _LEXEME_KINDS.items():
        assert lex(lexeme) == [Token(kind, lexeme, 1, 1)], lexeme


# Every (kind, lexeme) pair that the parser, the metrics, the feature graph,
# the call graph and TKNB tested together before they tested the lexeme
# alone. A statement that starts with any other keyword is tested by
# `KEYWORDS`, which the test above covers.
TESTED_PAIRS = [
    *((KIND_KEYWORD, w) for w in [
        "package", "import", "class", "interface", "extends", "implements",
        "void", "final", "if", "else", "while", "for", "return", "this",
        "new", *sorted(MODIFIER_WORDS), *sorted(PRIMITIVE_WORDS)]),
    *((KIND_SEPARATOR, s) for s in ". ; , @ ( ) { } [".split()),
    *((KIND_OPERATOR, o) for o in """* = += -= *= /= %= ? : || && == != < >
                                     <= >= + - / % ! ++ --""".split()),
]


@pytest.mark.parametrize("kind, lexeme", TESTED_PAIRS)
def test_a_lexeme_tested_alone_has_the_kind_it_was_tested_with(kind, lexeme):
    assert _LEXEME_KINDS[lexeme] == kind


# JLS SE 17 §3.10.1-2: integers in four radixes, floats in two
@pytest.mark.parametrize("literal, kind", [
    ("1.5", KIND_FLOAT), ("0xFFL", KIND_INT), ("1e-3", KIND_FLOAT),
    ("1_000", KIND_INT), (".5f", KIND_FLOAT), ("1L", KIND_INT),
    ("017", KIND_INT), ("0b101", KIND_INT), ("1.", KIND_FLOAT),
    ("2d", KIND_FLOAT), ("1E+10D", KIND_FLOAT), ("0x1.8p-3", KIND_FLOAT),
    ("0X1P3f", KIND_FLOAT), ("0xCafe_Babe", KIND_INT), ("0B1_0l", KIND_INT),
    ("0", KIND_INT), ("1_2.3_4e5_6", KIND_FLOAT),
])
def test_a_java_number_literal_lexes_as_one_token(literal, kind):
    assert [(t.kind, t.lexeme) for t in lex(f"x = {literal};")] == [
        (KIND_IDENTIFIER, "x"), (KIND_OPERATOR, "="), (kind, literal),
        (KIND_SEPARATOR, ";")]


@pytest.mark.parametrize("text, lexemes", [
    ("1_", ["1", "_"]), ("0x", ["0", "x"]), ("1e", ["1", "e"]),
    ("1.5L", ["1.5", "L"]), ("0b2", ["0", "b2"]), ("1..2", ["1.", ".2"]),
    ("a.5", ["a", ".5"]),
])
def test_a_malformed_number_is_not_one_token(text, lexemes):
    assert [t.lexeme for t in lex(text)] == lexemes


# JLS SE 17 §3.10.1-2: an octal numeral takes the digits 0-7 only, while a
# floating literal may start with any digits after a 0
@pytest.mark.parametrize("literal", ["08", "09", "019", "0_8", "08L"])
def test_an_octal_literal_with_a_digit_8_or_9_is_a_lex_error(literal):
    source = f"x = {literal};"
    message = f"octal literal {literal!r} holds a digit 8 or 9 at 1:5"
    with pytest.raises(LexError, match=f"^{re.escape(message)}$"):
        lex(source)
    assert _outcome(lex_oracle, source) == _outcome(lex, source)


@pytest.mark.parametrize("literal, kind", [
    ("08.5", KIND_FLOAT), ("09e1", KIND_FLOAT), ("08f", KIND_FLOAT),
    ("08d", KIND_FLOAT), ("0_7", KIND_INT), ("00", KIND_INT),
    ("07", KIND_INT), ("0x8", KIND_INT),
])
def test_a_zero_led_literal_that_is_not_octal_or_has_no_8_or_9_lexes(
        literal, kind):
    assert [(t.kind, t.lexeme) for t in lex(literal)] == [(kind, literal)]
    assert _outcome(lex_oracle, literal) == _outcome(lex, literal)


@pytest.mark.parametrize("literal", [
    "'\\u0041'", "'\\uuu00e9'", "'\\uFFFF'", "'\\101'", "'\\377'", "'\\77'",
    "'\\7'", "'\\0'", "'\\n'", "'\\''",
])
def test_a_char_escape_lexes_as_one_char_literal(literal):
    assert [(t.kind, t.lexeme) for t in lex(f"c = {literal};")] == [
        (KIND_IDENTIFIER, "c"), (KIND_OPERATOR, "="), (KIND_CHAR, literal),
        (KIND_SEPARATOR, ";")]


@pytest.mark.parametrize("literal", [
    "'\\u004'", "'\\u00G1'", "'\\477'", "'\\1011'", "'\\u00411'",
])
def test_a_malformed_char_escape_is_a_lex_error(literal):
    with pytest.raises(LexError, match="malformed char literal at 1:5"):
        lex(f"c = {literal};")


# JLS SE 17 §3.10.7: every escape sequence, an octal one and a Unicode one
JAVA_ESCAPES = ["\\b", "\\s", "\\t", "\\n", "\\f", "\\r", '\\"', "\\'",
                "\\\\", "\\0", "\\101", "\\u00e9"]


@pytest.mark.parametrize("escape", JAVA_ESCAPES)
def test_every_java_escape_lexes_in_a_char_and_a_string(escape):
    assert [(t.kind, t.lexeme) for t in lex(f"'{escape}' \"a{escape}b\"")] == \
        [(KIND_CHAR, f"'{escape}'"), (KIND_STRING, f'"a{escape}b"')]


@pytest.mark.parametrize("escape", ["\\q", "\\u", "\\u00", "\\8", "\\a",
                                    "\\x41", "\\ "])
def test_any_other_backslash_is_a_lex_error_at_the_literal(escape):
    with pytest.raises(LexError, match="malformed char literal at 1:5"):
        lex(f"c = '{escape}';")
    with pytest.raises(LexError, match="malformed string literal at 1:5"):
        lex(f's = "a{escape}b";')


def test_multi_char_operators_lex_as_one_token():
    assert lexemes("a && b || c <= d >= e == f != g++ h-- i += j") == [
        "a", "&&", "b", "||", "c", "<=", "d", ">=", "e", "==", "f", "!=",
        "g", "++", "h", "--", "i", "+=", "j"]


def test_positions_are_one_based_lines_and_columns():
    toks = lex("if (a)\n  x = 1;")
    at = {(t.lexeme): (t.line, t.col) for t in toks}
    assert at["if"] == (1, 1)
    assert at["a"] == (1, 5)
    assert at["x"] == (2, 3)
    assert at["1"] == (2, 7)


def test_comments_and_whitespace_dropped():
    src = "a /* one\ntwo */ b // tail\nc"
    assert lexemes(src) == ["a", "b", "c"]
    lines = [t.line for t in lex(src)]
    assert lines == [1, 2, 3]


def test_lex_errors_carry_position():
    with pytest.raises(LexError) as e:
        lex('x = "open')
    assert "unterminated or malformed string literal" in str(e.value)
    with pytest.raises(LexError):
        lex("/* never closed")
    with pytest.raises(LexError):
        lex("snowman ☃")


def test_error_positions_count_characters_after_the_last_newline():
    cases = {
        "a\r\n\t/* open": ("unterminated block comment", 2, 2),
        "x = 'ab';": ("unterminated or malformed char literal", 1, 5),
        '/* a\nb */ "é\n': ("unterminated or malformed string literal", 2, 6),
        "int é;": ("illegal character 'é'", 1, 5),
        "a\u2028#": ("illegal character '#'", 1, 3),
    }
    for source, (message, line, col) in cases.items():
        with pytest.raises(LexError) as e:
            lex(source)
        assert (str(e.value), e.value.line, e.value.col) == \
            (f"{message} at {line}:{col}", line, col), source


def _outcome(lexer, source):
    """Token tuples, or the LexError's type, message and position."""
    try:
        return [(t.kind, t.lexeme, t.line, t.col) for t in lexer(source)]
    except LexError as exc:
        return type(exc), str(exc), exc.line, exc.col


# pieces that open, close or break a token, plus line ends, tabs, Unicode
# whitespace and non-ASCII text
_PIECES = st.sampled_from([
    "/*", "*/", "//", '"', "'", "\\", "'a'", "'\\''", '"a b"', '"\\""',
    "\n", "\r\n", "\r", "\t", " ", "\u00a0", "\u2028", "\x0c", "é", "☃",
    "😀", "#", "`", "int", "x1", "$y", "_", "42", "true", "null", "<=", "&&",
    "++", "=", "@", ";", "{", "}", "(", ".", "'\\u0041'", "'\\uu00e9'",
    "'\\101'", "'\\7'", "\\u", "\\377", "u00", "7", "'\\q'", '"\\q"', "\\q",
    "'\\u'", '"\\s\\b"', "\\8", "\\s", "1.5", ".5f", "0x1F", "0b", "1e",
    "L", "p", "1_", "08", "9",
])
_SOURCES = sorted(fixture_files().items())
_EDITS = st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 3),
                            _PIECES),
                  min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SOURCES), _EDITS)
def test_lex_matches_the_oracle_on_mutated_sources(item, edits):
    text = item[1]
    for pos, drop, piece in edits:
        i = pos % (len(text) + 1)
        text = text[:i] + piece + text[i + drop:]
    assert _outcome(lex, text) == _outcome(lex_oracle, text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_PIECES, st.text(max_size=3)), max_size=30)
       .map("".join))
def test_lex_matches_the_oracle_on_snippets(source):
    assert _outcome(lex, source) == _outcome(lex_oracle, source)


@pytest.mark.parametrize("source", [
    " " * 200_000,
    "class A {}" + "\n" * 200_000,
    "// c\n" * 50_000,
])
def test_long_runs_of_skipped_text_lex_within_a_second(source):
    start = time.perf_counter()
    lex(source)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("tail", [
    " ", "\n\n", " \t\r\n", "// c", "// c\n", "/* c */", "/* c */\n  ",
    "/* c", " /* c\n", "/*", "/*/", "/", "\"", "'", "\u00a0",
])
@pytest.mark.parametrize("head", ["", "class A {}", "a\n  b"])
def test_what_ends_a_source_lexes_as_the_oracle_does(head, tail):
    assert _outcome(lex, head + tail) == _outcome(lex_oracle, head + tail)


def test_tkna_spaces_are_lossy_for_spaced_strings():
    toks = lex('f("a b")')
    payload = tkna_text(toks)
    assert payload == 'f ( "a b" )'
    # splitting the payload on spaces cannot recover the token list
    assert len(payload.split(" ")) != len(toks)


def test_tknb_roundtrip_with_comma_literals():
    src = "x = f(\"a,b\", ',', 2);"
    toks = lex(src)
    assert tknb_decode(tknb_text(toks)) == [t.lexeme for t in toks]


def test_tknb_comma_separator_quoted():
    payload = tknb_text(lex("f(a, b)"))
    assert payload == 'f,(,a,",",b,)'


_SNIPPET_TOKENS = st.lists(
    st.one_of(
        st.sampled_from(["if", "while", "return", "int", "x", "y",
                         "doIt", "Value2", "_tmp", "0", "42", "997",
                         "+", "-", "==", "&&", "||", "++", "<=", "(",
                         ")", "{", "}", ";", ",", ".", "?", ":",
                         "true", "null"]),
        st.sampled_from(['"a,b"', '"say \\"hi\\""', "','", "'\\n'",
                         '"sp ace"', '""', "'\\u002c'", "'\\101'", "'\\7'"]),
    ),
    min_size=0, max_size=40)


@settings(max_examples=100, deadline=None)
@given(_SNIPPET_TOKENS)
def test_tknb_roundtrip_property(items):
    src = " ".join(items)
    toks = lex(src)
    payload = tknb_text(toks)
    assert tknb_decode(payload) == [t.lexeme for t in toks]
    assert tknb_decode(payload) == tknb_decode_oracle(payload)


@pytest.mark.parametrize("scale", [1, 4])
def test_tknb_decode_matches_the_quote_tracking_split(scale):
    for rel, text in fixture_files(
            {k: scale * v for k, v in DEFAULT_BUCKET_CLASSES.items()}).items():
        try:
            toks = lex(text)
        except LexError:
            continue
        payload = tknb_text(toks)
        assert tknb_decode(payload) == tknb_decode_oracle(payload), rel


@settings(max_examples=100, deadline=None)
@given(_SNIPPET_TOKENS)
def test_relex_of_tkna_is_stable(items):
    """Lexing a TKNA payload reproduces the same lexeme sequence unless a
    string/char literal contains whitespace (the documented lossy case)."""
    src = " ".join(items)
    toks = lex(src)
    spaced = any(" " in t.lexeme for t in toks)
    if not spaced:
        assert [t.lexeme for t in lex(tkna_text(toks))] == \
            [t.lexeme for t in toks]
