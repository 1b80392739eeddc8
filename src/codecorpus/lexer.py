"""Lexer for the supported Java-like subset, plus token-string encodings.

Token kinds: keyword, identifier, int_literal, float_literal,
string_literal, char_literal, bool_literal, null_literal, operator,
separator. Comments and whitespace are consumed and never appear in the
token stream (raw text keeps them; token representations do not).
Annotations are not special here: `@Override` lexes as a separator `@`
followed by an identifier.

A lexeme decides its kind: each fixed lexeme (a reserved word, `true`,
`false`, `null`, an operator or a separator) has one kind, in
`_LEXEME_KINDS` (JLS SE 17 §3.9-3.12), and no other token is spelled like
one. So code after the lexer tests such a token by its lexeme alone, and
tests the kind only of identifiers and literals.

Number literals are those of JLS SE 17 §3.10.1-2: decimal, octal, hex and
binary integers with an optional `L`, and decimal and hex floating forms
with exponents and `f`/`d` suffixes, with underscores between digits. An
integer is an int_literal, a floating form (a `.`, an exponent or an
`f`/`d` suffix) a float_literal. An integer that starts with `0`, has more
characters and is neither hex nor binary is octal, so a digit 8 or 9 in it
(`08`, `0_9L`) is a LexError, while `08.5` and `09f` are floats. A
char literal holds one character or escape and a string literal any run of
them. The escapes are those of JLS SE 17 §3.10.7 (`\\b \\s \\t \\n \\f \\r
\\" \\' \\\\` and octal, `'\\101'`) and Unicode ones (`'\\u0041'`, one or
more `u`); any other backslash makes the literal a LexError. Generic angle
brackets lex as ordinary `<` / `>` operators and are dealt with by the
parser.

A `Token` is a named tuple (kind, lexeme, line, col). `lex` walks the source
once with `_TOKEN_RE.findall`, one match per token: the whitespace and
comments before a token are a prefix group of its match. A lexeme's kind is
looked up in a table of the fixed lexemes, or else read off its first
character and, for a number, its form. Catch-all alternatives (an unclosed
`/*`, then any single character) turn what starts no token into the
LexError for that position. Columns count characters from the start of the
current line.

Two flat token-string encodings live here as well:

* TKNA: lexemes joined by single spaces. Not invertible when a string
  literal itself contains a space; callers that need exact token recovery
  should use TKNB.
* TKNB: lexemes joined by commas. Commas inside literal lexemes are replaced
  by <LITCOMMA>; the comma separator token is emitted quoted as `","`, so
  the only commas in the payload are that item's and the separators.
"""

import re
import string
from typing import NamedTuple

from .errors import LexError

KIND_KEYWORD = "keyword"
KIND_IDENTIFIER = "identifier"
KIND_INT = "int_literal"
KIND_FLOAT = "float_literal"
KIND_STRING = "string_literal"
KIND_CHAR = "char_literal"
KIND_BOOL = "bool_literal"
KIND_NULL = "null_literal"
KIND_OPERATOR = "operator"
KIND_SEPARATOR = "separator"

LITERAL_KINDS = frozenset({KIND_INT, KIND_FLOAT, KIND_STRING, KIND_CHAR,
                           KIND_BOOL, KIND_NULL})

# The reserved words of JLS SE 17 §3.9, `_` among them. Contextual words
# (`var`, `record`, `yield`, `sealed`, `permits`, ...) stay identifiers.
KEYWORDS = frozenset("""
    _ abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while
""".split())

LITCOMMA = "<LITCOMMA>"


class Token(NamedTuple):
    kind: str
    lexeme: str
    line: int  # 1-based
    col: int   # 1-based, in characters


_OPERATORS = ("&& || ++ -- <= >= == != += -= *= /= %= "
              "= < > ! ? : + - * / % & | ^ ~").split()

# A number literal (JLS SE 17 §3.10.1-2), its forms ordered so that none
# stops at a prefix of a longer one: a hex float before a hex integer, and a
# decimal `1L` before the decimal form that would stop at its `1`. Digit
# runs take underscores only between digits.
_D = r"[0-9](?:[0-9_]*[0-9])?"
_H = r"[0-9A-Fa-f](?:[0-9A-Fa-f_]*[0-9A-Fa-f])?"
_NUMBER = (rf"0[xX](?:{_H}(?:\.(?:{_H})?)?|\.{_H})[pP][+-]?{_D}[fFdD]?"
           rf"|0[xX]{_H}[lL]?|0[bB][01](?:[01_]*[01])?[lL]?|{_D}[lL]"
           rf"|(?:{_D}(?:\.(?:{_D})?)?|\.{_D})(?:[eE][+-]?{_D})?[fFdD]?")

# Each match is one token and the whitespace and comments before it. A
# closed comment is always skipped, so a `/*` in the token group opens one
# that never closes; `.` takes a one-character operator or separator, and
# whatever starts no token, as one character. The token group also matches
# empty at the end, so every match succeeds where it starts and the skipped
# run is never backtracked into.
_TOKEN_RE = re.compile(
    r"""
    (\s*(?:(?://[^\n]*|/\*.*?\*/)\s*)*)
    ( /\*
    | "(?:\\(?:u+[0-9A-Fa-f]{4}|[0-7bstnfr"'\\])|[^"\\\n])*"
    | '(?:\\u+[0-9A-Fa-f]{4}|\\[0-3]?[0-7]{1,2}|\\[bstnfr"'\\]|[^'\\\n])'
    | [A-Za-z_$][A-Za-z0-9_$]*
    | """ + _NUMBER + "|"
    + "|".join(re.escape(op) for op in _OPERATORS if len(op) > 1) + r"""
    | .
    | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)
# A number that starts with a digit is a float when it has a `.`, an
# exponent or an `f`/`d` suffix, or, in hex, a `p` exponent.
_FLOAT_LITERAL = re.compile(r"0[xX].*[pP]|[^xX]*[.eEfFdD]")

# An int literal that is octal (a `0`, then no `x` or `b`) but holds 8 or 9.
_BAD_OCTAL = re.compile(r"0[0-7_]*[89]")

# A lexeme's kind: a fixed lexeme's from this table, any other's from its
# first character, and a number's then from `_FLOAT_LITERAL`.
_LEXEME_KINDS = {
    **dict.fromkeys(_OPERATORS, KIND_OPERATOR),
    **dict.fromkeys("(){}[];,.@", KIND_SEPARATOR),
    **dict.fromkeys(KEYWORDS, KIND_KEYWORD),
    "true": KIND_BOOL, "false": KIND_BOOL, "null": KIND_NULL,
}
_FIRST_KINDS = {
    **dict.fromkeys(string.ascii_letters + "_$", KIND_IDENTIFIER),
    **dict.fromkeys(string.digits, KIND_INT), ".": KIND_FLOAT,
    '"': KIND_STRING, "'": KIND_CHAR,
}

_ILLEGAL = {"/*": "unterminated block comment",
            '"': "unterminated or malformed string literal",
            "'": "unterminated or malformed char literal"}


def lex(source: str) -> list[Token]:
    """Tokenize source text; raises LexError with position on illegal input."""
    tokens: list[Token] = []
    append = tokens.append
    new_tuple = tuple.__new__
    kinds, first_kinds = _LEXEME_KINDS, _FIRST_KINDS
    line = col = 1
    for skipped, text in _TOKEN_RE.findall(source):
        if skipped:
            # only whitespace and block comments span lines
            nl = skipped.rfind("\n")
            if nl >= 0:
                line += skipped.count("\n")
                col = len(skipped) - nl
            else:
                col += len(skipped)
        kind = kinds.get(text)
        if kind is None:
            kind = None if text in _ILLEGAL else first_kinds.get(text[:1])
            if kind is None:
                if not text:        # the end of the source
                    break
                raise LexError(_ILLEGAL.get(text, f"illegal character {text!r}"),
                               line, col)
            if kind is KIND_INT:
                if _FLOAT_LITERAL.match(text):
                    kind = KIND_FLOAT
                elif text[0] == "0" and len(text) > 1 \
                        and _BAD_OCTAL.match(text):
                    raise LexError(f"octal literal {text!r} holds a digit "
                                   "8 or 9", line, col)
        # Token(...) without the Python-level __new__ of a NamedTuple
        append(new_tuple(Token, (kind, text, line, col)))
        col += len(text)
    return tokens


# ---------------------------------------------------------------------------
# Token-string encodings
# ---------------------------------------------------------------------------

def tkna_text(tokens: list[Token]) -> str:
    """Space-joined lexemes. Lossy when literals contain spaces."""
    return " ".join(t.lexeme for t in tokens)


def tknb_text(tokens: list[Token]) -> str:
    """Comma-joined lexemes with comma-safety: `f(a,b)` -> `f,(,a,",",b,)`."""
    items = []
    for t in tokens:
        lx = t.lexeme
        if t.kind in LITERAL_KINDS and "," in lx:
            lx = lx.replace(",", LITCOMMA)
        elif lx == ",":
            lx = '","'
        items.append(lx)
    return ",".join(items)


_TKNB_ITEM = re.compile(r'","|[^,]+')


def tknb_decode(payload: str) -> list[str]:
    """Recover the original lexeme list from a TKNB payload. No item is
    empty and none holds a comma but the quoted separator `","`, so each
    item is that or a run of non-commas."""
    return ["," if item == '","' else item.replace(LITCOMMA, ",")
            for item in _TKNB_ITEM.findall(payload)]
