"""Lexer for the supported Java-like subset, plus token-string encodings.

Token kinds: keyword, identifier, int_literal, string_literal, char_literal,
bool_literal, null_literal, operator, separator. Comments and whitespace are
consumed and never appear in the token stream (raw text keeps them; token
representations do not). Annotations are not special here: `@Override` lexes
as a separator `@` followed by an identifier.

Number literals are plain decimal digit runs; float/hex forms are outside the
subset. Generic angle brackets lex as ordinary `<` / `>` operators and are
dealt with by the parser.

A `Token` is a named tuple (kind, lexeme, line, col). `lex` walks the source
once with `_TOKEN_RE.finditer`; catch-all alternatives (an unclosed `/*`,
then any single character) turn what starts no token into the LexError for
that position. Columns count characters from the start of the current line.

Two flat token-string encodings live here as well:

* TKNA: lexemes joined by single spaces. Not invertible when a string
  literal itself contains a space; callers that need exact token recovery
  should use TKNB.
* TKNB: lexemes joined by commas. Commas inside literal lexemes are replaced
  by <LITCOMMA>; the comma separator token is emitted quoted as `","`, so
  the only commas in the payload are that item's and the separators.
"""

import re
from typing import NamedTuple

from .errors import LexError

KIND_KEYWORD = "keyword"
KIND_IDENTIFIER = "identifier"
KIND_INT = "int_literal"
KIND_STRING = "string_literal"
KIND_CHAR = "char_literal"
KIND_BOOL = "bool_literal"
KIND_NULL = "null_literal"
KIND_OPERATOR = "operator"
KIND_SEPARATOR = "separator"

LITERAL_KINDS = frozenset({KIND_INT, KIND_STRING, KIND_CHAR, KIND_BOOL, KIND_NULL})

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


# Some alternative matches at every position: `open_comment` and `illegal`
# catch what starts no token, so `lex` walks the source in one `finditer`
# pass. Token groups are named after the kind they produce; `word` is split
# by `_WORD_KINDS`.
_TOKEN_RE = re.compile(
    r"""
      (?P<skip>\s+|//[^\n]*|/\*.*?\*/)
    | (?P<open_comment>/\*)
    | (?P<string_literal>"(?:\\.|[^"\\\n])*")
    | (?P<char_literal>'(?:\\.|[^'\\\n])')
    | (?P<int_literal>[0-9]+)
    | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<operator>&&|\|\||\+\+|--|<=|>=|==|!=|\+=|-=|\*=|/=|%=|[=<>!?:+\-*/%&|^~])
    | (?P<separator>[(){}\[\];,.@])
    | (?P<illegal>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_WORD_KINDS = {"true": KIND_BOOL, "false": KIND_BOOL, "null": KIND_NULL,
               **{w: KIND_KEYWORD for w in KEYWORDS}}

_ILLEGAL = {"/*": "unterminated block comment",
            '"': "unterminated string literal",
            "'": "unterminated or malformed char literal"}


def lex(source: str) -> list[Token]:
    """Tokenize source text; raises LexError with position on illegal input."""
    tokens: list[Token] = []
    append = tokens.append
    new_tuple = tuple.__new__
    line = 1
    line_start = 0          # offset of the first character of `line`
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m.group()
        if kind == "skip":
            # only whitespace and block comments span lines
            nl = text.rfind("\n")
            if nl >= 0:
                line += text.count("\n")
                line_start = m.start() + nl + 1
            continue
        if kind == "word":
            kind = _WORD_KINDS.get(text, KIND_IDENTIFIER)
        elif kind == "open_comment" or kind == "illegal":
            raise LexError(_ILLEGAL.get(text, f"illegal character {text!r}"),
                           line, m.start() - line_start + 1)
        # Token(...) without the Python-level __new__ of a NamedTuple
        append(new_tuple(Token, (kind, text, line, m.start() - line_start + 1)))
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
        elif t.kind == KIND_SEPARATOR and lx == ",":
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
