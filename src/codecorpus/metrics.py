"""Per-method source metrics.

Size and shape metrics come straight off the method subtree and its own
tokens, `method.ast.tokens`: the slice of the file's token stream that the
declaration spans, lexed once with the file. Code that shares a line with
the declaration (a field after its closing brace, another method) is not
counted, and a comment that opens or closes on one of its lines cannot
break the count.

* TLOC  total lines, end - start + 1
* SLOC  lines carrying at least one lexical token
* CMPX  1 + decision points (if, while, for, &&, ||, ternary)
* MXIN  max depth of nested blocks below the method body (body = 0)
* NPTH  Nejmeh-style path recurrence, see npath() below
* NMTK  token count; NMPR parameter count; NUID distinct identifiers
* NMOP  operator tokens; NMLT literal tokens (a float one each, like an
        int); NMRT return statements
* NAME  the method's simple name (text-valued)

NPTH follows the classical recurrence: a statement sequence multiplies, an
`if` contributes NP(then) + 1 + sc(cond), if/else NP(then) + NP(else) +
sc(cond), while/for NP(body) + 1 + sc(cond), anything else 1, where sc
counts `&&`/`||` inside the condition. Ternaries raise CMPX but not NPTH
(a deliberate deviation from PMD's NPATH, which recurses into expressions).
"""

from .lexer import (
    KIND_IDENTIFIER, KIND_OPERATOR, KIND_SEPARATOR, KIND_KEYWORD,
    LITERAL_KINDS,
)
from .parser import (
    Ast, MethodSource, NT_BLOCK, NT_FOR, NT_IF, NT_RETURN, NT_WHILE,
    for_parts, if_parts, method_body, while_parts,
)

DECISION_LEXEMES = frozenset({"if", "while", "for", "&&", "||", "?"})


def cmpx(ast: Ast) -> int:
    """Cyclomatic complexity: 1 + branching keywords + short-circuit ops + ?:."""
    return 1 + sum(1 for tok in ast.tokens if tok.lexeme in DECISION_LEXEMES)


def mxin(ast: Ast) -> int:
    """Max block nesting below the method body; counts braces, not indentation."""
    body = method_body(ast)
    if body is None:
        return 0
    best = 0
    stack = [(c, 0) for c in ast.nonterminal_children(body)]
    while stack:
        node, depth = stack.pop()
        here = depth + 1 if ast.node_types[node] == NT_BLOCK else depth
        best = max(best, here)
        for c in ast.nonterminal_children(node):
            stack.append((c, here))
    return best


def _short_circuits(ast: Ast, expr: int) -> int:
    first, end = ast.token_span(expr)
    return sum(1 for tok in ast.tokens[first:end]
               if tok.lexeme in ("&&", "||"))


def _npath_stmt(ast: Ast, stmt: int) -> int:
    nt = ast.node_types[stmt]
    if nt == NT_BLOCK:
        return _npath_seq(ast, stmt)
    if nt == NT_IF:
        cond, then, els = if_parts(ast, stmt)
        sc = _short_circuits(ast, cond)
        if els is None:
            return _npath_stmt(ast, then) + 1 + sc
        return _npath_stmt(ast, then) + _npath_stmt(ast, els) + sc
    if nt == NT_WHILE:
        cond, body = while_parts(ast, stmt)
        return _npath_stmt(ast, body) + 1 + _short_circuits(ast, cond)
    if nt == NT_FOR:
        _, cond, _, body = for_parts(ast, stmt)
        sc = _short_circuits(ast, cond) if cond is not None else 0
        return _npath_stmt(ast, body) + 1 + sc
    return 1


def _npath_seq(ast: Ast, block: int) -> int:
    product = 1
    for c in ast.nonterminal_children(block):
        product *= _npath_stmt(ast, c)
    return product


def npath(ast: Ast) -> int:
    body = method_body(ast)
    return 1 if body is None else _npath_seq(ast, body)


def compute_metrics(method: MethodSource) -> dict[str, int | str]:
    """All metric properties for one method, keyed by property code."""
    tokens = method.ast.tokens
    token_lines = {t.line for t in tokens}
    identifiers = {t.lexeme for t in tokens if t.kind == KIND_IDENTIFIER}
    ast = method.ast
    return {
        "TLOC": method.end_line - method.start_line + 1,
        "SLOC": len(token_lines),
        "CMPX": cmpx(ast),
        "MXIN": mxin(ast),
        "NPTH": npath(ast),
        "NMTK": len(tokens),
        "NMPR": len(method.param_types),
        "NUID": len(identifiers),
        "NMOP": sum(1 for t in tokens if t.kind == KIND_OPERATOR),
        "NMLT": sum(1 for t in tokens if t.kind in LITERAL_KINDS),
        "NMRT": len(ast.find(NT_RETURN)),
        "NAME": method.name,
    }


def token_census(method: MethodSource) -> dict[str, int]:
    """Token-kind partition; operators + literals + identifiers + structural
    tokens always total NMTK."""
    tokens = method.ast.tokens
    return {
        "operators": sum(1 for t in tokens if t.kind == KIND_OPERATOR),
        "literals": sum(1 for t in tokens if t.kind in LITERAL_KINDS),
        "identifiers": sum(1 for t in tokens if t.kind == KIND_IDENTIFIER),
        "structural": sum(1 for t in tokens
                          if t.kind in (KIND_KEYWORD, KIND_SEPARATOR)),
        "total": len(tokens),
    }
