"""Recursive-descent parser for the supported Java-like subset.

Supported shapes: one package declaration, imports (dotted, optional `.*`),
top-level classes and interfaces with extends/implements, fields, methods and
constructors with modifiers and annotations. Statements: local declaration
(single declarator), expression statement, if/else, while, classic for,
return, block. Expressions: literals, identifiers, field access, `this`,
`new T(...)`, method calls in the four receiver shapes (implicit, `this.m`,
`expr.m`, `Type.m`), binary/unary operators including `&&`/`||`, ternary
`?:`, compound assignment, `++`/`--`, parentheses.

Generic type arguments are consumed and attached as raw leaves under the
Type node ("erased": they contribute no structure and no signature text).
One rule reads them in every position: a balanced `<...>` run of
identifiers, primitive words, `extends`, `super`, `?`, `&`, `.`, `,`, `[`,
`]`, `@` and nested `<...>`; any other token is a ParseError that names it.
The same balanced-run scanner reads annotation arguments `(...)`, which
take any token. A statement is a local declaration when it starts at a
primitive word, at `final`, or at an identifier where `type_node` reads a
type and a name follows: the parser tries `type_node`, catches its
ParseError and always rewinds, so a type reads the same in a local, a
field and a parameter. Lambdas, anonymous classes, arrays, try/catch and
switch are outside the subset and raise ParseError; the cataloger turns
that into a per-file diagnostic and skips the file.

The Ast is a flat preorder table: node i's children are exactly the nodes
whose parent is i, in index order. Because flattening is preorder, a
subtree occupies a contiguous index range and terminal leaves read off in
source order — the in-order leaf walk reproduces the token stream of the
parsed region exactly. So a node's tokens are one slice of the token list
(`Ast.token_span`), and positions live in the tokens only: a nonterminal
is at its first leaf's line and column.

A keyword, operator or separator is tested by its lexeme alone: the lexer
gives each fixed lexeme one kind (`lexer._LEXEME_KINDS`), so only
identifiers and literals are tested by kind. `_Parser` reads a lexeme list
and a kind list beside the tokens, padded past the end with `None`.

Binary operators are parsed by precedence climbing, one call per operand.
The parser builds a tree of nested lists; `_flatten` writes every table in
one walk of a build node, each node's `children` as a tuple (which the
garbage collector stops tracking), with token indices shifted to the token
slice the node spans. A parse leaves no reference cycle behind: reference
counting frees all it drops.

`file_view` reads the package, imports, class headers, fields and method
headers off the build tree and flattens nothing: a `MethodSource` slices
its `tokens` and flattens its own build node into its `ast` when first
read, and `FileView.ast` flattens the whole file when first read. A view
depends on its text alone and holds no path and no id, which belong to the
catalog: every file that holds one text may read the same view, and no
code writes to a view but to build its lazy parts.

`call_sites` is the one definition of a call site: which `Call` and `New`
nodes count, and which terminal names each callee.
"""

import re
from itertools import accumulate
from typing import NamedTuple

from .errors import ParseError
from .lexer import (KEYWORDS, KIND_IDENTIFIER, KIND_SEPARATOR, LITERAL_KINDS,
                    Token, lex)

# Nonterminal vocabulary. Terminal nodes use their token kind as node_type.
NT_COMPILATION_UNIT = "CompilationUnit"
NT_PACKAGE = "PackageDecl"
NT_IMPORT = "ImportDecl"
NT_CLASS = "ClassDecl"
NT_INTERFACE = "InterfaceDecl"
NT_ANNOTATION = "Annotation"
NT_FIELD = "FieldDecl"
NT_METHOD = "MethodDecl"
NT_CTOR = "ConstructorDecl"
NT_PARAM = "Param"
NT_TYPE = "Type"
NT_BLOCK = "Block"
NT_LOCAL = "LocalDecl"
NT_EXPR_STMT = "ExprStmt"
NT_IF = "IfStmt"
NT_WHILE = "WhileStmt"
NT_FOR = "ForStmt"
NT_FOR_INIT = "ForInit"
NT_FOR_UPDATE = "ForUpdate"
NT_RETURN = "ReturnStmt"
NT_ASSIGN = "Assign"
NT_TERNARY = "Ternary"
NT_BINARY = "Binary"
NT_UNARY = "Unary"
NT_POSTFIX = "PostfixOp"
NT_PAREN = "Paren"
NT_CALL = "Call"
NT_FIELD_ACCESS = "FieldAccess"
NT_NEW = "New"

MODIFIER_WORDS = frozenset({"public", "private", "protected", "static", "final", "abstract"})
PRIMITIVE_WORDS = frozenset({"boolean", "byte", "char", "double", "float", "int", "long", "short"})
# What a type-argument run `<...>` holds besides identifiers and nested
# `<...>` (JLS SE 17 §4.5.1): wildcards and bounds, qualified names, arrays
# and annotations.
_TYPE_ARG_LEXEMES = PRIMITIVE_WORDS | {"extends", "super", "?", "&", ".", ",",
                                       "[", "]", "@"}

# The kinds of a token that is an operand by itself.
_OPERAND_KINDS = LITERAL_KINDS | {KIND_IDENTIFIER}

# Binary operator -> precedence level, loosest first; each level is
# left-associative.
_BINARY_LEVELS = {
    "||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, ">": 4, "<=": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}


# A build-time tree node is a list [node_type, *children], flattened into an
# Ast afterwards; a child is another node or, for a terminal leaf, its token
# index.
_Node = list


class Ast:
    """Flat preorder AST over a token list; the tokens hold the positions.
    Two are equal when all six tables are."""

    __slots__ = ("node_types", "token_indices", "parents", "tokens",
                 "children", "subtree_sizes")

    def __init__(self, node_types: list[str], token_indices: list[int | None],
                 parents: list[int], tokens: list[Token],
                 children: list[tuple[int, ...]], subtree_sizes: list[int]):
        self.node_types = node_types
        self.token_indices = token_indices
        self.parents = parents              # -1 at the root
        self.tokens = tokens
        self.children = children
        self.subtree_sizes = subtree_sizes

    def __eq__(self, other):
        if other.__class__ is not Ast:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)

    def __len__(self) -> int:
        return len(self.node_types)

    def is_terminal(self, i: int) -> bool:
        return self.token_indices[i] is not None

    def token(self, i: int) -> Token:
        ti = self.token_indices[i]
        if ti is None:
            raise ParseError(f"node {i} ({self.node_types[i]}) is not a terminal")
        return self.tokens[ti]

    def lexeme(self, i: int) -> str:
        return self.token(i).lexeme

    def terminals(self, root: int = 0) -> list[int]:
        """Terminal node indices of a subtree, in source order."""
        end = root + self.subtree_sizes[root]
        return [i for i in range(root, end) if self.token_indices[i] is not None]

    def token_span(self, node: int) -> tuple[int, int]:
        """The node's tokens are `tokens[first:end]`: from its first leaf,
        reached through first children, to its last node, always a leaf."""
        at = self.token_indices
        leaf = node
        while at[leaf] is None:
            leaf += 1
        return at[leaf], at[node + self.subtree_sizes[node] - 1] + 1

    def find(self, node_type: str) -> list[int]:
        """Preorder indices of the nodes with the given type."""
        return [i for i, nt in enumerate(self.node_types) if nt == node_type]

    def nonterminal_children(self, i: int) -> list[int]:
        return [c for c in self.children[i] if self.token_indices[c] is None]


def _flatten(root: _Node, tokens: list[Token], first: int = 0) -> Ast:
    """Preorder tables of the build tree over `tokens`, the slice of the
    file's tokens from index `first` on; every nonterminal has a child."""
    tables = ([], [], [], [], [])
    _emit(root, -1, tokens, first, tables)
    node_types, token_indices, parents, children, sizes = tables
    return Ast(node_types, token_indices, parents, tokens, children, sizes)


def _emit(node: _Node, parent: int, tokens: list[Token], first: int,
          tables: tuple[list, ...]) -> None:
    """Append `node`'s subtree to `_flatten`'s tables. They are passed in,
    not closed over: a nested function that calls itself is a reference
    cycle, which only the cyclic collector frees."""
    node_types, token_indices, parents, children, sizes = tables
    idx = len(node_types)
    node_types.append(node[0])
    token_indices.append(None)
    parents.append(parent)
    children.append(())
    sizes.append(0)
    kids = []
    for child in node[1:]:
        kids.append(len(node_types))
        if child.__class__ is int:
            child -= first
            node_types.append(tokens[child].kind)
            token_indices.append(child)
            parents.append(idx)
            children.append(())
            sizes.append(1)
        else:
            _emit(child, idx, tokens, first, tables)
    children[idx] = tuple(kids)
    sizes[idx] = len(node_types) - idx


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        # Padded with None past the end, so lookahead one token past the
        # end is a plain index and compares unequal to every lexeme.
        kinds, lexemes, _lines, _cols = zip(*tokens)
        self.lx: tuple[str | None, ...] = (*lexemes, None, None)
        self.kinds: tuple[str | None, ...] = (*kinds, None, None)
        self.i = 0

    # -- token plumbing -----------------------------------------------------

    def _error(self, message: str) -> ParseError:
        if self.lx[self.i] is None:  # parse() never parses an empty token list
            last = self.tokens[-1]
            return ParseError(f"{message}, found end of input", last.line, last.col)
        t = self.tokens[self.i]
        return ParseError(f"{message}, found {t.lexeme!r}", t.line, t.col)

    def take(self, parent: _Node) -> None:
        """Attach the current token, which the caller has read, to parent."""
        parent.append(self.i)
        self.i += 1

    def expect(self, parent: _Node, lexeme: str) -> None:
        """Take the current token if it is the fixed `lexeme`."""
        if self.lx[self.i] != lexeme:
            raise self._error(f"expected {lexeme!r}")
        self.take(parent)

    def expect_kind(self, parent: _Node, kind: str) -> str:
        """Take the current token if it has `kind`; return its lexeme."""
        i = self.i
        if self.kinds[i] != kind:
            raise self._error(f"expected {kind!r}")
        self.take(parent)
        return self.lx[i]

    # -- top level ------------------------------------------------------------

    def compilation_unit(self) -> _Node:
        unit = [NT_COMPILATION_UNIT]
        if self.lx[self.i] == "package":
            unit.append(self._package_or_import(NT_PACKAGE))
        while self.lx[self.i] == "import":
            unit.append(self._package_or_import(NT_IMPORT))
        while self.lx[self.i] is not None:
            unit.append(self.type_decl())
        if not any(c[0] in (NT_CLASS, NT_INTERFACE) for c in unit[1:]):
            raise ParseError("no type declaration in file", 1, 1)
        return unit

    def _package_or_import(self, node_type: str) -> _Node:
        """`package a.b;`, or `import a.b.C;` and `import a.b.*;`."""
        node = [node_type]
        self.take(node)
        self.expect_kind(node, KIND_IDENTIFIER)
        while self.lx[self.i] == ".":
            self.take(node)
            if node_type == NT_IMPORT and self.lx[self.i] == "*":
                self.take(node)
                break
            self.expect_kind(node, KIND_IDENTIFIER)
        self.expect(node, ";")
        return node

    def _annotations_and_modifiers(self, parent: _Node) -> None:
        while True:
            lexeme = self.lx[self.i]
            if lexeme == "@":
                ann = [NT_ANNOTATION]
                parent.append(ann)
                self.take(ann)
                self.expect_kind(ann, KIND_IDENTIFIER)
                if self.lx[self.i] == "(":
                    self._balanced(ann, ")", "annotation arguments")
            elif lexeme in MODIFIER_WORDS:
                self.take(parent)
            else:
                return

    def type_decl(self) -> _Node:
        decl = ["_pending"]
        lx = self.lx
        self._annotations_and_modifiers(decl)
        if lx[self.i] == "class":
            decl[0] = NT_CLASS
        elif lx[self.i] == "interface":
            decl[0] = NT_INTERFACE
        else:
            raise self._error("expected 'class' or 'interface'")
        self.take(decl)
        name = self.expect_kind(decl, KIND_IDENTIFIER)
        if lx[self.i] == "<":
            self._balanced(decl, ">", "type arguments", _TYPE_ARG_LEXEMES)
        if lx[self.i] == "extends":
            self.take(decl)
            decl.append(self.type_node())
        if lx[self.i] == "implements":
            self.take(decl)
            decl.append(self.type_node())
            while lx[self.i] == ",":
                self.take(decl)
                decl.append(self.type_node())
        self.expect(decl, "{")
        while lx[self.i] != "}":
            decl.append(self.member_decl(class_name=name))
        self.expect(decl, "}")
        return decl

    def member_decl(self, class_name: str) -> _Node:
        member = ["_pending"]
        lx = self.lx
        self._annotations_and_modifiers(member)
        if lx[self.i] == class_name and lx[self.i + 1] == "(":
            member[0] = NT_CTOR
            self.take(member)                      # constructor name
            self._list(member, self._param)
            member.append(self.block())
            return member
        member.append(self.type_node(allow_void=True))
        self.expect_kind(member, KIND_IDENTIFIER)
        if lx[self.i] == "(":
            member[0] = NT_METHOD
            self._list(member, self._param)
            if lx[self.i] == ";":
                self.take(member)                  # abstract / interface method
            else:
                member.append(self.block())
        else:
            member[0] = NT_FIELD
            if lx[self.i] == "=":
                self.take(member)
                member.append(self.expression())
            self.expect(member, ";")
        return member

    def _list(self, parent: _Node, item) -> None:
        """`( [item (',' item)*] )`: parameters or call arguments."""
        self.expect(parent, "(")
        if self.lx[self.i] != ")":
            parent.append(item())
            while self.lx[self.i] == ",":
                self.take(parent)
                parent.append(item())
        self.expect(parent, ")")

    def _param(self) -> _Node:
        p = [NT_PARAM]
        self._annotations_and_modifiers(p)
        p.append(self.type_node())
        self.expect_kind(p, KIND_IDENTIFIER)
        return p

    def type_node(self, allow_void: bool = False) -> _Node:
        ty = [NT_TYPE]
        lx, kinds = self.lx, self.kinds
        lexeme = lx[self.i]
        if lexeme in PRIMITIVE_WORDS or (allow_void and lexeme == "void"):
            self.take(ty)
        elif kinds[self.i] == KIND_IDENTIFIER:
            self.take(ty)
            while lx[self.i] == "." and kinds[self.i + 1] == KIND_IDENTIFIER:
                self.take(ty)
                self.take(ty)
        else:
            raise self._error("expected a type")
        if lx[self.i] == "<":
            self._balanced(ty, ">", "type arguments", _TYPE_ARG_LEXEMES)
        if lx[self.i] == "[":
            raise self._error("array types are outside the supported subset")
        return ty

    def _balanced(self, parent: _Node, close: str, what: str,
                  allowed: frozenset[str] | None = None) -> None:
        """Consume the run from the current `(` or `<` to its matching
        `close` as raw leaves. Between them, annotation arguments take any
        token and type arguments only identifiers and `allowed` lexemes."""
        lx, kinds = self.lx, self.kinds
        opener = lx[self.i]
        depth = 0
        while True:
            lexeme = lx[self.i]
            if lexeme is None:
                raise self._error(f"unterminated {what}")
            if lexeme == opener:
                depth += 1
            elif lexeme == close:
                depth -= 1
            elif allowed is not None and kinds[self.i] != KIND_IDENTIFIER \
                    and lexeme not in allowed:
                raise self._error(f"unexpected token in {what}")
            self.take(parent)
            if depth == 0:
                return

    # -- statements -----------------------------------------------------------

    def block(self) -> _Node:
        b = [NT_BLOCK]
        self.expect(b, "{")
        while self.lx[self.i] != "}":
            b.append(self.statement())
        self.expect(b, "}")
        return b

    def statement(self) -> _Node:
        lexeme = self.lx[self.i]
        if lexeme is None:
            raise self._error("expected a statement")
        if lexeme == "{":
            return self.block()
        if lexeme in ("if", "while"):
            return self._if_or_while()
        if lexeme == "for":
            return self._for_stmt()
        if lexeme == "return":
            return self._return_stmt()
        if self._at_local_decl():
            return self._local_decl(want_semi=True)
        if lexeme in KEYWORDS and lexeme not in ("this", "new"):
            raise self._error("statement form outside the supported subset")
        stmt = [NT_EXPR_STMT, self.expression()]
        self.expect(stmt, ";")
        return stmt

    def _at_local_decl(self) -> bool:
        """Whether a local declaration starts here: at a primitive word, at
        `final`, or at an identifier where `type_node` reads a type that a
        name follows. The trial read is always rewound."""
        start = self.i
        lexeme = self.lx[start]
        if lexeme in PRIMITIVE_WORDS or lexeme == "final":
            return True
        if self.kinds[start] != KIND_IDENTIFIER:
            return False
        try:
            self.type_node()
            return self.kinds[self.i] == KIND_IDENTIFIER
        except ParseError:
            return False
        finally:
            self.i = start

    def _local_decl(self, want_semi: bool) -> _Node:
        decl = [NT_LOCAL]
        if self.lx[self.i] == "final":
            self.take(decl)
        decl.append(self.type_node())
        self.expect_kind(decl, KIND_IDENTIFIER)
        if self.lx[self.i] == "=":
            self.take(decl)
            decl.append(self.expression())
        if want_semi:
            self.expect(decl, ";")
        return decl

    def _if_or_while(self) -> _Node:
        """`if` or `while`, `( condition )` and a statement; an `if` may
        end with `else` and a statement."""
        is_if = self.lx[self.i] == "if"
        node = [NT_IF if is_if else NT_WHILE]
        self.take(node)
        self.expect(node, "(")
        node.append(self.expression())
        self.expect(node, ")")
        node.append(self.statement())
        if is_if and self.lx[self.i] == "else":
            self.take(node)
            node.append(self.statement())
        return node

    def _for_stmt(self) -> _Node:
        node = [NT_FOR]
        lx = self.lx
        self.take(node)
        self.expect(node, "(")
        if lx[self.i] != ";":
            init = [NT_FOR_INIT]
            node.append(init)
            init.append(self._local_decl(want_semi=False)
                        if self._at_local_decl() else self.expression())
        self.expect(node, ";")
        if lx[self.i] != ";":
            node.append(self.expression())
        self.expect(node, ";")
        if lx[self.i] != ")":
            upd = [NT_FOR_UPDATE]
            node.append(upd)
            upd.append(self.expression())
        self.expect(node, ")")
        node.append(self.statement())
        return node

    def _return_stmt(self) -> _Node:
        node = [NT_RETURN]
        self.take(node)
        if self.lx[self.i] != ";":
            node.append(self.expression())
        self.expect(node, ";")
        return node

    # -- expressions ------------------------------------------------------------

    def expression(self) -> _Node | int:
        return self._assignment()

    def _assignment(self) -> _Node | int:
        left = self._ternary()
        if self.lx[self.i] in ("=", "+=", "-=", "*=", "/=", "%="):
            if not (self.kinds[left] == KIND_IDENTIFIER
                    if left.__class__ is int
                    else left[0] == NT_FIELD_ACCESS):
                raise self._error("assignment target must be a name or field access")
            node = [NT_ASSIGN]
            node.append(left)
            self.take(node)
            node.append(self._assignment())
            return node
        return left

    def _ternary(self) -> _Node | int:
        cond = self._binary(1)
        if self.lx[self.i] == "?":
            node = [NT_TERNARY]
            node.append(cond)
            self.take(node)
            node.append(self.expression())
            self.expect(node, ":")
            node.append(self._ternary())
            return node
        return cond

    def _binary(self, min_level: int) -> _Node | int:
        """Binary operators of `_BINARY_LEVELS` from `min_level` up, by
        precedence climbing: the operand after an operator takes only the
        tighter levels, so every level associates to the left."""
        left = self._unary()
        lx = self.lx
        while True:
            level = _BINARY_LEVELS.get(lx[self.i], 0)
            if level < min_level:
                return left
            node = [NT_BINARY]
            node.append(left)
            self.take(node)
            node.append(self._binary(level + 1))
            left = node

    def _unary(self) -> _Node | int:
        if self.lx[self.i] in ("!", "-", "+", "++", "--"):
            node = [NT_UNARY]
            self.take(node)
            node.append(self._unary())
            return node
        return self._postfix()

    def _postfix(self) -> _Node | int:
        expr = self._primary()
        lx = self.lx
        while True:
            lexeme = lx[self.i]
            if lexeme == ".":
                if self.kinds[self.i + 1] != KIND_IDENTIFIER:
                    raise self._error("expected a member name after '.'")
                node = [NT_FIELD_ACCESS, expr]
                self.take(node)                  # '.'
                self.take(node)                  # name
                if lx[self.i] == "(":
                    node[0] = NT_CALL
                    self._list(node, self.expression)
                expr = node
            elif lexeme in ("++", "--"):
                node = [NT_POSTFIX]
                node.append(expr)
                self.take(node)
                expr = node
            else:
                return expr

    def _primary(self) -> _Node | int:
        i = self.i
        lexeme = self.lx[i]
        if lexeme is None:
            raise self._error("expected an expression")
        kind = self.kinds[i]
        if kind == KIND_IDENTIFIER and self.lx[i + 1] == "(":
            node = [NT_CALL]
            self.take(node)                      # implicit-this callee name
            self._list(node, self.expression)
            return node
        if kind in _OPERAND_KINDS or lexeme == "this":
            self.i = i + 1                       # a leaf the caller attaches
            return i
        if lexeme == "new":
            node = [NT_NEW]
            self.take(node)
            node.append(self.type_node())
            self._list(node, self.expression)
            return node
        if lexeme == "(":
            node = [NT_PAREN]
            self.take(node)
            node.append(self.expression())
            self.expect(node, ")")
            return node
        raise self._error("expression form outside the supported subset")


def _build(source: str) -> tuple[_Node, list[Token]]:
    """Lex + parse a compilation unit into its build tree and tokens."""
    tokens = lex(source)
    if not tokens:
        raise ParseError("empty source", 1, 1)
    return _Parser(tokens).compilation_unit(), tokens


def parse(source: str) -> Ast:
    """Lex + parse a compilation unit into a flat Ast."""
    return _flatten(*_build(source))


# ---------------------------------------------------------------------------
# Structure accessors shared by downstream modules
# ---------------------------------------------------------------------------

def _type_base(ast: Ast, type_node: int) -> tuple[int, ...]:
    """The Type's terminals before any `<`: its erased name, a primitive
    keyword or `a` ('.' `b`)*."""
    kids = ast.children[type_node]
    for j, c in enumerate(kids):
        if ast.lexeme(c) == "<":
            return kids[:j]
    return kids


def type_text(ast: Ast, type_node: int) -> str:
    """Erased type text: dotted base name without generic arguments."""
    return "".join([ast.lexeme(c) for c in _type_base(ast, type_node)])


def type_simple_name(ast: Ast, type_node: int) -> str:
    return ast.lexeme(_type_base(ast, type_node)[-1])


def method_body(ast: Ast) -> int | None:
    """A method Ast's body: its root's last child if that is a Block."""
    last = ast.children[0][-1]
    return last if ast.node_types[last] == NT_BLOCK else None


def if_parts(ast: Ast, i: int) -> tuple[int, int, int | None]:
    """(condition root, then statement, else statement or None)."""
    kids = ast.children[i]
    # shape: 'if' '(' cond ')' then ['else' else_stmt]
    cond = kids[2]
    then = kids[4]
    els = kids[6] if len(kids) > 5 else None
    return cond, then, els


def while_parts(ast: Ast, i: int) -> tuple[int, int]:
    kids = ast.children[i]
    return kids[2], kids[4]


def for_parts(ast: Ast, i: int) -> tuple[int | None, int | None, int | None, int]:
    """(init, condition, update, body); the first three may be absent."""
    kids = ast.children[i]
    # shape: 'for' '(' [ForInit] ';' [cond] ';' [ForUpdate] ')' body, where
    # a ForInit and a ForUpdate each hold one child
    has_init = ast.node_types[kids[2]] == NT_FOR_INIT
    init = ast.children[kids[2]][0] if has_init else None
    cond = kids[4 if has_init else 3]               # after the first ';'
    if ast.node_types[cond] == KIND_SEPARATOR:      # the second ';'
        cond = None
    upd = kids[-3]
    update = ast.children[upd][0] if ast.node_types[upd] == NT_FOR_UPDATE else None
    return init, cond, update, kids[-1]


def assign_parts(ast: Ast, i: int) -> tuple[int, str, int]:
    kids = ast.children[i]
    return kids[0], ast.lexeme(kids[1]), kids[2]


def local_decl_parts(ast: Ast, i: int) -> tuple[int, int, int | None]:
    """(type node, name terminal, init expression or None) of a LocalDecl
    or FieldDecl."""
    kids = ast.children[i]
    # shape: modifiers Type name ['=' init] [';']
    j = next(j for j, c in enumerate(kids) if ast.node_types[c] == NT_TYPE)
    return kids[j], kids[j + 1], kids[j + 3] if len(kids) > j + 3 else None


def call_parts(ast: Ast, i: int) -> tuple[int | None, int, list[int]]:
    """(receiver node or None, callee-name terminal, argument roots)."""
    kids = ast.children[i]
    # shape: name '(' args ')' or recv '.' name '(' args ')'; ',' between args
    if ast.lexeme(kids[1]) == "(":
        return None, kids[0], list(kids[2:-1:2])
    return kids[0], kids[2], list(kids[4:-1:2])


def new_parts(ast: Ast, i: int) -> tuple[int, list[int]]:
    """(type node, argument roots) of a `new T(...)` expression."""
    kids = ast.children[i]
    # shape: 'new' Type '(' args ')'
    return kids[1], list(kids[3:-1:2])


class CallSite(NamedTuple):
    node: int               # the Call or New node
    name: int               # the terminal that names the callee
    args: list[int]         # argument roots


def call_sites(ast: Ast, include_new: bool = True) -> list[CallSite]:
    """Every call site of an Ast in preorder: each `Call` node and, with
    `include_new`, each `New` node.

    This is the one definition of a call site, shared by the call graph,
    FTGR formal-argument names and the call-mask and mutation tasks. A call
    is named by its callee-name terminal; `new T(...)` by the last terminal
    of T's erased name, so `new a.B<C>(...)` is named by `B` and
    `new int(5)` by the keyword `int`.
    """
    sites = []
    for i, nt in enumerate(ast.node_types):
        if nt == NT_CALL:
            _receiver, name, args = call_parts(ast, i)
            sites.append(CallSite(i, name, args))
        elif nt == NT_NEW and include_new:
            ty, args = new_parts(ast, i)
            sites.append(CallSite(i, _type_base(ast, ty)[-1], args))
    return sites


# ---------------------------------------------------------------------------
# File views: the syntactic summary consumed by cataloging and resolution
# ---------------------------------------------------------------------------

class MethodSource:
    """One method or constructor declaration. The header is read with the
    file; the views refer to its build node and the file's tokens and
    source, which its `FileView` holds anyway: `tokens` (its token slice)
    and `ast` (flattened over that slice) are built on first read and kept,
    `text` is sliced on each read. Two are equal when their headers are
    (`_COMPARED`), whatever file holds them."""

    _COMPARED = ("name", "signature", "start_line", "end_line", "param_types",
                 "param_names", "return_type", "is_constructor", "modifiers",
                 "class_name")
    __slots__ = (*_COMPARED, "_node", "_file_tokens", "_token_span",
                 "_source", "_span", "_tokens", "_ast")

    def __init__(self, name: str, signature: str, start_line: int,
                 end_line: int, param_types: list[str], param_names: list[str],
                 return_type: str, is_constructor: bool,
                 modifiers: frozenset[str], class_name: str, _node: _Node,
                 _file_tokens: list[Token], _token_span: tuple[int, int],
                 _source: str, _span: tuple[int, int]):
        self.name = name
        self.signature = signature
        self.start_line = start_line
        self.end_line = end_line
        self.param_types = param_types
        self.param_names = param_names
        self.return_type = return_type
        self.is_constructor = is_constructor
        self.modifiers = modifiers
        self.class_name = class_name
        self._node = _node
        self._file_tokens = _file_tokens
        self._token_span = _token_span
        self._source = _source
        self._span = _span              # text offsets
        self._tokens: list[Token] | None = None
        self._ast: Ast | None = None

    def __eq__(self, other):
        if other.__class__ is not MethodSource:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self._COMPARED)

    @property
    def tokens(self) -> list[Token]:
        if self._tokens is None:
            first, end = self._token_span
            self._tokens = self._file_tokens[first:end]
        return self._tokens

    @property
    def ast(self) -> Ast:
        if self._ast is None:
            self._ast = _flatten(self._node, self.tokens, self._token_span[0])
        return self._ast

    @property
    def text(self) -> str:
        return self._source[self._span[0]:self._span[1]]


class ClassView(NamedTuple):
    name: str
    kind: str                      # "class" | "interface"
    extends: str | None
    implements: list[str]
    fields: dict[str, str]         # field name -> erased simple type text
    methods: list[MethodSource]


class FileView:
    """A file's summary; its `ast` is flattened on first read and kept."""

    __slots__ = ("source", "package_name", "imports", "classes", "_root",
                 "_tokens", "_ast")

    def __init__(self, source: str, package_name: str,
                 imports: list[tuple[str, bool]], classes: list[ClassView],
                 _root: _Node, _tokens: list[Token]):
        self.source = source
        self.package_name = package_name
        self.imports = imports          # (dotted name, is_wildcard)
        self.classes = classes
        self._root = _root
        self._tokens = _tokens
        self._ast: Ast | None = None

    @property
    def ast(self) -> Ast:
        if self._ast is None:
            self._ast = _flatten(self._root, self._tokens)
        return self._ast


_LINE = re.compile(r"[^\n]*\n|[^\n]+")


def split_lines(source: str) -> list[str]:
    """The source's lines with their endings, broken at "\n" only, as the
    lexer numbers them (`str.splitlines` also breaks at a form feed, a lone
    carriage return and other separators)."""
    return _LINE.findall(source)


def _leaf(node: _Node | int, side: int) -> int:
    """A build node's first (`side` 1) or last (`side` -1) leaf."""
    while node.__class__ is not int:
        node = node[side]
    return node


def _type_name(tokens: list[Token], ty: _Node) -> list[str]:
    """A build Type node's erased name: its lexemes before any `<`, a
    primitive keyword or `a` ('.' `b`)*."""
    names = []
    for i in ty[1:]:
        lexeme = tokens[i].lexeme
        if lexeme == "<":
            break
        names.append(lexeme)
    return names


def _method_source(tokens: list[Token], source: str, starts: list[int],
                   member: _Node, class_name: str) -> MethodSource:
    # shape: modifiers [Type] name '(' [Param (',' Param)*] ')' (Block | ';');
    # the leaves before '(' are the modifier words and then the name
    words = []
    for lparen in range(1, len(member)):
        c = member[lparen]
        if c.__class__ is int:
            lexeme = tokens[c].lexeme
            if lexeme == "(":
                break
            words.append(lexeme)
    name = words.pop()
    is_ctor = member[0] == NT_CTOR
    return_type = class_name if is_ctor else _type_name(tokens, member[lparen - 2])[-1]
    param_types, param_names = [], []
    for p in member[lparen + 1:-2:2]:
        *_modifiers, pty, pname = p[1:]             # modifiers Type name
        param_types.append(_type_name(tokens, pty)[-1])
        param_names.append(tokens[pname].lexeme)
    first, last = _leaf(member, 1), _leaf(member, -1)
    start, end = tokens[first].line, tokens[last].line
    return MethodSource(
        name, f"{name}({','.join(param_types)})", start, end, param_types,
        param_names, return_type, is_ctor, frozenset(words), class_name,
        member, tokens, (first, last + 1), source,
        (starts[start - 1], starts[end]))


def file_view(source: str) -> FileView:
    """Parse a file and summarize packages, imports, classes, and methods.

    The summary is read off the parser's build tree; no whole-file `Ast` is
    flattened unless `FileView.ast` is read. A file holds at least one
    class or interface, or `compilation_unit` raises "no type declaration
    in file"."""
    root, tokens = _build(source)
    # offset of each line's first character, then the source's length
    starts = list(accumulate(map(len, split_lines(source)), initial=0))
    package_name = ""
    imports: list[tuple[str, bool]] = []
    classes: list[ClassView] = []
    for child in root[1:]:
        nt = child[0]
        if nt in (NT_PACKAGE, NT_IMPORT):
            # shape: ('package' | 'import') a ('.' b)* ['.' '*'] ';'
            dotted = "".join([tokens[i].lexeme for i in child[2:-1]])
            if nt == NT_PACKAGE:
                package_name = dotted
            else:
                wildcard = dotted.endswith(".*")
                imports.append((dotted[:-2] if wildcard else dotted, wildcard))
            continue
        # a ClassDecl or InterfaceDecl: modifiers keyword name ...
        kw = next(j for j, c in enumerate(child) if c.__class__ is int
                  and tokens[c].lexeme in ("class", "interface"))
        name = tokens[child[kw + 1]].lexeme
        extends = None
        implements: list[str] = []
        fields: dict[str, str] = {}
        methods: list[MethodSource] = []
        for j in range(kw + 2, len(child)):
            c = child[j]
            if c.__class__ is int:
                continue
            nt_c = c[0]
            if nt_c == NT_TYPE:
                # ['extends' Type] ['implements' Type (',' Type)*]
                text = "".join(_type_name(tokens, c))
                if tokens[child[j - 1]].lexeme == "extends":
                    extends = text
                else:
                    implements.append(text)
            elif nt_c == NT_FIELD:
                # shape: modifiers Type name ['=' init] ';'
                ty = next(k for k, f in enumerate(c) if f.__class__ is not int
                          and f[0] == NT_TYPE)
                fields[tokens[c[ty + 1]].lexeme] = _type_name(tokens, c[ty])[-1]
            elif nt_c in (NT_METHOD, NT_CTOR):
                methods.append(_method_source(tokens, source, starts, c, name))
        classes.append(ClassView(
            name=name,
            kind="interface" if nt == NT_INTERFACE else "class",
            extends=extends,
            implements=implements,
            fields=fields,
            methods=methods,
        ))
    return FileView(source=source, package_name=package_name,
                    imports=imports, classes=classes, _root=root,
                    _tokens=tokens)
