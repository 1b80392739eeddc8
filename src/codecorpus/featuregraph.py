"""Program feature graphs: AST plus semantic edges over one method.

Edge types, in fixed serialization order:

    Child              parent -> child, the AST itself
    NextToken          terminal -> next terminal, one simple path
    LastRead           variable use -> terminals that may have read it last
    LastWrite          variable use -> terminals that may have written it last
    ComputedFrom       assignment target -> variable terminals of its rhs
    LastLexicalUse     identifier -> previous occurrence of the same lexeme
    GuardedBy          variable occurrence in a then-branch -> condition root
    GuardedByNegation  same for else-branches
    ReturnTo           return keyword -> method declaration node
    FormalArgName      argument root -> synthetic node named like the formal

LastRead/LastWrite come from a forward may-analysis: branch states join by
union, loop back-edges iterate to a fixpoint before edges are emitted, so a
use inside or after a loop points at every def that may be most recent.
Whether a walk emits is builder state: a loop switches it off while it
iterates and back on for one walk from the saturated state, so each edge
and each FormalArgName node comes from that one walk.
Guard edges are emitted for if/else conditions only (not loop conditions)
and only for variables that occur in the condition itself.

Fields of the enclosing class act as variables whose defining terminal is a
synthetic `FieldDef` node at graph entry; resolved call sites add synthetic
`FormalArgName` nodes. Synthetic nodes append after the AST nodes, so the
node-index prefix of every feature graph is exactly the AST and
filter_edges(g, {"Child"}) reproduces the plain AST graph.
"""

import json
from json.encoder import encode_basestring as _json_str
from typing import Callable, NamedTuple

from .errors import InvalidArgumentError
from .lexer import KIND_IDENTIFIER
from .parser import (
    Ast, MethodSource, NT_ASSIGN, NT_BINARY, NT_BLOCK, NT_CALL, NT_FIELD_ACCESS,
    NT_FOR, NT_IF, NT_LOCAL, NT_NEW, NT_PARAM, NT_PAREN, NT_POSTFIX, NT_RETURN,
    NT_EXPR_STMT, NT_TERNARY, NT_UNARY, NT_WHILE,
    assign_parts, call_parts, for_parts, if_parts, local_decl_parts,
    method_body, new_parts, while_parts,
)

EDGE_TYPES = (
    "Child", "NextToken", "LastRead", "LastWrite", "ComputedFrom",
    "LastLexicalUse", "GuardedBy", "GuardedByNegation", "ReturnTo",
    "FormalArgName",
)

SYNTHETIC_TYPES = frozenset({"FieldDef", "FormalArgName"})


class GraphNode(NamedTuple):
    index: int
    node_type: str
    token: str | None
    line: int
    col: int


class FeatureGraph(NamedTuple):
    """Nodes, edges by type, and the terminals in source order."""

    nodes: list[GraphNode]
    edges: dict[str, list[tuple[int, int]]]
    token_order: list[int]


def filter_edges(g: FeatureGraph, keep: set[str]) -> FeatureGraph:
    """Edges restricted to `keep` (subset of EDGE_TYPES).

    Synthetic nodes exist only to anchor flow edges, so any that lose
    every incident edge are dropped with them; projecting down to Child
    therefore reproduces the plain syntax-tree graph.
    """
    if not keep:
        raise InvalidArgumentError("keep set must be non-empty")
    unknown = set(keep) - set(EDGE_TYPES)
    if unknown:
        raise InvalidArgumentError(f"unknown edge types: {sorted(unknown)}")
    edges = {t: list(g.edges.get(t, [])) for t in EDGE_TYPES if t in keep}
    referenced = {i for pairs in edges.values() for pair in pairs
                  for i in pair}
    nodes = [n for n in g.nodes
             if n.node_type not in SYNTHETIC_TYPES or n.index in referenced]
    return FeatureGraph(nodes, edges, list(g.token_order))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

_State = dict[str, tuple[frozenset[int], frozenset[int]]]


def _union_states(a: _State, b: _State) -> _State:
    out: _State = {}
    for key in a.keys() | b.keys():
        ra, wa = a.get(key, (frozenset(), frozenset()))
        rb, wb = b.get(key, (frozenset(), frozenset()))
        out[key] = (ra | rb, wa | wb)
    return out


class _FlowBuilder:
    """One walk over a method subtree collecting semantic edges.

    A walk passes the variable state `env`, the enclosing if-conditions
    `guards` as (condition root, its variable names, negated) and a list
    `collected` that gathers the variable terminals an expression touches.
    """

    def __init__(self, ast: Ast, fields: dict[str, str],
                 arg_name_resolver: Callable[[int], list[str] | None] | None):
        self.ast = ast
        self.fields = fields
        self.resolver = arg_name_resolver
        self.emit = True
        self.edges: set[tuple[str, int, int]] = set()
        self.locals: set[str] = set()
        # (call node, position) -> (argument root, formal name)
        self.formals: dict[tuple[int, int], tuple[int, str]] = {}

    def _target(self, node: int) -> tuple[int, str, str] | None:
        """(terminal, state key, name) of a variable: a bare identifier
        naming a local, else a field, or `this.name` naming a field."""
        ast = self.ast
        if ast.is_terminal(node):
            if ast.token(node).kind != KIND_IDENTIFIER:
                return None
            term, name = node, ast.lexeme(node)
            if name in self.locals:
                return term, name, name
        elif ast.node_types[node] == NT_FIELD_ACCESS:
            recv, _dot, term = ast.children[node]
            if not (ast.is_terminal(recv) and ast.lexeme(recv) == "this"):
                return None
            name = ast.lexeme(term)
        else:
            return None
        return (term, f"this.{name}", name) if name in self.fields else None

    def _access(self, target: tuple[int, str, str], env: _State, guards,
                collected: list[int], read: bool, write: bool) -> None:
        term, key, name = target
        reads, writes = env.get(key, (frozenset(), frozenset()))
        if self.emit:
            if read:
                self.edges.update(("LastRead", term, r) for r in reads)
                self.edges.update(("LastWrite", term, w) for w in writes)
            for cond_root, cond_names, negated in guards:
                if name in cond_names:
                    kind = "GuardedByNegation" if negated else "GuardedBy"
                    self.edges.add((kind, term, cond_root))
        env[key] = (frozenset({term}) if read else reads,
                    frozenset({term}) if write else writes)
        collected.append(term)

    # -- expressions -----------------------------------------------------------

    def expr(self, node: int, env: _State, guards,
             collected: list[int]) -> None:
        ast = self.ast
        target = self._target(node)
        if target is not None:
            self._access(target, env, guards, collected,
                         read=True, write=False)
            return
        if ast.is_terminal(node):
            return      # a literal, `this`, or a name that is no variable
        nt = ast.node_types[node]
        kids = ast.children[node]
        if nt == NT_ASSIGN:
            lhs, op, rhs = assign_parts(ast, node)
            rhs_vars: list[int] = []
            self.expr(rhs, env, guards, rhs_vars)
            collected.extend(rhs_vars)
            target = self._target(lhs)
            if target is None:
                # no variable, or another object's field: read its receiver
                self.expr(lhs, env, guards, collected)
                return
            self._access(target, env, guards, collected,
                         read=op != "=", write=True)
            if self.emit:
                self.edges.update(("ComputedFrom", target[0], src)
                                  for src in rhs_vars)
        elif nt in (NT_UNARY, NT_POSTFIX):
            op, operand = kids if nt == NT_UNARY else kids[::-1]
            target = self._target(operand)
            if target is not None and ast.lexeme(op) in ("++", "--"):
                self._access(target, env, guards, collected,
                             read=True, write=True)
            else:
                self.expr(operand, env, guards, collected)
        elif nt in (NT_CALL, NT_NEW):
            if nt == NT_CALL:
                receiver, _name, args = call_parts(ast, node)
                if receiver is not None:
                    self.expr(receiver, env, guards, collected)
            else:
                _ty, args = new_parts(ast, node)
            for a in args:
                self.expr(a, env, guards, collected)
            if self.emit and self.resolver is not None and args:
                for pos, pair in enumerate(zip(args, self.resolver(node) or ())):
                    self.formals.setdefault((node, pos), pair)
        elif nt == NT_FIELD_ACCESS:
            self.expr(kids[0], env, guards, collected)
        elif nt in (NT_BINARY, NT_TERNARY, NT_PAREN):
            for c in kids:
                self.expr(c, env, guards, collected)
        # Type nodes: no variable events

    # -- statements --------------------------------------------------------------

    def stmt(self, node: int, env: _State, guards) -> _State:
        ast = self.ast
        nt = ast.node_types[node]
        if nt == NT_BLOCK:
            for c in ast.nonterminal_children(node):
                env = self.stmt(c, env, guards)
        elif nt == NT_LOCAL:
            _ty, name_term, init = local_decl_parts(ast, node)
            init_vars: list[int] = []
            if init is not None:
                self.expr(init, env, guards, init_vars)
            self.locals.add(ast.lexeme(name_term))
            self._access(self._target(name_term), env, guards, [],
                         read=False, write=True)
            if self.emit:
                self.edges.update(("ComputedFrom", name_term, src)
                                  for src in init_vars)
        elif nt in (NT_EXPR_STMT, NT_RETURN):
            for c in ast.children[node]:
                self.expr(c, env, guards, [])
        elif nt == NT_IF:
            return self._if(node, env, guards)
        elif nt == NT_WHILE:
            cond, body = while_parts(ast, node)
            return self._loop(env, guards, cond, body, None)
        elif nt == NT_FOR:
            init, cond, update, body = for_parts(ast, node)
            if init is not None:
                if ast.node_types[init] == NT_LOCAL:
                    env = self.stmt(init, env, guards)
                else:
                    self.expr(init, env, guards, [])
            return self._loop(env, guards, cond, body, update)
        return env

    def _if(self, node: int, env: _State, guards) -> _State:
        cond, then, els = if_parts(self.ast, node)
        self.expr(cond, env, guards, [])
        names = frozenset(self.ast.lexeme(t) for t in self.ast.terminals(cond)
                          if self._target(t) is not None)
        env_then = self.stmt(then, dict(env), guards + [(cond, names, False)])
        env_else = env if els is None else self.stmt(
            els, dict(env), guards + [(cond, names, True)])
        return _union_states(env_then, env_else)

    def _loop_pass(self, env: _State, guards, cond: int | None, body: int,
                   update: int | None) -> _State:
        """One iteration: condition, body, update."""
        if cond is not None:
            self.expr(cond, env, guards, [])
        env = self.stmt(body, env, guards)
        if update is not None:
            self.expr(update, env, guards, [])
        return env

    def _loop(self, env: _State, guards, cond: int | None, body: int,
              update: int | None) -> _State:
        """Iterate to a fixpoint without emitting, then emit in one pass
        from the saturated entry state. Emitting on every pass would add
        edges from unsaturated states, and from before a local declared
        later in the body started to shadow a field of the same name."""
        emit, self.emit = self.emit, False
        entry = env
        while True:
            merged = _union_states(entry, self._loop_pass(
                dict(entry), guards, cond, body, update))
            if merged == entry:
                break
            entry = merged
        out = dict(entry)
        if cond is not None:
            self.expr(cond, out, guards, [])    # the test that exits
        self.emit = emit
        if emit:
            self._loop_pass(dict(entry), guards, cond, body, update)
        return out


def _ast_nodes(ast: Ast) -> tuple[list[GraphNode], list[int],
                                  list[tuple[int, int]]]:
    """The AST as graph nodes, its terminals in source order, and its Child
    edges in sorted order. A node is at its first leaf's token, the last
    leaf seen in a walk from the end."""
    new, tokens = tuple.__new__, ast.tokens
    nodes = []
    line = col = 0
    for i in range(len(ast) - 1, -1, -1):
        t = ast.token_indices[i]
        lexeme = None
        if t is not None:
            _kind, lexeme, line, col = tokens[t]
        nodes.append(new(GraphNode, (i, ast.node_types[i], lexeme, line, col)))
    nodes.reverse()
    terminals = [n.index for n in nodes if n.token is not None]
    return nodes, terminals, sorted(zip(ast.parents[1:], range(1, len(ast))))


def build_feature_graph(method: MethodSource,
                        class_fields: dict[str, str] | None = None,
                        arg_name_resolver: Callable[[int], list[str] | None] | None = None,
                        ) -> FeatureGraph:
    """Build the full feature graph for one method subtree."""
    ast = method.ast
    fields = dict(class_fields or {})
    builder = _FlowBuilder(ast, fields, arg_name_resolver)
    nodes, terminals, child_edges = _ast_nodes(ast)
    edges = builder.edges

    # lexical uses and returns, in one pass over the terminals
    last_seen: dict[str, int] = {}
    for t in terminals:
        kind, lexeme = ast.token(t)[:2]
        if kind == KIND_IDENTIFIER:
            if lexeme in last_seen:
                edges.add(("LastLexicalUse", t, last_seen[lexeme]))
            last_seen[lexeme] = t
        elif lexeme == "return":
            edges.add(("ReturnTo", t, 0))

    # initial state: parameters, then a synthetic FieldDef write for each
    # field this method mentions
    env: _State = {}
    for p in ast.find(NT_PARAM):
        name_term = ast.children[p][-1]
        builder.locals.add(ast.lexeme(name_term))
        env[ast.lexeme(name_term)] = (frozenset(), frozenset({name_term}))
    for fname in sorted(fields.keys() & last_seen.keys()):
        env[f"this.{fname}"] = (frozenset(), frozenset({len(nodes)}))
        nodes.append(GraphNode(len(nodes), "FieldDef", fname, 0, 0))

    body = method_body(ast)
    if body is not None:
        builder.stmt(body, env, [])

    for arg_root, pname in builder.formals.values():
        edges.add(("FormalArgName", arg_root, len(nodes)))
        nodes.append(GraphNode(len(nodes), "FormalArgName", pname, 0, 0))

    by_type: dict[str, list[tuple[int, int]]] = {t: [] for t in EDGE_TYPES}
    for etype, src, dst in edges:
        by_type[etype].append((src, dst))
    for etype in EDGE_TYPES:
        by_type[etype].sort()
    by_type["Child"] = child_edges
    by_type["NextToken"] = list(zip(terminals, terminals[1:]))
    return FeatureGraph(nodes, by_type, terminals)


def ast_graph(method: MethodSource) -> FeatureGraph:
    """Child-edges-only graph of the bare method AST (the ASTS payload)."""
    nodes, terminals, child_edges = _ast_nodes(method.ast)
    return FeatureGraph(nodes, {"Child": child_edges}, terminals)


# ---------------------------------------------------------------------------
# Serialization: stable JSON payloads
# ---------------------------------------------------------------------------

def graph_payload(g: FeatureGraph) -> str:
    """Byte-stable JSON: nodes in index order, edge keys in EDGE_TYPES
    order. It matches `json.dumps(..., separators=(",", ":"),
    ensure_ascii=False)` of a dict per node byte for byte, with the same
    string escaper."""
    nodes = ",".join([
        f'{{"i":{i},"type":{_json_str(node_type)},"line":{line},"col":{col}}}'
        if token is None else
        f'{{"i":{i},"type":{_json_str(node_type)},'
        f'"token":{_json_str(token)},"line":{line},"col":{col}}}'
        for i, node_type, token, line, col in g.nodes])
    edges = ",".join([
        f'"{t}":[{",".join([f"[{s},{d}]" for s, d in sorted(g.edges[t])])}]'
        for t in EDGE_TYPES if t in g.edges])
    return f'{{"nodes":[{nodes}],"edges":{{{edges}}}}}'


def parse_graph_payload(payload: str) -> FeatureGraph:
    data = json.loads(payload)
    nodes = [GraphNode(item["i"], item["type"], item.get("token"),
                       item["line"], item["col"])
             for item in data["nodes"]]
    edges = {t: [(s, d) for s, d in pairs]
             for t, pairs in data["edges"].items()}
    terminals = [n.index for n in nodes
                 if n.token is not None and n.node_type not in SYNTHETIC_TYPES]
    return FeatureGraph(nodes, edges, terminals)
