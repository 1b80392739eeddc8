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
Guard edges are emitted for if/else conditions only (not loop conditions)
and only for variables that occur in the condition itself.

Fields of the enclosing class act as variables whose defining terminal is a
synthetic `FieldDef` node at graph entry; resolved call sites add synthetic
`FormalArgName` nodes. Synthetic nodes append after the AST nodes, so the
node-index prefix of every feature graph is exactly the AST and
filter_edges(g, {"Child"}) reproduces the plain AST graph.
"""

import json
from dataclasses import dataclass, field
from typing import Callable

from .errors import InvalidArgumentError
from .lexer import KIND_IDENTIFIER, KIND_KEYWORD, KIND_SEPARATOR
from .parser import (
    Ast, MethodSource, NT_ASSIGN, NT_BINARY, NT_BLOCK, NT_CALL, NT_FIELD_ACCESS,
    NT_FOR, NT_IF, NT_LOCAL, NT_NEW, NT_PARAM, NT_PAREN, NT_POSTFIX, NT_RETURN,
    NT_EXPR_STMT, NT_TERNARY, NT_UNARY, NT_WHILE,
    assign_parts, call_parts, for_parts, if_parts, local_decl_parts, new_parts,
    while_parts,
)

EDGE_TYPES = (
    "Child", "NextToken", "LastRead", "LastWrite", "ComputedFrom",
    "LastLexicalUse", "GuardedBy", "GuardedByNegation", "ReturnTo",
    "FormalArgName",
)

SYNTHETIC_TYPES = frozenset({"FieldDef", "FormalArgName"})


@dataclass(frozen=True)
class GraphNode:
    index: int
    node_type: str
    token: str | None
    line: int
    col: int


@dataclass
class FeatureGraph:
    nodes: list[GraphNode]
    edges: dict[str, list[tuple[int, int]]]
    token_order: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.token_order:
            self.token_order = [n.index for n in self.nodes
                                if n.token is not None
                                and n.node_type not in SYNTHETIC_TYPES]


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
    """One pass over a method subtree collecting semantic edges."""

    def __init__(self, ast: Ast, fields: dict[str, str],
                 arg_name_resolver: Callable[[int], list[str] | None] | None):
        self.ast = ast
        self.fields = fields
        self.resolver = arg_name_resolver
        self.edges: set[tuple[str, int, int]] = set()
        self.locals: set[str] = set()
        self.field_nodes: dict[str, int] = {}
        self.formal_nodes: list[tuple[int, str]] = []   # (arg root, param name)
        self._formal_seen: set[tuple[int, int]] = set()

    # -- variable plumbing ---------------------------------------------------

    def _key_for(self, name: str) -> str | None:
        if name in self.locals:
            return name
        if name in self.fields:
            return f"this.{name}"
        return None

    def _field_key(self, name: str) -> str | None:
        return f"this.{name}" if name in self.fields else None

    def _emit_guards(self, term: int, name: str, guards, emit: bool) -> None:
        if not emit:
            return
        for cond_root, cond_names, negated in guards:
            if name in cond_names:
                kind = "GuardedByNegation" if negated else "GuardedBy"
                self.edges.add((kind, term, cond_root))

    def _read(self, term: int, key: str, name: str, env: _State,
              emit: bool, guards, collected: list[int]) -> None:
        reads, writes = env.get(key, (frozenset(), frozenset()))
        if emit:
            for tgt in reads:
                self.edges.add(("LastRead", term, tgt))
            for tgt in writes:
                self.edges.add(("LastWrite", term, tgt))
        self._emit_guards(term, name, guards, emit)
        env[key] = (frozenset({term}), writes)
        collected.append(term)

    def _write(self, term: int, key: str, name: str, env: _State,
               emit: bool, guards, collected: list[int]) -> None:
        reads, _ = env.get(key, (frozenset(), frozenset()))
        self._emit_guards(term, name, guards, emit)
        env[key] = (reads, frozenset({term}))
        collected.append(term)

    def _read_write(self, term: int, key: str, name: str, env: _State,
                    emit: bool, guards, collected: list[int]) -> None:
        reads, writes = env.get(key, (frozenset(), frozenset()))
        if emit:
            for tgt in reads:
                self.edges.add(("LastRead", term, tgt))
            for tgt in writes:
                self.edges.add(("LastWrite", term, tgt))
        self._emit_guards(term, name, guards, emit)
        env[key] = (frozenset({term}), frozenset({term}))
        collected.append(term)

    # -- expressions -----------------------------------------------------------

    def expr(self, node: int, env: _State, emit: bool, guards,
             collected: list[int]) -> None:
        ast = self.ast
        if ast.is_terminal(node):
            tok = ast.token(node)
            if tok.kind == KIND_IDENTIFIER:
                key = self._key_for(tok.lexeme)
                if key is not None:
                    self._read(node, key, tok.lexeme, env, emit, guards, collected)
            return
        nt = ast.node_types[node]
        if nt == NT_ASSIGN:
            self._assign(node, env, emit, guards, collected)
        elif nt in (NT_BINARY, NT_TERNARY, NT_PAREN):
            for c in ast.children[node]:
                if not ast.is_terminal(c) or ast.token(c).kind == KIND_IDENTIFIER:
                    self.expr(c, env, emit, guards, collected)
        elif nt == NT_UNARY:
            op = ast.lexeme(ast.children[node][0])
            operand = ast.children[node][1]
            if op in ("++", "--"):
                self._incdec(operand, env, emit, guards, collected)
            else:
                self.expr(operand, env, emit, guards, collected)
        elif nt == NT_POSTFIX:
            self._incdec(ast.children[node][0], env, emit, guards, collected)
        elif nt == NT_CALL:
            receiver, _name, args = call_parts(ast, node)
            if receiver is not None:
                self.expr(receiver, env, emit, guards, collected)
            for a in args:
                self.expr(a, env, emit, guards, collected)
            self._formal_args(node, args, emit)
        elif nt == NT_NEW:
            _ty, args = new_parts(ast, node)
            for a in args:
                self.expr(a, env, emit, guards, collected)
            self._formal_args(node, args, emit)
        elif nt == NT_FIELD_ACCESS:
            recv, name_term = ast.children[node][0], ast.children[node][2]
            if ast.is_terminal(recv) and ast.token(recv).kind == KIND_KEYWORD \
                    and ast.lexeme(recv) == "this":
                key = self._field_key(ast.lexeme(name_term))
                if key is not None:
                    self._read(name_term, key, ast.lexeme(name_term),
                               env, emit, guards, collected)
            else:
                self.expr(recv, env, emit, guards, collected)
        # literals, `this`, Type nodes: no variable events

    def _incdec(self, operand: int, env: _State, emit: bool, guards,
                collected: list[int]) -> None:
        ast = self.ast
        target = self._assign_target(operand)
        if target is None:
            self.expr(operand, env, emit, guards, collected)
            return
        term, key, name = target
        self._read_write(term, key, name, env, emit, guards, collected)

    def _assign_target(self, node: int) -> tuple[int, str, str] | None:
        """(terminal, env key, name) for an assignable name/this.field."""
        ast = self.ast
        if ast.is_terminal(node) and ast.token(node).kind == KIND_IDENTIFIER:
            name = ast.lexeme(node)
            key = self._key_for(name)
            return (node, key, name) if key else None
        if ast.node_types[node] == NT_FIELD_ACCESS:
            recv, name_term = ast.children[node][0], ast.children[node][2]
            if ast.is_terminal(recv) and ast.token(recv).kind == KIND_KEYWORD \
                    and ast.lexeme(recv) == "this":
                name = ast.lexeme(name_term)
                key = self._field_key(name)
                return (name_term, key, name) if key else None
        return None

    def _assign(self, node: int, env: _State, emit: bool, guards,
                collected: list[int]) -> None:
        lhs, op, rhs = assign_parts(self.ast, node)
        rhs_vars: list[int] = []
        self.expr(rhs, env, emit, guards, rhs_vars)
        collected.extend(rhs_vars)
        target = self._assign_target(lhs)
        if target is None:
            # assignment through another object's field: receiver still read
            if self.ast.node_types[lhs] == NT_FIELD_ACCESS:
                self.expr(lhs, env, emit, guards, collected)
            return
        term, key, name = target
        if op == "=":
            self._write(term, key, name, env, emit, guards, collected)
        else:
            self._read_write(term, key, name, env, emit, guards, collected)
        if emit:
            for src in rhs_vars:
                self.edges.add(("ComputedFrom", term, src))

    def _formal_args(self, node: int, args: list[int], emit: bool) -> None:
        if not emit or self.resolver is None or not args:
            return
        names = self.resolver(node)
        if not names:
            return
        for pos, (arg, pname) in enumerate(zip(args, names)):
            if (node, pos) in self._formal_seen:
                continue
            self._formal_seen.add((node, pos))
            self.formal_nodes.append((arg, pname))

    # -- statements --------------------------------------------------------------

    def stmt(self, node: int, env: _State, emit: bool, guards) -> _State:
        ast = self.ast
        nt = ast.node_types[node]
        sink: list[int] = []
        if nt == NT_BLOCK:
            for c in ast.nonterminal_children(node):
                env = self.stmt(c, env, emit, guards)
            return env
        if nt == NT_LOCAL:
            _ty, name_term, init = local_decl_parts(ast, node)
            name = ast.lexeme(name_term)
            init_vars: list[int] = []
            if init is not None:
                self.expr(init, env, emit, guards, init_vars)
            self.locals.add(name)
            self._write(name_term, name, name, env, emit, guards, sink)
            if emit:
                for src in init_vars:
                    self.edges.add(("ComputedFrom", name_term, src))
            return env
        if nt == NT_EXPR_STMT:
            self.expr(ast.children[node][0], env, emit, guards, sink)
            return env
        if nt == NT_RETURN:
            for c in ast.children[node]:
                if ast.is_terminal(c) and ast.token(c).kind in (
                        KIND_KEYWORD, KIND_SEPARATOR):
                    continue
                self.expr(c, env, emit, guards, sink)
            return env
        if nt == NT_IF:
            return self._if(node, env, emit, guards)
        if nt == NT_WHILE:
            cond, body = while_parts(ast, node)
            return self._loop(env, emit, guards, cond=cond, body_steps=[body])
        if nt == NT_FOR:
            init, cond, update, body = for_parts(ast, node)
            if init is not None:
                if ast.node_types[init] == NT_LOCAL:
                    env = self.stmt(init, env, emit, guards)
                else:
                    self.expr(init, env, emit, guards, sink)
            steps = [body] + ([update] if update is not None else [])
            return self._loop(env, emit, guards, cond=cond, body_steps=steps,
                              update=update)
        # nested plain expression used as a statement, or unsupported: walk exprs
        for c in ast.nonterminal_children(node):
            self.expr(c, env, emit, guards, sink)
        return env

    def _cond_var_names(self, cond: int) -> frozenset[str]:
        names = set()
        for t in self.ast.terminals(cond):
            tok = self.ast.token(t)
            if tok.kind == KIND_IDENTIFIER and self._key_for(tok.lexeme):
                names.add(tok.lexeme)
        return frozenset(names)

    def _if(self, node: int, env: _State, emit: bool, guards) -> _State:
        cond, then, els = if_parts(self.ast, node)
        sink: list[int] = []
        self.expr(cond, env, emit, guards, sink)
        cond_names = self._cond_var_names(cond)
        env_then = dict(env)
        env_then = self.stmt(then, env_then,
                             emit, guards + [(cond, cond_names, False)])
        if els is not None:
            env_else = dict(env)
            env_else = self.stmt(els, env_else,
                                 emit, guards + [(cond, cond_names, True)])
            return _union_states(env_then, env_else)
        return _union_states(env_then, env)

    def _loop_once(self, env: _State, cond: int | None,
                   body_steps: list[int], update: int | None) -> _State:
        sink: list[int] = []
        if cond is not None:
            self.expr(cond, env, False, [], sink)
        for step in body_steps:
            if update is not None and step == update:
                self.expr(step, env, False, [], sink)
            else:
                env = self.stmt(step, env, False, [])
        return env

    def _loop(self, env: _State, emit: bool, guards,
              cond: int | None, body_steps: list[int],
              update: int | None = None) -> _State:
        entry = dict(env)
        while True:
            trial = self._loop_once(dict(entry), cond, body_steps, update)
            merged = _union_states(entry, trial)
            if merged == entry:
                break
            entry = merged
        # emission pass from the saturated entry state
        if emit:
            sink: list[int] = []
            env_emit = dict(entry)
            if cond is not None:
                self.expr(cond, env_emit, True, guards, sink)
            for step in body_steps:
                if update is not None and step == update:
                    self.expr(step, env_emit, True, guards, sink)
                else:
                    env_emit = self.stmt(step, env_emit, True, guards)
        # exit state: condition evaluated once more off the fixpoint
        out = dict(entry)
        if cond is not None:
            sink = []
            self.expr(cond, out, False, [], sink)
        return out


def build_feature_graph(method: MethodSource,
                        class_fields: dict[str, str] | None = None,
                        arg_name_resolver: Callable[[int], list[str] | None] | None = None,
                        ) -> FeatureGraph:
    """Build the full feature graph for one method subtree."""
    ast = method.ast
    fields = dict(class_fields or {})
    builder = _FlowBuilder(ast, fields, arg_name_resolver)

    terminals = [i for i in range(len(ast)) if ast.is_terminal(i)]

    # syntactic edge families
    for i in range(1, len(ast)):
        builder.edges.add(("Child", ast.parents[i], i))
    for a, b in zip(terminals, terminals[1:]):
        builder.edges.add(("NextToken", a, b))
    last_seen: dict[str, int] = {}
    for t in terminals:
        tok = ast.token(t)
        if tok.kind == KIND_IDENTIFIER:
            if tok.lexeme in last_seen:
                builder.edges.add(("LastLexicalUse", t, last_seen[tok.lexeme]))
            last_seen[tok.lexeme] = t
    for t in terminals:
        tok = ast.token(t)
        if tok.kind == KIND_KEYWORD and tok.lexeme == "return":
            builder.edges.add(("ReturnTo", t, 0))

    # synthetic field-def terminals for fields this method touches
    mentioned = {ast.token(t).lexeme for t in terminals
                 if ast.token(t).kind == KIND_IDENTIFIER}
    used_fields = sorted(set(fields) & mentioned)
    next_index = len(ast)
    for fname in used_fields:
        builder.field_nodes[fname] = next_index
        next_index += 1

    # initial environment: parameters then fields
    env: _State = {}
    for p in ast.find(NT_PARAM):
        name_term = ast.children[p][-1]
        pname = ast.lexeme(name_term)
        builder.locals.add(pname)
        env[pname] = (frozenset(), frozenset({name_term}))
    for fname in used_fields:
        env[f"this.{fname}"] = (frozenset(), frozenset({builder.field_nodes[fname]}))

    body = next((c for c in ast.children[0] if ast.node_types[c] == NT_BLOCK), None)
    if body is not None:
        builder.stmt(body, env, True, [])

    nodes = [GraphNode(i, ast.node_types[i],
                       ast.lexeme(i) if ast.is_terminal(i) else None,
                       ast.lines[i], ast.cols[i])
             for i in range(len(ast))]
    for fname in used_fields:
        nodes.append(GraphNode(builder.field_nodes[fname], "FieldDef", fname, 0, 0))
    formal_index = len(nodes)
    for arg_root, pname in builder.formal_nodes:
        nodes.append(GraphNode(formal_index, "FormalArgName", pname, 0, 0))
        builder.edges.add(("FormalArgName", arg_root, formal_index))
        formal_index += 1

    edges: dict[str, list[tuple[int, int]]] = {t: [] for t in EDGE_TYPES}
    for etype, src, dst in builder.edges:
        edges[etype].append((src, dst))
    for etype in EDGE_TYPES:
        edges[etype].sort()
    return FeatureGraph(nodes, edges, terminals)


def ast_graph(method: MethodSource) -> FeatureGraph:
    """Child-edges-only graph of the bare method AST (the ASTS payload)."""
    ast = method.ast
    nodes = [GraphNode(i, ast.node_types[i],
                       ast.lexeme(i) if ast.is_terminal(i) else None,
                       ast.lines[i], ast.cols[i])
             for i in range(len(ast))]
    edges = {"Child": sorted((ast.parents[i], i) for i in range(1, len(ast)))}
    terminals = [i for i in range(len(ast)) if ast.is_terminal(i)]
    return FeatureGraph(nodes, edges, terminals)


# ---------------------------------------------------------------------------
# Serialization: stable JSON payloads
# ---------------------------------------------------------------------------

def graph_payload(g: FeatureGraph) -> str:
    """Byte-stable JSON: nodes in index order, edge keys in EDGE_TYPES order."""
    nodes = []
    for n in g.nodes:
        item: dict = {"i": n.index, "type": n.node_type}
        if n.token is not None:
            item["token"] = n.token
        item["line"] = n.line
        item["col"] = n.col
        nodes.append(item)
    edges = {t: [[s, d] for s, d in sorted(g.edges[t])]
             for t in EDGE_TYPES if t in g.edges}
    return json.dumps({"nodes": nodes, "edges": edges},
                      separators=(",", ":"), ensure_ascii=False)


def parse_graph_payload(payload: str) -> FeatureGraph:
    data = json.loads(payload)
    nodes = [GraphNode(item["i"], item["type"], item.get("token"),
                       item["line"], item["col"])
             for item in data["nodes"]]
    edges = {t: [(s, d) for s, d in pairs]
             for t, pairs in data["edges"].items()}
    return FeatureGraph(nodes, edges)
