"""Independent reference implementations used to derive expected values.

Each oracle recomputes a quantity the library also computes, using a
different algorithmic shape:

* `npath_enumerator` counts execution paths by enumerating short-circuit
  outcomes of conditions, instead of the closed-form recurrence.
* `flow_edges_saturated` enumerates concrete execution paths (loops
  unrolled up to a bound that is raised until the answer stops changing)
  and scans each path for def/use events, instead of abstract fixpoint
  states.
* `all_path_contexts` enumerates every terminal pair through root paths,
  instead of walking a window of ancestors and sibling subtrees.
* `bpe_merges_oracle` recounts every pair of every line after each merge,
  instead of updating counts around the merge sites.
* `bpe_encode_oracle` rescans every pair of a line after each merge it
  applies, instead of keeping a heap of the pairs around the merge sites.
* `slice_lines_oracle` joins a method's whole lines from the file split at
  every "\n", instead of slicing the source between the line offsets
  `file_view` takes once per file.
* `lex_oracle` matches one token at a time from the current position and
  measures each lexeme for the column, instead of one `findall` pass whose
  matches each take a token and the text skipped before it.
* `extract_paths_oracle` walks the parent chain twice for every kept path
  and builds a frozen dataclass per path, and `to_c2vc_oracle` /
  `to_c2sq_oracle` render and hash every path anew, instead of slicing
  per-terminal ancestor chains and caching renders by path shape.
* `call_sites_oracle`, `mask_sites_oracle` and `swap_sites_oracle` are the
  three call-site scans that the call graph, the call-mask task and the
  mutation task each kept before `parser.call_sites` replaced them, with
  their own copies of the rule that names a `new`. They read a node's
  parts through the previous accessors.
* `type_text_oracle`, `for_parts_oracle`, `local_decl_parts_oracle`,
  `call_parts_oracle`, `new_parts_oracle` and `view_headers_oracle` are the
  parser's previous accessors and file-view headers, which scan a node's
  children for a `(`, `;`, `=` or `<` (and for `extends`/`implements`
  with flags) instead of reading the positions the grammar fixes.
* `local_decl_start_oracle` is the parser's previous lookahead for a local
  declaration, which re-read a dotted name and its `<...>` run (of names,
  primitive words, `.` and `,` only) by hand instead of trying
  `type_node` and rewinding.
* `SiteExtractorOracle` is the call graph's previous receiver resolution,
  one case per receiver shape (including `super`, which the parser
  rejects) with separate local and field scopes, and `simple_type_oracle`
  the type-name simplifier it applied to names that are already simple.
* `build_feature_graph_oracle` is the feature-graph builder that passed an
  `emit` flag through every step and kept a read, a write and a
  read-write step, two loop walks and two `this.field` rules, instead of
  one of each with emission as builder state.
* `method_sources_oracle` builds every method of a file eagerly, as
  `file_view` did before its methods built their subtree, tokens and text
  on first read: a `subtree` copy and a join of the file's lines per
  method, and the header read through `Ast.lexeme`.
* `subtree` re-roots a method's subtree by slicing the whole file's
  tables and shifting the indices they hold, as `Ast.subtree` did, instead
  of flattening the method's own build node over its token slice.
* `tknb_decode_oracle` splits a TKNB payload on the commas outside quoted
  literals with a quote and escape state machine, instead of matching the
  quoted separator or a run of non-commas.
* `write_table_oracle` writes a table with `csv.writer`, and
  `graph_payload_oracle` builds a dict per graph node and hands the whole
  tree to `json.dumps`, instead of formatting each row or node as a
  string.

The event extraction conventions (evaluation order, which occurrences
count as reads/writes) mirror the library's documented semantics; the
flow semantics on top of them are computed from scratch.
"""

import csv
import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from typing import Callable

from codecorpus.callgraph import _LITERAL_TYPES, _NULL, _dotted_text
from codecorpus.errors import InvalidArgumentError, LexError
from codecorpus.featuregraph import EDGE_TYPES, FeatureGraph, GraphNode
from codecorpus.lexer import (
    KEYWORDS, KIND_BOOL, KIND_CHAR, KIND_FLOAT, KIND_IDENTIFIER, KIND_INT,
    KIND_KEYWORD, KIND_NULL, KIND_OPERATOR, KIND_SEPARATOR, KIND_STRING,
    LITCOMMA, Token,
)
from codecorpus.parser import (
    MODIFIER_WORDS, Ast, FileView, MethodSource, NT_ASSIGN, NT_BINARY,
    NT_BLOCK, NT_CALL, NT_CLASS, NT_CTOR, NT_EXPR_STMT, NT_FIELD,
    NT_FIELD_ACCESS, NT_FOR, NT_FOR_INIT, NT_FOR_UPDATE, NT_IF, NT_IMPORT,
    NT_INTERFACE, NT_LOCAL, NT_METHOD, NT_NEW, NT_PACKAGE, NT_PARAM,
    NT_PAREN, NT_POSTFIX, NT_RETURN, NT_TERNARY, NT_TYPE, NT_UNARY,
    NT_WHILE, PRIMITIVE_WORDS, assign_parts, call_parts, for_parts,
    if_parts, local_decl_parts, new_parts, split_lines, type_simple_name,
    while_parts,
)
from codecorpus.pathcontexts import (
    MAX_CONTEXTS_DEFAULT, MAX_LENGTH_DEFAULT, MAX_WIDTH_DEFAULT, subtokens,
)

# ---------------------------------------------------------------------------
# Path-count oracle for NPTH
# ---------------------------------------------------------------------------


def _cond_ways(ast: Ast, node: int) -> tuple[int, int]:
    """(ways to evaluate true, ways to evaluate false) for a condition."""
    if ast.is_terminal(node):
        return (1, 1)
    nt = ast.node_types[node]
    if nt == NT_PAREN:
        inner = [c for c in ast.children[node]
                 if not (ast.is_terminal(c)
                         and ast.token(c).kind == KIND_SEPARATOR)]
        return _cond_ways(ast, inner[0]) if inner else (1, 1)
    if nt == NT_UNARY:
        op = ast.lexeme(ast.children[node][0])
        t, f = _cond_ways(ast, ast.children[node][1])
        return (f, t) if op == "!" else (t, f)
    if nt == NT_BINARY:
        lhs, op_t, rhs = ast.children[node][0], ast.children[node][1], \
            ast.children[node][2]
        op = ast.lexeme(op_t)
        if op == "&&":
            ta, fa = _cond_ways(ast, lhs)
            tb, fb = _cond_ways(ast, rhs)
            return (ta * tb, fa + ta * fb)
        if op == "||":
            ta, fa = _cond_ways(ast, lhs)
            tb, fb = _cond_ways(ast, rhs)
            return (ta + fa * tb, fa * fb)
        return (1, 1)
    return (1, 1)


def _stmt_path_count(ast: Ast, stmt: int) -> int:
    nt = ast.node_types[stmt]
    if nt == NT_BLOCK:
        n = 1
        for c in ast.nonterminal_children(stmt):
            n *= _stmt_path_count(ast, c)
        return n
    if nt == NT_IF:
        cond, then, els = if_parts(ast, stmt)
        t, f = _cond_ways(ast, cond)
        if els is None:
            return t * _stmt_path_count(ast, then) + f
        return t * _stmt_path_count(ast, then) + f * _stmt_path_count(ast, els)
    if nt == NT_WHILE:
        cond, body = while_parts(ast, stmt)
        t, f = _cond_ways(ast, cond)
        return f + t * _stmt_path_count(ast, body)
    if nt == NT_FOR:
        _init, cond, _update, body = for_parts(ast, stmt)
        t, f = _cond_ways(ast, cond) if cond is not None else (1, 1)
        return f + t * _stmt_path_count(ast, body)
    return 1


def npath_enumerator(ast: Ast) -> int:
    """Execution paths through the method, loops taken at most once."""
    body = next((c for c in ast.children[0]
                 if ast.node_types[c] == NT_BLOCK), None)
    if body is None:
        return 1
    return _stmt_path_count(ast, body)


# ---------------------------------------------------------------------------
# Data-flow oracle: path enumeration + event scan
# ---------------------------------------------------------------------------


@dataclass
class Ev:
    kind: str                  # 'r' | 'w' | 'rw'
    key: str
    term: int
    name: str
    guards: tuple              # ((cond_root, cond_names, negated), ...)


@dataclass
class Seq:
    items: list = field(default_factory=list)


@dataclass
class Branch:
    cond: Seq
    then: Seq
    els: "Seq | None"


@dataclass
class Loop:
    cond: "Seq | None"
    body: Seq


class _TreeBuilder:
    """Turns a method body into the nested event structure above."""

    def __init__(self, ast: Ast, fields: dict[str, str]):
        self.ast = ast
        self.fields = fields
        self.locals: set[str] = set()
        self.computed_from: set[tuple[int, int]] = set()

    def key_of(self, name: str) -> str | None:
        if name in self.locals:
            return name
        if name in self.fields:
            return f"this.{name}"
        return None

    def _ev(self, out: Seq, kind: str, term: int, name: str, guards) -> None:
        key = self.key_of(name)
        if key is not None:
            out.items.append(Ev(kind, key, term, name, tuple(guards)))

    def expr(self, node: int, out: Seq, guards) -> None:
        ast = self.ast
        if ast.is_terminal(node):
            if ast.token(node).kind == KIND_IDENTIFIER:
                self._ev(out, "r", node, ast.lexeme(node), guards)
            return
        nt = ast.node_types[node]
        if nt == NT_ASSIGN:
            lhs, op, rhs = assign_parts(ast, node)
            rhs_seq = Seq()
            self.expr(rhs, rhs_seq, guards)
            out.items.extend(rhs_seq.items)
            rhs_terms = [e.term for e in _flat_events(rhs_seq)]
            target = self._target(lhs)
            if target is None:
                if ast.node_types[lhs] == NT_FIELD_ACCESS:
                    self.expr(lhs, out, guards)
                return
            term, name = target
            self._ev(out, "w" if op == "=" else "rw", term, name, guards)
            for src in rhs_terms:
                self.computed_from.add((term, src))
        elif nt in (NT_BINARY, NT_TERNARY, NT_PAREN):
            for c in ast.children[node]:
                if not ast.is_terminal(c) \
                        or ast.token(c).kind == KIND_IDENTIFIER:
                    self.expr(c, out, guards)
        elif nt == NT_UNARY:
            op = ast.lexeme(ast.children[node][0])
            operand = ast.children[node][1]
            if op in ("++", "--"):
                self._incdec(operand, out, guards)
            else:
                self.expr(operand, out, guards)
        elif nt == NT_POSTFIX:
            self._incdec(ast.children[node][0], out, guards)
        elif nt == NT_CALL:
            receiver, _name, args = call_parts(ast, node)
            if receiver is not None:
                self.expr(receiver, out, guards)
            for a in args:
                self.expr(a, out, guards)
        elif nt == NT_NEW:
            _ty, args = new_parts(ast, node)
            for a in args:
                self.expr(a, out, guards)
        elif nt == NT_FIELD_ACCESS:
            recv, name_term = ast.children[node][0], ast.children[node][2]
            if ast.is_terminal(recv) and ast.lexeme(recv) == "this" \
                    and ast.token(recv).kind == KIND_KEYWORD:
                name = ast.lexeme(name_term)
                if name in self.fields:
                    out.items.append(Ev("r", f"this.{name}", name_term,
                                        name, tuple(guards)))
            else:
                self.expr(recv, out, guards)

    def _incdec(self, operand: int, out: Seq, guards) -> None:
        target = self._target(operand)
        if target is None:
            self.expr(operand, out, guards)
            return
        term, name = target
        self._ev(out, "rw", term, name, guards)

    def _target(self, node: int) -> tuple[int, str] | None:
        ast = self.ast
        if ast.is_terminal(node) and ast.token(node).kind == KIND_IDENTIFIER:
            name = ast.lexeme(node)
            return (node, name) if self.key_of(name) else None
        if ast.node_types[node] == NT_FIELD_ACCESS:
            recv, name_term = ast.children[node][0], ast.children[node][2]
            if ast.is_terminal(recv) and ast.lexeme(recv) == "this" \
                    and ast.token(recv).kind == KIND_KEYWORD:
                name = ast.lexeme(name_term)
                if name in self.fields:
                    return (name_term, name)
        return None

    def _cond_names(self, cond: int) -> frozenset[str]:
        out = set()
        for t in self.ast.terminals(cond):
            tok = self.ast.token(t)
            if tok.kind == KIND_IDENTIFIER and self.key_of(tok.lexeme):
                out.add(tok.lexeme)
        return frozenset(out)

    def stmt(self, node: int, out: Seq, guards) -> None:
        ast = self.ast
        nt = ast.node_types[node]
        if nt == NT_BLOCK:
            for c in ast.nonterminal_children(node):
                self.stmt(c, out, guards)
        elif nt == NT_LOCAL:
            _ty, name_term, init = local_decl_parts(ast, node)
            name = ast.lexeme(name_term)
            init_seq = Seq()
            if init is not None:
                self.expr(init, init_seq, guards)
            out.items.extend(init_seq.items)
            self.locals.add(name)
            self._ev(out, "w", name_term, name, guards)
            for e in _flat_events(init_seq):
                self.computed_from.add((name_term, e.term))
        elif nt == NT_EXPR_STMT:
            self.expr(ast.children[node][0], out, guards)
        elif nt == NT_RETURN:
            for c in ast.children[node]:
                if ast.is_terminal(c) and ast.token(c).kind in (
                        KIND_KEYWORD, KIND_SEPARATOR):
                    continue
                self.expr(c, out, guards)
        elif nt == NT_IF:
            cond, then, els = if_parts(ast, node)
            cond_seq = Seq()
            self.expr(cond, cond_seq, guards)
            names = self._cond_names(cond)
            then_seq = Seq()
            self.stmt(then, then_seq, guards + [(cond, names, False)])
            els_seq = None
            if els is not None:
                els_seq = Seq()
                self.stmt(els, els_seq, guards + [(cond, names, True)])
            out.items.append(Branch(cond_seq, then_seq, els_seq))
        elif nt == NT_WHILE:
            cond, body = while_parts(ast, node)
            cond_seq = Seq()
            self.expr(cond, cond_seq, guards)
            body_seq = Seq()
            self.stmt(body, body_seq, guards)
            out.items.append(Loop(cond_seq, body_seq))
        elif nt == NT_FOR:
            init, cond, update, body = for_parts(ast, node)
            if init is not None:
                if ast.node_types[init] == NT_LOCAL:
                    self.stmt(init, out, guards)
                else:
                    self.expr(init, out, guards)
            cond_seq = None
            if cond is not None:
                cond_seq = Seq()
                self.expr(cond, cond_seq, guards)
            body_seq = Seq()
            self.stmt(body, body_seq, guards)
            if update is not None:
                self.expr(update, body_seq, guards)
            out.items.append(Loop(cond_seq, body_seq))
        else:
            for c in ast.nonterminal_children(node):
                self.expr(c, out, guards)


def _flat_events(node) -> list[Ev]:
    """Every event anywhere under the structure, in construction order."""
    if isinstance(node, Ev):
        return [node]
    if isinstance(node, Seq):
        return [e for item in node.items for e in _flat_events(item)]
    if isinstance(node, Branch):
        out = _flat_events(node.cond) + _flat_events(node.then)
        if node.els is not None:
            out += _flat_events(node.els)
        return out
    if isinstance(node, Loop):
        out = _flat_events(node.cond) if node.cond else []
        return out + _flat_events(node.body)
    raise TypeError(type(node))


_PATH_CAP = 500_000


def _enum(node, bound: int) -> list[list[Ev]]:
    """All event sequences through the structure, loops run 0..bound times."""
    if isinstance(node, Ev):
        return [[node]]
    if isinstance(node, Seq):
        paths = [[]]
        for item in node.items:
            sub = _enum(item, bound)
            paths = [p + s for p in paths for s in sub]
            if len(paths) > _PATH_CAP:
                raise RuntimeError("path explosion; shrink the fixture")
        return paths
    if isinstance(node, Branch):
        cond = _enum(node.cond, bound)
        then = _enum(node.then, bound)
        els = _enum(node.els, bound) if node.els is not None else [[]]
        return [c + t for c in cond for t in then] + \
               [c + e for c in cond for e in els]
    if isinstance(node, Loop):
        cond = _enum(node.cond, bound) if node.cond is not None else [[]]
        body = _enum(node.body, bound)
        out = []
        for k in range(bound + 1):
            # cond, body, cond, body, ..., cond   (k bodies, k+1 conds)
            rounds = [cond] + [body, cond] * k
            partial = [[]]
            for r in rounds:
                partial = [p + s for p in partial for s in r]
                if len(partial) > _PATH_CAP:
                    raise RuntimeError("path explosion; shrink the fixture")
            out.extend(partial)
        return out
    raise TypeError(type(node))


def _scan(path: list[Ev], init: dict) -> set[tuple[str, int, int]]:
    state = {k: (set(r), set(w)) for k, (r, w) in init.items()}
    edges = set()
    for ev in path:
        reads, writes = state.get(ev.key, (set(), set()))
        if ev.kind in ("r", "rw"):
            for tgt in reads:
                edges.add(("LastRead", ev.term, tgt))
            for tgt in writes:
                edges.add(("LastWrite", ev.term, tgt))
        if ev.kind == "r":
            state[ev.key] = ({ev.term}, writes)
        elif ev.kind == "w":
            state[ev.key] = (reads, {ev.term})
        else:
            state[ev.key] = ({ev.term}, {ev.term})
    return edges


def flow_oracle(method: MethodSource, fields: dict[str, str] | None = None,
                loop_bound: int = 1) -> dict[str, set[tuple[int, int]]]:
    """LastRead/LastWrite/ComputedFrom/Guarded* edges by path enumeration."""
    ast = method.ast
    fields = dict(fields or {})
    tb = _TreeBuilder(ast, fields)

    terminals = [i for i in range(len(ast)) if ast.is_terminal(i)]
    mentioned = {ast.lexeme(t) for t in terminals
                 if ast.token(t).kind == KIND_IDENTIFIER}
    used_fields = sorted(set(fields) & mentioned)
    field_node = {f: len(ast) + k for k, f in enumerate(used_fields)}

    init: dict[str, tuple[set, set]] = {}
    for p in ast.find(NT_PARAM):
        name_term = ast.children[p][-1]
        pname = ast.lexeme(name_term)
        tb.locals.add(pname)
        init[pname] = (set(), {name_term})
    for f in used_fields:
        init[f"this.{f}"] = (set(), {field_node[f]})

    root = Seq()
    body = next((c for c in ast.children[0]
                 if ast.node_types[c] == NT_BLOCK), None)
    if body is not None:
        tb.stmt(body, root, [])

    flow: set[tuple[str, int, int]] = set()
    for path in _enum(root, loop_bound):
        flow |= _scan(path, init)

    out: dict[str, set[tuple[int, int]]] = {
        "LastRead": set(), "LastWrite": set(), "ComputedFrom": set(),
        "GuardedBy": set(), "GuardedByNegation": set(),
    }
    for etype, src, dst in flow:
        out[etype].add((src, dst))
    out["ComputedFrom"] = set(tb.computed_from)
    for ev in _flat_events(root):
        for cond_root, cond_names, negated in ev.guards:
            if ev.name in cond_names:
                kind = "GuardedByNegation" if negated else "GuardedBy"
                out[kind].add((ev.term, cond_root))
    return out


def flow_edges_saturated(method: MethodSource,
                         fields: dict[str, str] | None = None,
                         max_bound: int = 8
                         ) -> tuple[dict[str, set[tuple[int, int]]], int]:
    """Raise the loop bound until the edge sets stop changing."""
    prev = flow_oracle(method, fields, loop_bound=0)
    for bound in range(1, max_bound + 1):
        cur = flow_oracle(method, fields, loop_bound=bound)
        if cur == prev:
            return cur, bound - 1
        prev = cur
    raise RuntimeError(f"flow oracle did not saturate by bound {max_bound}")


# ---------------------------------------------------------------------------
# All-pairs path-context oracle
# ---------------------------------------------------------------------------


def _root_path(ast: Ast, node: int) -> list[int]:
    out = [node]
    while out[-1] != 0:
        out.append(ast.parents[out[-1]])
    return list(reversed(out))


def all_path_contexts(ast: Ast, max_length: int | None = None,
                      max_width: int | None = None
                      ) -> set[tuple[int, int, str]]:
    """(start, end, rendered path) for every admissible terminal pair."""
    terms = [i for i in range(len(ast)) if ast.is_terminal(i)]
    pos = {}
    for parent, kids in enumerate(ast.children):
        for k, c in enumerate(kids):
            pos[c] = k
    root_paths = [_root_path(ast, t) for t in terms]
    out = set()
    for ai, a in enumerate(terms):
        pa = root_paths[ai]
        for bi in range(ai + 1, len(terms)):
            b = terms[bi]
            pb = root_paths[bi]
            c = 0
            while c < len(pa) and c < len(pb) and pa[c] == pb[c]:
                c += 1
            lca = pa[c - 1]
            up = pa[c:-1]        # below lca down to just above a
            down = pb[c:-1]
            length = len(up) + 1 + len(down)
            if max_length is not None and length > max_length:
                continue
            branch_a = pa[c] if c < len(pa) else a
            branch_b = pb[c] if c < len(pb) else b
            width = abs(pos[branch_b] - pos[branch_a])
            if max_width is not None and width > max_width:
                continue
            pieces = []
            for n in reversed(up):
                pieces.append(ast.node_types[n])
                pieces.append("↑")
            pieces.append(ast.node_types[lca])
            for n in down:
                pieces.append("↓")
                pieces.append(ast.node_types[n])
            out.add((a, b, "".join(pieces)))
    return out


# ---------------------------------------------------------------------------
# Per-path extraction and renderers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OraclePath:
    start_terminal: int
    end_terminal: int
    up_nodes: tuple[str, ...]     # node types from just above start to below lca
    lca: str
    down_nodes: tuple[str, ...]   # node types from just below lca to just above end

    @property
    def length(self) -> int:
        return len(self.up_nodes) + 1 + len(self.down_nodes)


def render_path_oracle(p) -> str:
    """Direction-marked node-type sequence, e.g. `Binary↑ReturnStmt↓Call`."""
    out = []
    for nt in p.up_nodes:
        out.append(nt)
        out.append("↑")
    out.append(p.lca)
    for nt in p.down_nodes:
        out.append("↓")
        out.append(nt)
    return "".join(out)


def path_hash_oracle(p) -> str:
    return hashlib.sha256(render_path_oracle(p).encode("utf-8")).hexdigest()[:16]


def extract_paths_oracle(ast: Ast,
                         max_length: int = MAX_LENGTH_DEFAULT,
                         max_width: int = MAX_WIDTH_DEFAULT,
                         max_contexts: int = MAX_CONTEXTS_DEFAULT,
                         seed: int = 0) -> list[OraclePath]:
    """All admissible terminal pairs, sampled down to max_contexts.

    Pairs are ordered by token position (start strictly before end). When
    more than max_contexts survive the length/width filters, a uniform
    sample without replacement is drawn with `seed` and returned in the
    original source order.
    """
    if max_length < 1 or max_width < 1 or max_contexts < 1:
        raise InvalidArgumentError("path limits must be >= 1")
    terminals = [i for i in range(len(ast)) if ast.is_terminal(i)]
    if len(terminals) < 2:
        return []
    parents = ast.parents
    children = ast.children
    reach = max_length - 1          # most nodes on either side of the lca

    # below[n][r]: terminals r levels under node n (n itself at r = 0)
    below: list[list[list[int]]] = [[] for _ in range(len(ast))]
    for t in terminals:
        n, r = t, 0
        while r <= reach:
            levels = below[n]
            while len(levels) <= r:
                levels.append([])
            levels[r].append(t)
            if n == 0:
                break
            n, r = parents[n], r + 1
    pos_in_parent = [0] * len(ast)
    for kids in children:
        for k, c in enumerate(kids):
            pos_in_parent[c] = k

    # (start, end, nodes above start, nodes above end) below the lca
    pairs: list[tuple[int, int, int, int]] = []
    for a in terminals:
        found = []
        branch, d_a = a, 0
        while branch != 0 and d_a <= reach:
            lca = parents[branch]
            k = pos_in_parent[branch]
            for sibling in children[lca][k + 1:k + 1 + max_width]:
                for d_b, ends in enumerate(below[sibling][:reach - d_a + 1]):
                    found.extend((a, b, d_a, d_b) for b in ends)
            branch, d_a = lca, d_a + 1
        found.sort()
        pairs.extend(found)

    if len(pairs) > max_contexts:
        rng = random.Random(seed)
        keep = sorted(rng.sample(range(len(pairs)), max_contexts))
        pairs = [pairs[k] for k in keep]
    types = ast.node_types
    paths = []
    for a, b, d_a, d_b in pairs:
        up = []
        n = a
        for _ in range(d_a):
            n = parents[n]
            up.append(types[n])
        down = []
        m = b
        for _ in range(d_b):
            m = parents[m]
            down.append(types[m])
        down.reverse()
        paths.append(OraclePath(a, b, tuple(up), types[parents[n]],
                                tuple(down)))
    return paths


def to_c2vc_oracle(method: MethodSource, paths) -> str:
    """`label left,pathhash,right ...` with raw terminal text."""
    ast = method.ast
    parts = [method.name]
    for p in paths:
        left = ast.lexeme(p.start_terminal)
        right = ast.lexeme(p.end_terminal)
        parts.append(f"{left},{path_hash_oracle(p)},{right}")
    return " ".join(parts)


def to_c2sq_oracle(method: MethodSource, paths) -> str:
    """`sub|toks left,Node↑..↓Node,right ...` with subtokenized terminals."""
    ast = method.ast
    parts = ["|".join(subtokens(method.name))]
    for p in paths:
        left = "|".join(subtokens(ast.lexeme(p.start_terminal)))
        right = "|".join(subtokens(ast.lexeme(p.end_terminal)))
        parts.append(f"{left},{render_path_oracle(p)},{right}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Previous shape accessors
# ---------------------------------------------------------------------------
# Each scans a node's children for the separator or operator that bounds
# the part it wants, instead of reading the position the grammar fixes.


def local_decl_start_oracle(tokens: list[Token], i: int) -> bool:
    """Whether a statement at `tokens[i]` was read as a local declaration:
    a primitive word or `final`, or `Type name` with the type scanned by
    hand."""
    t = tokens[i] if i < len(tokens) else None
    if t is None:
        return False
    if t.kind == KIND_KEYWORD:
        return t.lexeme in PRIMITIVE_WORDS or t.lexeme == "final"
    if t.kind != KIND_IDENTIFIER:
        return False

    def at(j, kind, lexeme=None):
        return j < len(tokens) and tokens[j].kind == kind \
            and (lexeme is None or tokens[j].lexeme == lexeme)

    j = i + 1
    while at(j, KIND_SEPARATOR, ".") and at(j + 1, KIND_IDENTIFIER):
        j += 2
    if at(j, KIND_OPERATOR, "<"):
        depth = 0
        while j < len(tokens):
            t = tokens[j]
            if t.kind == KIND_OPERATOR and t.lexeme == "<":
                depth += 1
            elif t.kind == KIND_OPERATOR and t.lexeme == ">":
                depth -= 1
                if depth == 0:
                    j += 1
                    break
            elif not (t.kind == KIND_IDENTIFIER
                      or (t.kind == KIND_KEYWORD and t.lexeme in PRIMITIVE_WORDS)
                      or (t.kind == KIND_SEPARATOR and t.lexeme in ".,")):
                return False
            j += 1
        else:
            return False
    return at(j, KIND_IDENTIFIER)


def type_text_oracle(ast: Ast, type_node: int) -> str:
    parts = []
    for c in ast.children[type_node]:
        tok = ast.token(c)
        if tok.kind == KIND_OPERATOR and tok.lexeme == "<":
            break
        parts.append(tok.lexeme)
    return "".join(parts)


def type_simple_name_oracle(ast: Ast, type_node: int) -> str:
    return type_text_oracle(ast, type_node).rsplit(".", 1)[-1]


def for_parts_oracle(ast: Ast, i: int):
    """Drops a condition that is a single terminal."""
    init = cond = update = None
    semis = 0
    for c in ast.children[i][1:]:
        nt = ast.node_types[c]
        if ast.is_terminal(c):
            tok = ast.token(c)
            if tok.kind == KIND_SEPARATOR and tok.lexeme == ";":
                semis += 1
            continue
        if nt == NT_FOR_INIT:
            init = ast.nonterminal_children(c)[0] if ast.nonterminal_children(c) \
                else ast.children[c][0]
        elif nt == NT_FOR_UPDATE:
            update = ast.children[c][0]
        elif semis == 1 and cond is None:
            cond = c
    body = ast.children[i][-1]
    return init, cond, update, body


def local_decl_parts_oracle(ast: Ast, i: int):
    kids = ast.children[i]
    ty = next(c for c in kids if ast.node_types[c] == NT_TYPE)
    name = kids[kids.index(ty) + 1]
    init = None
    for j, c in enumerate(kids):
        if ast.is_terminal(c) and ast.token(c).kind == KIND_OPERATOR \
                and ast.lexeme(c) == "=":
            init = kids[j + 1]
            break
    return ty, name, init


def _args_after(ast: Ast, kids, lparen: int) -> list[int]:
    return [c for c in kids[lparen + 1:]
            if not (ast.is_terminal(c) and ast.token(c).kind == KIND_SEPARATOR)]


def _lparen(ast: Ast, kids) -> int:
    return next(j for j, c in enumerate(kids)
                if ast.is_terminal(c) and ast.token(c).kind == KIND_SEPARATOR
                and ast.lexeme(c) == "(")


def call_parts_oracle(ast: Ast, i: int):
    kids = ast.children[i]
    lparen = _lparen(ast, kids)
    receiver = kids[0] if lparen >= 3 else None
    return receiver, kids[lparen - 1], _args_after(ast, kids, lparen)


def new_parts_oracle(ast: Ast, i: int):
    kids = ast.children[i]
    ty = next(c for c in kids if ast.node_types[c] == NT_TYPE)
    return ty, _args_after(ast, kids, _lparen(ast, kids))


def view_headers_oracle(view: FileView) -> dict:
    """Package, imports and, per class, the header and member summary that
    `file_view` derives, read off the file's Ast by keyword and type scans
    with flags for `extends` and `implements`."""
    ast = view.ast
    out = {"package": "", "imports": [], "classes": []}
    for child in ast.children[0]:
        nt = ast.node_types[child]
        if nt == NT_PACKAGE:
            out["package"] = ".".join(
                ast.lexeme(c) for c in ast.children[child]
                if ast.is_terminal(c) and ast.token(c).kind == KIND_IDENTIFIER)
        elif nt == NT_IMPORT:
            parts = [ast.lexeme(c) for c in ast.children[child]
                     if ast.is_terminal(c)
                     and ast.token(c).kind in (KIND_IDENTIFIER, KIND_OPERATOR)]
            out["imports"].append((".".join(p for p in parts if p != "*"),
                                   bool(parts) and parts[-1] == "*"))
        elif nt in (NT_CLASS, NT_INTERFACE):
            out["classes"].append(_class_header_oracle(ast, child))
    return out


def _class_header_oracle(ast: Ast, node: int) -> tuple:
    kids = ast.children[node]
    kw = next(c for c in kids if ast.is_terminal(c)
              and ast.token(c).kind == KIND_KEYWORD
              and ast.lexeme(c) in ("class", "interface"))
    name = ast.lexeme(kids[kids.index(kw) + 1])
    extends = None
    implements = []
    seen_extends = seen_implements = False
    for c in kids:
        if ast.is_terminal(c) and ast.token(c).kind == KIND_KEYWORD:
            if ast.lexeme(c) == "extends":
                seen_extends = True
            elif ast.lexeme(c) == "implements":
                seen_implements = True
                seen_extends = False
        elif ast.node_types[c] == NT_TYPE:
            if seen_extends and extends is None:
                extends = type_text_oracle(ast, c)
            elif seen_implements:
                implements.append(type_text_oracle(ast, c))
    fields = {}
    methods = []
    for c in kids:
        if ast.node_types[c] == NT_FIELD:
            fty, fname, _ = local_decl_parts_oracle(ast, c)
            fields[ast.lexeme(fname)] = type_simple_name_oracle(ast, fty)
        elif ast.node_types[c] in (NT_METHOD, NT_CTOR):
            methods.append(_method_header_oracle(ast, c, name))
    kind = "interface" if ast.node_types[node] == NT_INTERFACE else "class"
    return (name, kind, extends, implements, fields, methods)


def _method_header_oracle(ast: Ast, member: int, class_name: str) -> tuple:
    kids = ast.children[member]
    is_ctor = ast.node_types[member] == NT_CTOR
    modifiers = frozenset(
        ast.lexeme(c) for c in kids
        if ast.is_terminal(c) and ast.token(c).kind == KIND_KEYWORD
        and ast.lexeme(c) in MODIFIER_WORDS)
    if is_ctor:
        name_node = next(c for c in kids if ast.is_terminal(c)
                         and ast.token(c).kind == KIND_IDENTIFIER)
        return_type = class_name
    else:
        ty = next(c for c in kids if ast.node_types[c] == NT_TYPE)
        name_node = kids[kids.index(ty) + 1]
        return_type = type_simple_name_oracle(ast, ty)
    param_types = []
    param_names = []
    for p in kids:
        if ast.node_types[p] != NT_PARAM:
            continue
        pkids = ast.children[p]
        pty = next(c for c in pkids if ast.node_types[c] == NT_TYPE)
        param_types.append(type_simple_name_oracle(ast, pty))
        param_names.append(ast.lexeme(pkids[pkids.index(pty) + 1]))
    return (ast.lexeme(name_node), return_type, param_types, param_names,
            modifiers, is_ctor)


# ---------------------------------------------------------------------------
# Previous eager method sources
# ---------------------------------------------------------------------------

def subtree(ast: Ast, root: int, tokens: list[Token]) -> Ast:
    """Re-rooted copy of a subtree over `tokens`, the slice of `ast.tokens`
    it spans: slices of the tables, indices shifted."""
    end = root + ast.subtree_sizes[root]
    t0 = ast.token_span(root)[0]
    return Ast(
        node_types=ast.node_types[root:end],
        token_indices=[None if ti is None else ti - t0
                       for ti in ast.token_indices[root:end]],
        parents=[-1, *[p - root for p in ast.parents[root + 1:end]]],
        tokens=tokens,
        children=[tuple([c - root for c in kids]) if kids else ()
                  for kids in ast.children[root:end]],
        subtree_sizes=ast.subtree_sizes[root:end],
    )


@dataclass
class MethodSourceOracle:
    name: str
    signature: str
    start_line: int
    end_line: int
    text: str
    ast: Ast
    param_types: list[str]
    param_names: list[str]
    return_type: str
    is_constructor: bool
    modifiers: frozenset[str]
    class_name: str


def _method_source_oracle(ast: Ast, lines: list[str], member: int,
                          class_name: str) -> MethodSourceOracle:
    kids = ast.children[member]
    # shape: modifiers [Type] name '(' [Param (',' Param)*] ')' (Block | ';')
    lparen = next(j for j, c in enumerate(kids)
                  if ast.is_terminal(c) and ast.lexeme(c) == "(")
    is_ctor = ast.node_types[member] == NT_CTOR
    modifiers = frozenset(ast.lexeme(c) for c in kids[:lparen]
                          if ast.is_terminal(c) and ast.lexeme(c) in MODIFIER_WORDS)
    name = ast.lexeme(kids[lparen - 1])
    return_type = class_name if is_ctor else type_simple_name(ast, kids[lparen - 2])
    param_types = []
    param_names = []
    for p in kids[lparen + 1:-2:2]:
        *_modifiers, pty, pname = ast.children[p]   # modifiers Type name
        param_types.append(type_simple_name(ast, pty))
        param_names.append(ast.lexeme(pname))
    signature = f"{name}({','.join(param_types)})"
    terms = ast.terminals(member)
    sub = subtree(ast, member, ast.tokens[ast.token_indices[terms[0]]:
                                          ast.token_indices[terms[-1]] + 1])
    start, end = sub.tokens[0].line, sub.tokens[-1].line
    return MethodSourceOracle(
        name=name,
        signature=signature,
        start_line=start,
        end_line=end,
        text="".join(lines[start - 1:end]),
        ast=sub,
        param_types=param_types,
        param_names=param_names,
        return_type=return_type,
        is_constructor=is_ctor,
        modifiers=modifiers,
        class_name=class_name,
    )


def method_sources_oracle(view: FileView) -> list[list[MethodSourceOracle]]:
    """Each class's methods, in `view.classes` order, built eagerly."""
    ast = view.ast
    lines = split_lines(view.source)
    out = []
    for child in ast.children[0]:
        if ast.node_types[child] not in (NT_CLASS, NT_INTERFACE):
            continue
        kids = ast.children[child]
        kw = next(j for j, c in enumerate(kids) if ast.is_terminal(c)
                  and ast.lexeme(c) in ("class", "interface"))
        name = ast.lexeme(kids[kw + 1])
        out.append([_method_source_oracle(ast, lines, c, name) for c in kids
                    if ast.node_types[c] in (NT_METHOD, NT_CTOR)])
    return out


# ---------------------------------------------------------------------------
# Previous call-site scans
# ---------------------------------------------------------------------------


def call_sites_oracle(ast: Ast, include_constructors: bool
                      ) -> list[tuple[int, int, str, list[int]]]:
    """(site node, name terminal, callee name, argument roots) per call
    site, as the call graph scanned them: a `new` takes its name from the
    erased type text and its position from the type's last identifier
    before any `<`, else from its first terminal."""
    out = []
    for i in range(len(ast)):
        nt = ast.node_types[i]
        if nt == NT_CALL:
            _recv, name_term, args = call_parts_oracle(ast, i)
            out.append((i, name_term, ast.lexeme(name_term), args))
        elif nt == NT_NEW and include_constructors:
            ty, args = new_parts_oracle(ast, i)
            name = simple_type_oracle(type_text_oracle(ast, ty))
            name_term = ast.terminals(ty)[0]
            for t in ast.terminals(ty):
                t_tok = ast.token(t)
                if t_tok.kind == KIND_OPERATOR and t_tok.lexeme == "<":
                    break
                if t_tok.kind == KIND_IDENTIFIER:
                    name_term = t
            out.append((i, name_term, name, args))
    return out


def _terminal_order(ast) -> list[int]:
    return [i for i in range(len(ast)) if ast.is_terminal(i)]


def _type_name_terminal(ast, type_node: int) -> int | None:
    """Terminal of the simple class name: last identifier before generics."""
    name_term = None
    for t in ast.terminals(type_node):
        tok = ast.token(t)
        if tok.kind == KIND_OPERATOR and tok.lexeme == "<":
            break
        if tok.kind == KIND_IDENTIFIER:
            name_term = t
    return name_term


def mask_sites_oracle(method: MethodSource, include_constructors: bool
                      ) -> list[tuple[int, int, str]]:
    """(name terminal, token position, callee name) per site the call-mask
    task could mask; a `new` whose type has no identifier is never one."""
    ast = method.ast
    order = _terminal_order(ast)
    pos = {t: k for k, t in enumerate(order)}
    sites = []
    for i in range(len(ast)):
        nt = ast.node_types[i]
        if nt == NT_CALL:
            _recv, name_term, _args = call_parts_oracle(ast, i)
            sites.append((name_term, pos[name_term], ast.lexeme(name_term)))
        elif nt == NT_NEW and include_constructors:
            ty, _args = new_parts_oracle(ast, i)
            name_term = _type_name_terminal(ast, ty)
            if name_term is not None:
                sites.append((name_term, pos[name_term], ast.lexeme(name_term)))
    return sites


def swap_sites_oracle(method: MethodSource) -> list[tuple[int, list[int]]]:
    """(call node, argument roots) for sites with >= 2 arguments."""
    ast = method.ast
    sites = []
    for i in range(len(ast)):
        nt = ast.node_types[i]
        if nt == NT_CALL:
            _recv, _name, args = call_parts_oracle(ast, i)
        elif nt == NT_NEW:
            _ty, args = new_parts_oracle(ast, i)
        else:
            continue
        if len(args) >= 2:
            sites.append((i, args))
    return sites


# ---------------------------------------------------------------------------
# Previous receiver resolution
# ---------------------------------------------------------------------------


def simple_type_oracle(type_str: str) -> str:
    """Simple class name of a possibly dotted, possibly generic type."""
    return type_str.split("<", 1)[0].rsplit(".", 1)[-1]


class _MethodScopeOracle:
    """Declared types visible inside one method body: locals and
    parameters, with the fields apart."""

    def __init__(self, method: MethodSource, entry):
        self.entry = entry
        self.types: dict[str, str] = {}
        for pname, ptype in zip(method.param_names, method.param_types):
            self.types[pname] = simple_type_oracle(ptype)
        ast = method.ast
        for d in ast.find(NT_LOCAL):
            ty, name_term, _init = local_decl_parts_oracle(ast, d)
            self.types[ast.lexeme(name_term)] = \
                simple_type_oracle(type_text_oracle(ast, ty))
        self.field_types = {n: simple_type_oracle(t)
                            for n, t in entry.cv.fields.items()}

    def type_of_name(self, name: str) -> str | None:
        return self.types.get(name) or self.field_types.get(name)


class SiteExtractorOracle:
    """`callgraph._SiteExtractor` as it resolved a receiver case by case:
    implicit, `this`, `super`, a variable, a class name, a dotted chain,
    any other expression. A drop-in for it (same constructor and
    `resolve`)."""

    def __init__(self, resolver, entry, method: MethodSource):
        self.r = resolver
        self.entry = entry
        self.method = method
        self.scope = _MethodScopeOracle(method, entry)

    def resolve(self, site):
        ast = self.method.ast
        name = ast.lexeme(site.name)
        arg_types = [self.expr_type(a) for a in site.args]
        if ast.node_types[site.node] == NT_CALL:
            resolved = self._resolve_call(site.node, site.name, arg_types)
        else:
            ty, _args = new_parts_oracle(ast, site.node)
            target = self.r.class_in_context(type_text_oracle(ast, ty),
                                             self.entry.view)
            resolved = None if target is None else self.r.lookup_method(
                target, name, arg_types, constructor=True)
        if resolved is not None:
            return resolved, resolved[1].signature
        types = [t if t and t != _NULL else "?" for t in arg_types]
        return None, f"{name}({','.join(types)})"

    def expr_type(self, node: int) -> str | None:
        ast = self.method.ast
        if ast.is_terminal(node):
            tok = ast.token(node)
            if tok.kind in _LITERAL_TYPES:
                return _LITERAL_TYPES.get((tok.kind, tok.lexeme[-1]),
                                          _LITERAL_TYPES[tok.kind])
            if tok.kind == KIND_IDENTIFIER:
                return self.scope.type_of_name(tok.lexeme)
            if tok.kind == KIND_KEYWORD and tok.lexeme == "this":
                return self.entry.cv.name
            return None
        nt = ast.node_types[node]
        if nt == NT_NEW:
            ty, _args = new_parts_oracle(ast, node)
            return simple_type_oracle(type_text_oracle(ast, ty))
        if nt == NT_PAREN:
            inner = [c for c in ast.children[node]
                     if not (ast.is_terminal(c)
                             and ast.token(c).kind == KIND_SEPARATOR)]
            return self.expr_type(inner[0]) if inner else None
        if nt == NT_FIELD_ACCESS:
            recv, name_term = ast.children[node][0], ast.children[node][2]
            if ast.is_terminal(recv) and ast.lexeme(recv) == "this":
                return self.scope.field_types.get(ast.lexeme(name_term))
            return None
        if nt == NT_CALL:
            _recv, name_term, args = call_parts_oracle(ast, node)
            resolved = self._resolve_call(
                node, name_term, [self.expr_type(a) for a in args])
            if resolved is not None:
                _entry, target = resolved
                return simple_type_oracle(target.return_type) \
                    if target.return_type else None
            return None
        return None

    def _resolve_call(self, node: int, name_term: int, arg_types):
        ast = self.method.ast
        name = ast.lexeme(name_term)
        receiver = ast.children[node][0]
        if receiver == name_term:
            return self.r.lookup_method(self.entry, name, arg_types)
        if ast.is_terminal(receiver):
            tok = ast.token(receiver)
            if tok.kind == KIND_KEYWORD and tok.lexeme == "this":
                return self.r.lookup_method(self.entry, name, arg_types)
            if tok.kind == KIND_KEYWORD and tok.lexeme == "super":
                sup = self.r.superclass(self.entry)
                return self.r.lookup_method(sup, name, arg_types) if sup else None
            if tok.kind == KIND_IDENTIFIER:
                var_type = self.scope.type_of_name(tok.lexeme)
                if var_type is not None:
                    target = self.r.class_in_context(var_type, self.entry.view)
                    return self.r.lookup_method(target, name, arg_types) \
                        if target else None
                target = self.r.class_in_context(tok.lexeme, self.entry.view)
                return self.r.lookup_method(target, name, arg_types) \
                    if target else None
            return None
        dotted = _dotted_text(ast, receiver)
        if dotted is not None:
            target = self.r.class_in_context(dotted, self.entry.view)
            if target is not None:
                return self.r.lookup_method(target, name, arg_types)
            return None
        recv_type = self.expr_type(receiver)
        if recv_type is not None and recv_type != _NULL:
            target = self.r.class_in_context(recv_type, self.entry.view)
            if target is not None:
                return self.r.lookup_method(target, name, arg_types)
        return None


# ---------------------------------------------------------------------------
# Recount helpers
# ---------------------------------------------------------------------------


def recount_distribution(edges) -> dict[str, float]:
    """Call-type fractions recomputed from raw edge rows."""
    from collections import Counter
    counts = Counter(e.call_type for e in edges)
    total = sum(counts.values())
    return {t: counts.get(t, 0) / total
            for t in ("Local", "Package", "Project", "API")}


def recount_fit(records, thresholds) -> dict[tuple[str, str], list[float]]:
    """Window-fit fractions recomputed directly from size records."""
    groups: dict[tuple[str, str], list[int]] = {}
    for r in records:
        groups.setdefault((r.granularity, r.tokenizer_tag),
                          []).append(r.subtoken_count)
    return {key: [sum(1 for n in sizes if n <= tau) / len(sizes)
                  for tau in thresholds]
            for key, sizes in sorted(groups.items())}


# ---------------------------------------------------------------------------
# Full-rescan BPE trainer
# ---------------------------------------------------------------------------


def _merge_all(symbols: list[bytes], pair: tuple[bytes, bytes]
               ) -> list[bytes]:
    out: list[bytes] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(pair[0] + pair[1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def _lines_oracle(text: str) -> list[str]:
    """The text's lines with their endings, broken at "\\n" only."""
    *ended, last = text.split("\n")
    return [line + "\n" for line in ended] + ([last] if last else [])


def slice_lines_oracle(source: str, start_line: int, end_line: int) -> str:
    """Lines `start_line` to `end_line` of `source`, 1-based and inclusive,
    with their endings: the whole-line text a `MethodSource` holds."""
    return "".join(_lines_oracle(source)[start_line - 1:end_line])


def bpe_merges_oracle(corpus_text: str, vocab_size: int
                      ) -> list[tuple[bytes, bytes]]:
    """Merge rules learned by recounting every pair of every line after each
    merge, instead of updating the counts around the merge sites."""
    from collections import Counter
    lines = _lines_oracle(corpus_text)
    seqs = [([bytes([b]) for b in line.encode("utf-8")], n)
            for line, n in sorted(Counter(lines).items())]
    vocab = {bytes([b]) for b in range(256)}
    merges: list[tuple[bytes, bytes]] = []
    while len(vocab) < vocab_size:
        counts: Counter = Counter()
        for symbols, n in seqs:
            for pair in zip(symbols, symbols[1:]):
                counts[pair] += n
        top = max(counts.values(), default=0)
        if top < 2:
            break
        pair = min(p for p, c in counts.items() if c == top)
        merges.append(pair)
        vocab.add(pair[0] + pair[1])
        seqs = [(_merge_all(symbols, pair), n) for symbols, n in seqs]
    return merges


# ---------------------------------------------------------------------------
# Full-rescan BPE encoder
# ---------------------------------------------------------------------------

def _encode_line(merges, rank, line: str) -> list[bytes]:
    symbols = [bytes([b]) for b in line.encode("utf-8")]
    while len(symbols) > 1:
        ranked = [(rank[p], i)
                  for i, p in enumerate(zip(symbols, symbols[1:]))
                  if p in rank]
        if not ranked:
            break
        best_rank = min(r for r, _i in ranked)
        symbols = _merge_all(symbols, merges[best_rank])
    return symbols


def bpe_encode_oracle(v, text: str) -> list[bytes]:
    """Symbols of `text` under vocabulary `v`, found by rescanning every pair
    of a line after each merge. A pair listed twice ranks at its last
    index."""
    rank = {pair: i for i, pair in enumerate(v.merges)}
    return [s for line in _lines_oracle(text)
            for s in _encode_line(v.merges, rank, line)]


# ---------------------------------------------------------------------------
# Match-at-position lexer
# ---------------------------------------------------------------------------

# Number literals, one JLS SE 17 §3.10.1-2 production at a time: a floating
# form is tried before the integer that is its prefix.
_DIGITS = r"[0-9](?:[0-9_]*[0-9])?"
_HEX_DIGITS = r"[0-9a-fA-F](?:[0-9a-fA-F_]*[0-9a-fA-F])?"
_EXPONENT = rf"[eE][+-]?{_DIGITS}"
_FLOATS = "|".join([
    rf"0[xX](?:{_HEX_DIGITS}\.?|(?:{_HEX_DIGITS})?\.{_HEX_DIGITS})"
    rf"[pP][+-]?{_DIGITS}[fFdD]?",
    rf"{_DIGITS}\.(?:{_DIGITS})?(?:{_EXPONENT})?[fFdD]?",
    rf"\.{_DIGITS}(?:{_EXPONENT})?[fFdD]?",
    rf"{_DIGITS}{_EXPONENT}[fFdD]?",
    rf"{_DIGITS}[fFdD]",
])
_INTEGERS = rf"(?:0[xX]{_HEX_DIGITS}|0[bB][01](?:[01_]*[01])?|{_DIGITS})[lL]?"

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<string>"(?:\\u+[0-9A-Fa-f]{4}|(?>\\[0-3][0-7]{2}|\\[0-7]{1,2})
                    |\\[btnfr]|\\s|\\"|\\'|\\\\|[^"\\\n])*")
    | (?P<char>'(?:\\u+[0-9A-Fa-f]{4}|\\[0-3][0-7]{2}|\\[0-7]{1,2}
                  |\\[btnfr]|\\s|\\"|\\'|\\\\|[^'\\\n])')
    | (?P<float>""" + _FLOATS + r""")
    | (?P<integer>""" + _INTEGERS + r""")
    | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<op>&&|\|\||\+\+|--|<=|>=|==|!=|\+=|-=|\*=|/=|%=|[=<>!?:+\-*/%&|^~])
    | (?P<sep>[(){}\[\];,.@])
    """,
    re.VERBOSE | re.DOTALL,
)

_WORD_KINDS = {"true": KIND_BOOL, "false": KIND_BOOL, "null": KIND_NULL}

_GROUP_KINDS = {
    "string": KIND_STRING,
    "char": KIND_CHAR,
    "float": KIND_FLOAT,
    "integer": KIND_INT,
    "op": KIND_OPERATOR,
    "sep": KIND_SEPARATOR,
}


def _octal_with_8_or_9(literal: str) -> bool:
    """Whether an integer literal is octal, a `0` before more digits with
    no `x` or `b` radix, and yet holds a digit 8 or 9."""
    digits = literal.rstrip("lL").replace("_", "")
    return (len(digits) > 1 and digits[0] == "0" and digits[1] not in "xXbB"
            and not set(digits) <= set("01234567"))


def lex_oracle(source: str) -> list[Token]:
    """Tokens of `source`, matched one at a time from the current position;
    raises the same LexError as `lex`."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            ch = source[pos]
            if ch == '"':
                raise LexError("unterminated or malformed string literal",
                               line, col)
            if ch == "'":
                raise LexError("unterminated or malformed char literal", line, col)
            if source.startswith("/*", pos):
                raise LexError("unterminated block comment", line, col)
            raise LexError(f"illegal character {ch!r}", line, col)
        if source.startswith("/*", pos) and m.lastgroup != "block_comment":
            raise LexError("unterminated block comment", line, col)
        text = m.group()
        group = m.lastgroup
        if group == "word":
            if text in _WORD_KINDS:
                kind = _WORD_KINDS[text]
            elif text in KEYWORDS:
                kind = KIND_KEYWORD
            else:
                kind = KIND_IDENTIFIER
            tokens.append(Token(kind, text, line, col))
        elif group in _GROUP_KINDS:
            if group == "integer" and _octal_with_8_or_9(text):
                raise LexError(f"octal literal {text!r} holds a digit 8 or 9",
                               line, col)
            tokens.append(Token(_GROUP_KINDS[group], text, line, col))
        # ws and comments fall through: position bookkeeping only
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Feature-graph builder oracle
# ---------------------------------------------------------------------------

_FlowState = dict[str, tuple[frozenset[int], frozenset[int]]]


def _union_flow_states(a: _FlowState, b: _FlowState) -> _FlowState:
    out: _FlowState = {}
    for key in a.keys() | b.keys():
        ra, wa = a.get(key, (frozenset(), frozenset()))
        rb, wb = b.get(key, (frozenset(), frozenset()))
        out[key] = (ra | rb, wa | wb)
    return out


class _FlowBuilderOracle:
    """One pass over a method subtree collecting semantic edges; every
    method takes the `emit` flag."""

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

    def _read(self, term: int, key: str, name: str, env: _FlowState,
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

    def _write(self, term: int, key: str, name: str, env: _FlowState,
               emit: bool, guards, collected: list[int]) -> None:
        reads, _ = env.get(key, (frozenset(), frozenset()))
        self._emit_guards(term, name, guards, emit)
        env[key] = (reads, frozenset({term}))
        collected.append(term)

    def _read_write(self, term: int, key: str, name: str, env: _FlowState,
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

    def expr(self, node: int, env: _FlowState, emit: bool, guards,
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

    def _incdec(self, operand: int, env: _FlowState, emit: bool, guards,
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

    def _assign(self, node: int, env: _FlowState, emit: bool, guards,
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

    def stmt(self, node: int, env: _FlowState, emit: bool, guards) -> _FlowState:
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

    def _if(self, node: int, env: _FlowState, emit: bool, guards) -> _FlowState:
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
            return _union_flow_states(env_then, env_else)
        return _union_flow_states(env_then, env)

    def _loop_once(self, env: _FlowState, cond: int | None,
                   body_steps: list[int], update: int | None) -> _FlowState:
        sink: list[int] = []
        if cond is not None:
            self.expr(cond, env, False, [], sink)
        for step in body_steps:
            if update is not None and step == update:
                self.expr(step, env, False, [], sink)
            else:
                env = self.stmt(step, env, False, [])
        return env

    def _loop(self, env: _FlowState, emit: bool, guards,
              cond: int | None, body_steps: list[int],
              update: int | None = None) -> _FlowState:
        entry = dict(env)
        while True:
            trial = self._loop_once(dict(entry), cond, body_steps, update)
            merged = _union_flow_states(entry, trial)
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


def build_feature_graph_oracle(method: MethodSource,
                        class_fields: dict[str, str] | None = None,
                        arg_name_resolver: Callable[[int], list[str] | None] | None = None,
                        ) -> FeatureGraph:
    """The feature graph as the builder with an `emit` parameter made it."""
    ast = method.ast
    fields = dict(class_fields or {})
    builder = _FlowBuilderOracle(ast, fields, arg_name_resolver)

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
    env: _FlowState = {}
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

    nodes = []
    for i in range(len(ast)):
        first = ast.token(ast.terminals(i)[0])
        nodes.append(GraphNode(i, ast.node_types[i],
                               ast.lexeme(i) if ast.is_terminal(i) else None,
                               first.line, first.col))
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


# ---------------------------------------------------------------------------
# Serializers: the table writer and the graph payload before they formatted
# their output as strings
# ---------------------------------------------------------------------------

def write_table_oracle(fh, header: list[str], rows) -> None:
    """`header` and `rows` to the text file `fh` through `csv.writer`."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)


def graph_payload_oracle(g: FeatureGraph) -> str:
    """The graph payload as a dict per node passed to `json.dumps`."""
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


# ---------------------------------------------------------------------------
# Previous TKNB decoder
# ---------------------------------------------------------------------------

def tknb_split_oracle(payload: str) -> list[str]:
    """Split a TKNB payload on unquoted commas.

    Quote state tracks both double and single quotes with backslash escapes,
    so literal lexemes (which keep their own quote characters) never leak a
    split point. Yields exactly one item per original token.
    """
    if not payload:
        return []
    items: list[str] = []
    buf: list[str] = []
    in_dq = False
    in_sq = False
    escape = False
    for ch in payload:
        if escape:
            buf.append(ch)
            escape = False
            continue
        if (in_dq or in_sq) and ch == "\\":
            buf.append(ch)
            escape = True
            continue
        if ch == '"' and not in_sq:
            in_dq = not in_dq
            buf.append(ch)
            continue
        if ch == "'" and not in_dq:
            in_sq = not in_sq
            buf.append(ch)
            continue
        if ch == "," and not in_dq and not in_sq:
            items.append("".join(buf))
            buf = []
            continue
        buf.append(ch)
    items.append("".join(buf))
    return items


def tknb_decode_oracle(payload: str) -> list[str]:
    """The lexeme list of a TKNB payload, split by `tknb_split_oracle`."""
    return ["," if item == '","' else item.replace(LITCOMMA, ",")
            for item in tknb_split_oracle(payload)]
