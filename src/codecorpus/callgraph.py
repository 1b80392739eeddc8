"""Project-wide static call graphs with call-locality classification.

Every syntactic call site in a cataloged method yields exactly one edge.
Resolution is source-level and per project:

    implicit / this.m(...)    enclosing class, then its superclass chain
    Name.m(...)               Name as a class of the project (same package,
                              explicit import, wildcard import, qualified)
    expr.m(...)               the static type of expr when derivable from a
                              local, parameter, field, literal, `new T`, or a
                              resolvable call's return type
    new T(...)                T's declared constructor of matching shape

Anything that stays unresolved degrades to an API edge carrying a
best-effort signature. Resolved edges are classified by where the callee
lives relative to the caller: same class -> Local, same package -> Package,
same project -> Project. The four categories partition all sites.

Overloads are disambiguated by arity, then by per-position compatibility of
inferred argument types (unknown types act as wildcards, `null` matches any
reference type, primitives pair with their wrappers); a still-ambiguous set
falls back to the lexicographically first signature so output stays stable.
"""

from collections import Counter
from dataclasses import dataclass, field

from .catalog import Catalog, ProjectData
from .errors import InvalidArgumentError, NotFoundError
from .identity import EntityId
from .lexer import (KIND_BOOL, KIND_CHAR, KIND_IDENTIFIER, KIND_INT,
                    KIND_KEYWORD, KIND_NULL, KIND_OPERATOR, KIND_SEPARATOR,
                    KIND_STRING)
from .parser import (
    Ast, ClassView, FileView, MethodSource, NT_CALL, NT_FIELD_ACCESS,
    NT_LOCAL, NT_NEW, NT_PAREN, call_parts, local_decl_parts, new_parts,
    type_text,
)
from .tables import read_table, write_table


def _simple(type_str: str) -> str:
    """Simple class name of a possibly dotted, possibly generic type."""
    return type_str.split("<", 1)[0].rsplit(".", 1)[-1]

CALL_TYPES = ("Local", "Package", "Project", "API")

PRIMITIVES = frozenset({"int", "long", "short", "byte", "char", "boolean",
                        "float", "double", "void"})
_WRAPPER_OF = {"int": "Integer", "long": "Long", "short": "Short",
               "byte": "Byte", "char": "Character", "boolean": "Boolean",
               "float": "Float", "double": "Double"}
_NULL = "<null>"


@dataclass(frozen=True)
class CallEdge:
    caller: EntityId
    callee: EntityId            # "" when unresolved
    callee_signature: str
    call_type: str
    line: int
    col: int

    @property
    def callee_name(self) -> str:
        return self.callee_signature.split("(", 1)[0]


@dataclass
class CallGraph:
    edges: list[CallEdge]
    by_caller: dict[EntityId, list[CallEdge]] = field(default_factory=dict)
    by_callee: dict[EntityId, list[CallEdge]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.by_caller:
            for e in self.edges:
                self.by_caller.setdefault(e.caller, []).append(e)
                if e.callee:
                    self.by_callee.setdefault(e.callee, []).append(e)


@dataclass
class ContextBundle:
    center: EntityId
    direction: str                      # "callee" or "caller"
    hop_sets: list[set[EntityId]]       # hop_sets[k] = ids reachable in <= k
    external_names: set[str] = field(default_factory=set)
    callee_name_counts: Counter = field(default_factory=Counter)


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

@dataclass
class _ClassEntry:
    project_id: EntityId
    package_id: EntityId
    class_id: EntityId
    package_name: str
    view: FileView
    cv: ClassView


class _Resolver:
    """Class and method lookup tables for one project."""

    def __init__(self, data: ProjectData):
        self.project_id = data.project.project_id
        self.entries: dict[EntityId, _ClassEntry] = {}
        self.by_package: dict[tuple[str, str], _ClassEntry] = {}
        self.by_simple: dict[str, list[_ClassEntry]] = {}
        class_by_path = {c.class_path: c for c in data.classes}
        for view in data.views:
            meta = class_by_path.get(view.path)
            if meta is None or not view.classes:
                continue
            cv = view.classes[0]
            entry = _ClassEntry(meta.project_id, meta.package_id,
                                meta.class_id, view.package_name, view, cv)
            self.entries[meta.class_id] = entry
            self.by_package[(view.package_name, cv.name)] = entry
            self.by_simple.setdefault(cv.name, []).append(entry)

    def class_in_context(self, name: str, ctx: FileView) -> _ClassEntry | None:
        """Resolve a dotted or simple class name from one file's viewpoint."""
        if "." in name:
            pkg, _, simple = name.rpartition(".")
            return self.by_package.get((pkg, simple))
        hit = self.by_package.get((ctx.package_name, name))
        if hit is not None:
            return hit
        for dotted, wildcard in ctx.imports:
            if not wildcard and dotted.rpartition(".")[2] == name:
                pkg = dotted.rpartition(".")[0]
                hit = self.by_package.get((pkg, name))
                if hit is not None:
                    return hit
            if wildcard:
                hit = self.by_package.get((dotted, name))
                if hit is not None:
                    return hit
        return None

    def superclass(self, entry: _ClassEntry) -> _ClassEntry | None:
        if not entry.cv.extends:
            return None
        return self.class_in_context(entry.cv.extends, entry.view)

    def chain(self, entry: _ClassEntry) -> list[_ClassEntry]:
        out, seen = [], set()
        cur = entry
        while cur is not None and cur.class_id not in seen:
            seen.add(cur.class_id)
            out.append(cur)
            cur = self.superclass(cur)
        return out

    # -- overloads -----------------------------------------------------------

    @staticmethod
    def _compatible(arg: str | None, param: str) -> bool:
        if arg is None:
            return True
        if arg == _NULL:
            return param not in PRIMITIVES
        if arg == param:
            return True
        return _WRAPPER_OF.get(arg) == param or _WRAPPER_OF.get(param) == arg

    def pick_overload(self, cands: list[MethodSource],
                      arg_types: list[str | None]) -> MethodSource | None:
        arity = [m for m in cands if len(m.param_types) == len(arg_types)]
        if not arity:
            return None
        typed = [m for m in arity
                 if all(self._compatible(a, _simple(p))
                        for a, p in zip(arg_types, m.param_types))]
        pool = typed or arity
        return min(pool, key=lambda m: m.signature)

    def lookup_method(self, entry: _ClassEntry, name: str,
                      arg_types: list[str | None],
                      constructor: bool = False
                      ) -> tuple[_ClassEntry, MethodSource] | None:
        for cur in self.chain(entry):
            cands = [m for m in cur.cv.methods
                     if m.is_constructor == constructor and m.name == name]
            if cands:
                chosen = self.pick_overload(cands, arg_types)
                return (cur, chosen) if chosen else None
        return None


class _MethodScope:
    """Declared types visible inside one method body."""

    def __init__(self, method: MethodSource, entry: _ClassEntry):
        self.entry = entry
        self.types: dict[str, str] = {}
        for pname, ptype in zip(method.param_names, method.param_types):
            self.types[pname] = _simple(ptype)
        ast = method.ast
        for d in ast.find(NT_LOCAL):
            ty, name_term, _init = local_decl_parts(ast, d)
            self.types[ast.lexeme(name_term)] = _simple(type_text(ast, ty))
        self.field_types = {n: _simple(t)
                            for n, t in entry.cv.fields.items()}

    def type_of_name(self, name: str) -> str | None:
        return self.types.get(name) or self.field_types.get(name)


def _dotted_text(ast: Ast, node: int) -> str | None:
    """`a.b.C` as text when the chain is all plain identifiers, else None."""
    if ast.is_terminal(node):
        tok = ast.token(node)
        return tok.lexeme if tok.kind == KIND_IDENTIFIER else None
    if ast.node_types[node] != NT_FIELD_ACCESS:
        return None
    base = _dotted_text(ast, ast.children[node][0])
    if base is None:
        return None
    return f"{base}.{ast.lexeme(ast.children[node][2])}"


_LITERAL_TYPES = {KIND_INT: "int", KIND_STRING: "String", KIND_CHAR: "char",
                  KIND_BOOL: "boolean", KIND_NULL: _NULL}


class _SiteExtractor:
    """Resolves every call site of one method into an edge tuple."""

    def __init__(self, resolver: _Resolver, entry: _ClassEntry,
                 method: MethodSource, include_constructors: bool):
        self.r = resolver
        self.entry = entry
        self.method = method
        self.scope = _MethodScope(method, entry)
        self.include_constructors = include_constructors

    def sites(self) -> list[tuple]:
        """(line, col, resolved pair or None, signature text, is_ctor, node)."""
        ast = self.method.ast
        out = []
        for i in range(len(ast)):
            nt = ast.node_types[i]
            if nt == NT_CALL:
                out.append(self._call_site(i))
            elif nt == NT_NEW and self.include_constructors:
                out.append(self._new_site(i))
        return [s for s in out if s is not None]

    # -- typing ------------------------------------------------------------

    def expr_type(self, node: int) -> str | None:
        ast = self.method.ast
        if ast.is_terminal(node):
            tok = ast.token(node)
            if tok.kind in _LITERAL_TYPES:
                return _LITERAL_TYPES[tok.kind]
            if tok.kind == KIND_IDENTIFIER:
                return self.scope.type_of_name(tok.lexeme)
            if tok.kind == KIND_KEYWORD and tok.lexeme == "this":
                return self.entry.cv.name
            return None
        nt = ast.node_types[node]
        if nt == NT_NEW:
            ty, _args = new_parts(ast, node)
            return _simple(type_text(ast, ty))
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
            resolved = self._resolve_call(node)
            if resolved is not None:
                _entry, target = resolved
                return _simple(target.return_type) \
                    if target.return_type else None
            return None
        return None

    # -- resolution ----------------------------------------------------------

    def _arg_types(self, args: list[int]) -> list[str | None]:
        return [self.expr_type(a) for a in args]

    def _resolve_call(self, node: int) -> tuple[_ClassEntry, MethodSource] | None:
        ast = self.method.ast
        receiver, name_term, args = call_parts(ast, node)
        name = ast.lexeme(name_term)
        arg_types = self._arg_types(args)

        if receiver is None:
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
            # a.b.c: `a` may still be a variable whose fields we don't track
            return None
        recv_type = self.expr_type(receiver)
        if recv_type is not None and recv_type != _NULL:
            target = self.r.class_in_context(recv_type, self.entry.view)
            if target is not None:
                return self.r.lookup_method(target, name, arg_types)
        return None

    def _call_site(self, node: int):
        ast = self.method.ast
        _recv, name_term, args = call_parts(ast, node)
        tok = ast.token(name_term)
        resolved = self._resolve_call(node)
        if resolved is not None:
            _entry, target = resolved
            return (tok.line, tok.col, resolved, target.signature, False, node)
        sig = self._fallback_signature(ast.lexeme(name_term), args)
        return (tok.line, tok.col, None, sig, False, node)

    def _new_site(self, node: int):
        ast = self.method.ast
        ty, args = new_parts(ast, node)
        name = _simple(type_text(ast, ty))
        name_term = ast.terminals(ty)[0]
        for t in ast.terminals(ty):
            t_tok = ast.token(t)
            if t_tok.kind == KIND_OPERATOR and t_tok.lexeme == "<":
                break
            if t_tok.kind == KIND_IDENTIFIER:
                name_term = t
        tok = ast.token(name_term)
        target = self.r.class_in_context(name, self.entry.view)
        resolved = None
        if target is not None:
            resolved = self.r.lookup_method(target, target.cv.name,
                                            self._arg_types(args),
                                            constructor=True)
        if resolved is not None:
            _entry, ctor = resolved
            return (tok.line, tok.col, resolved, ctor.signature, True, node)
        sig = self._fallback_signature(name, args)
        return (tok.line, tok.col, None, sig, True, node)

    def _fallback_signature(self, name: str, args: list[int]) -> str:
        types = [t if t and t != _NULL else "?" for t in self._arg_types(args)]
        return f"{name}({','.join(types)})"


# ---------------------------------------------------------------------------
# Graph construction and queries
# ---------------------------------------------------------------------------

def _classify(caller_meta, callee_entry: _ClassEntry) -> str:
    if callee_entry.class_id == caller_meta.class_id:
        return "Local"
    if callee_entry.package_id == caller_meta.package_id:
        return "Package"
    if callee_entry.project_id == caller_meta.project_id:
        return "Project"
    return "API"


def build_callgraph(projects: list[ProjectData],
                    include_constructors: bool = True) -> CallGraph:
    """One edge per syntactic call site across all given projects."""
    edges: list[CallEdge] = []
    for data in projects:
        resolver = _Resolver(data)
        meta_by_id = {m.method_id: m for m in data.methods}
        for meta in data.methods:
            source = data.sources[meta.method_id]
            entry = resolver.entries.get(meta.class_id)
            if entry is None:
                continue
            extractor = _SiteExtractor(resolver, entry, source,
                                       include_constructors)
            for line, col, resolved, sig, _is_ctor, _node in extractor.sites():
                if resolved is None:
                    edges.append(CallEdge(meta.method_id, "", sig, "API",
                                          line, col))
                else:
                    callee_entry, target = resolved
                    if not target.method_id:
                        edges.append(CallEdge(meta.method_id, "", sig, "API",
                                              line, col))
                        continue
                    edges.append(CallEdge(
                        meta.method_id, target.method_id, target.signature,
                        _classify(meta_by_id[meta.method_id], callee_entry),
                        line, col))
    edges.sort(key=lambda e: (e.caller, e.line, e.col))
    return CallGraph(edges)


def call_sites_of(g: CallGraph, method_id: EntityId) -> list[CallEdge]:
    return list(g.by_caller.get(method_id, []))


def arg_name_maps(data: ProjectData, include_constructors: bool = True
                  ) -> dict[EntityId, dict[int, list[str]]]:
    """Per method: call-site AST node -> resolved callee's parameter names.

    Feeds formal-argument labeling in graph builders; unresolved sites are
    simply absent from the inner map.
    """
    resolver = _Resolver(data)
    out: dict[EntityId, dict[int, list[str]]] = {}
    for meta in data.methods:
        entry = resolver.entries.get(meta.class_id)
        if entry is None:
            continue
        extractor = _SiteExtractor(resolver, entry,
                                   data.sources[meta.method_id],
                                   include_constructors)
        names: dict[int, list[str]] = {}
        for _line, _col, resolved, _sig, _ctor, node in extractor.sites():
            if resolved is not None:
                _entry, target = resolved
                if target.param_names:
                    names[node] = list(target.param_names)
        out[meta.method_id] = names
    return out


def classify_distribution(g: CallGraph) -> dict[str, float]:
    """Fraction of call sites per locality class; the four sum to 1."""
    if not g.edges:
        raise InvalidArgumentError("empty call graph has no distribution")
    counts = Counter(e.call_type for e in g.edges)
    total = len(g.edges)
    return {t: counts.get(t, 0) / total for t in CALL_TYPES}


def connectivity_props(g: CallGraph, catalog: Catalog
                       ) -> dict[str, dict[EntityId, int]]:
    """NUPC/NUCC (distinct resolved partners) and NMLC/NMNC (site counts)."""
    tables = {k: {m.method_id: 0 for m in catalog.methods}
              for k in ("NUPC", "NUCC", "NMLC", "NMNC")}
    callers: dict[EntityId, set] = {}
    callees: dict[EntityId, set] = {}
    for e in g.edges:
        if e.callee:
            callers.setdefault(e.callee, set()).add(e.caller)
            callees.setdefault(e.caller, set()).add(e.callee)
        if e.caller in tables["NMLC"]:
            if e.call_type == "Local":
                tables["NMLC"][e.caller] += 1
            else:
                tables["NMNC"][e.caller] += 1
    for mid, who in callers.items():
        if mid in tables["NUPC"]:
            tables["NUPC"][mid] = len(who)
    for mid, whom in callees.items():
        if mid in tables["NUCC"]:
            tables["NUCC"][mid] = len(whom)
    return tables


def n_hop_context(g: CallGraph, center: EntityId, n: int = 1,
                  direction: str = "callee",
                  known_ids: set[EntityId] | None = None) -> ContextBundle:
    """Methods reachable in <= n resolved steps; API names collected aside."""
    if n < 0:
        raise InvalidArgumentError("hop count must be >= 0")
    if direction not in ("callee", "caller"):
        raise InvalidArgumentError("direction must be 'callee' or 'caller'")
    if known_ids is not None and center not in known_ids:
        raise NotFoundError(f"unknown method id: {center}")
    bundle = ContextBundle(center, direction, [{center}])
    if direction == "callee":
        for e in g.by_caller.get(center, []):
            bundle.callee_name_counts[e.callee_name] += 1
    frontier = {center}
    for _k in range(n):
        nxt: set[EntityId] = set()
        for mid in frontier:
            if direction == "callee":
                for e in g.by_caller.get(mid, []):
                    if e.callee:
                        nxt.add(e.callee)
                    else:
                        bundle.external_names.add(e.callee_name)
            else:
                for e in g.by_callee.get(mid, []):
                    nxt.add(e.caller)
        reached = bundle.hop_sets[-1] | nxt
        bundle.hop_sets.append(reached)
        frontier = nxt - bundle.hop_sets[-2]
    return bundle


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

CALLGRAPH_HEADER = ["caller_method_id", "callee_method_id",
                    "callee_signature", "call_type", "line", "col"]


def write_callgraph_csv(path, g: CallGraph) -> None:
    write_table(path, CALLGRAPH_HEADER,
                ((e.caller, e.callee, e.callee_signature, e.call_type,
                  e.line, e.col) for e in g.edges))


def read_callgraph_csv(path) -> CallGraph:
    rows = read_table(path, CALLGRAPH_HEADER, ("line", "col"))
    return CallGraph([CallEdge(*r) for r in rows])
