"""Project-wide static call graphs with call-locality classification.

Every call site of a cataloged method yields exactly one edge; what a call
site is, and which token names it (the edge's line and column), is defined
once by `parser.call_sites`. Resolution is source-level and per project.
A call's receiver picks the class to search, by one rule:

    m(...) / this.m(...)      the caller's own class
    a.m(...), p.C.m(...)      a name: the declared type of the variable `a`
                              (a local or parameter, else a field), or else
                              the name as a class of the project (same
                              package, explicit import, wildcard import,
                              qualified)
    expr.m(...)               any other receiver: its inferred type, from a
                              literal, `this.f`, `new T`, a parenthesized
                              expression or a resolvable call's return type
    new T(...)                the constructor of matching shape of class T,
                              found like a class name (T may be qualified)

The method is then looked up in that class and its superclass chain.
Types are the simple names the parser erases them to.

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
from typing import NamedTuple

from .catalog import CALLGRAPH_KEYS, Catalog, ProjectData
from .errors import InputError, InvalidArgumentError, NotFoundError
from .identity import EntityId
from .lexer import (KIND_BOOL, KIND_CHAR, KIND_FLOAT, KIND_IDENTIFIER,
                    KIND_INT, KIND_NULL, KIND_STRING)
from .parser import (
    Ast, CallSite, ClassView, FileView, MethodSource, NT_CALL,
    NT_FIELD_ACCESS, NT_LOCAL, NT_NEW, NT_PAREN, PRIMITIVE_WORDS, call_parts,
    call_sites, local_decl_parts, new_parts, type_simple_name, type_text,
)
from .tables import read_table, write_table

CALL_TYPES = ("Local", "Package", "Project", "API")

PRIMITIVES = PRIMITIVE_WORDS | {"void"}
_WRAPPER_OF = {"int": "Integer", "long": "Long", "short": "Short",
               "byte": "Byte", "char": "Character", "boolean": "Boolean",
               "float": "Float", "double": "Double"}
_NULL = "<null>"


class CallEdge(NamedTuple):
    caller: EntityId
    callee: EntityId            # "" when unresolved
    callee_signature: str
    call_type: str
    line: int
    col: int

    @property
    def callee_name(self) -> str:
        return self.callee_signature.split("(", 1)[0]


class CallGraph:
    """The edges, indexed by caller and by resolved callee."""

    __slots__ = ("edges", "by_caller", "by_callee")

    def __init__(self, edges: list[CallEdge]):
        self.edges = edges
        self.by_caller: dict[EntityId, list[CallEdge]] = {}
        self.by_callee: dict[EntityId, list[CallEdge]] = {}
        for e in edges:
            self.by_caller.setdefault(e.caller, []).append(e)
            if e.callee:
                self.by_callee.setdefault(e.callee, []).append(e)


class ContextBundle(NamedTuple):
    center: EntityId
    direction: str                  # "callee" or "caller"
    hop_sets: list[set[EntityId]]   # hop_sets[k] = ids reachable in <= k
    external_names: set[str]
    callee_name_counts: Counter


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

class _ClassEntry(NamedTuple):
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
        for meta in data.classes:
            view = data.class_views[meta.class_id]
            cv = view.classes[0]
            entry = _ClassEntry(meta.project_id, meta.package_id,
                                meta.class_id, view.package_name, view, cv)
            self.entries[meta.class_id] = entry
            self.by_package[(view.package_name, cv.name)] = entry

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
                 if all(self._compatible(a, p)
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


# A literal's type by its kind, or by its kind and an `L` or `f` suffix
# (JLS SE 17 §3.10.1-2): `1L` is a long, `1.5f` a float and `1.5` a double.
_LITERAL_TYPES = {KIND_INT: "int", KIND_FLOAT: "double", KIND_STRING: "String",
                  KIND_CHAR: "char", KIND_BOOL: "boolean", KIND_NULL: _NULL,
                  (KIND_INT, "L"): "long", (KIND_INT, "l"): "long",
                  (KIND_FLOAT, "F"): "float", (KIND_FLOAT, "f"): "float"}


class _SiteExtractor:
    """Resolves the call sites of one method."""

    def __init__(self, resolver: _Resolver, entry: _ClassEntry,
                 method: MethodSource):
        self.r = resolver
        self.entry = entry
        self.method = method
        # declared simple type names: fields, then parameters and locals,
        # which shadow them
        self.types = dict(entry.cv.fields)
        self.types.update(zip(method.param_names, method.param_types))
        ast = method.ast
        for d in ast.find(NT_LOCAL):
            ty, name_term, _init = local_decl_parts(ast, d)
            self.types[ast.lexeme(name_term)] = type_simple_name(ast, ty)

    def resolve(self, site: CallSite
                ) -> tuple[tuple[_ClassEntry, MethodSource] | None, str]:
        """The callee's class entry and declaration, or None when the site
        stays unresolved, and the callee signature: the declaration's, or
        else the site's name with each argument type it could infer."""
        ast = self.method.ast
        name = ast.lexeme(site.name)
        arg_types = self._arg_types(site.args)
        if ast.node_types[site.node] == NT_CALL:
            resolved = self._resolve_call(site.node, arg_types)
        else:
            ty, _args = new_parts(ast, site.node)
            target = self.r.class_in_context(type_text(ast, ty),
                                             self.entry.view)
            resolved = None if target is None else self.r.lookup_method(
                target, name, arg_types, constructor=True)
        if resolved is not None:
            return resolved, resolved[1].signature
        types = [t if t and t != _NULL else "?" for t in arg_types]
        return None, f"{name}({','.join(types)})"

    # -- typing ------------------------------------------------------------

    def expr_type(self, node: int) -> str | None:
        ast = self.method.ast
        if ast.is_terminal(node):
            tok = ast.token(node)
            if tok.kind in _LITERAL_TYPES:
                return _LITERAL_TYPES.get((tok.kind, tok.lexeme[-1]),
                                          _LITERAL_TYPES[tok.kind])
            if tok.kind == KIND_IDENTIFIER:
                return self.types.get(tok.lexeme)
            if tok.lexeme == "this":
                return self.entry.cv.name
            return None
        nt = ast.node_types[node]
        kids = ast.children[node]
        if nt == NT_NEW:
            return type_simple_name(ast, new_parts(ast, node)[0])
        if nt == NT_PAREN:                          # '(' expr ')'
            return self.expr_type(kids[1])
        if nt == NT_FIELD_ACCESS:                   # recv '.' name
            if ast.is_terminal(kids[0]) and ast.lexeme(kids[0]) == "this":
                return self.entry.cv.fields.get(ast.lexeme(kids[2]))
            return None
        if nt == NT_CALL:
            resolved = self._resolve_call(
                node, self._arg_types(call_parts(ast, node)[2]))
            return resolved[1].return_type if resolved is not None else None
        return None

    # -- resolution ----------------------------------------------------------

    def _arg_types(self, args: list[int]) -> list[str | None]:
        return [self.expr_type(a) for a in args]

    def _resolve_call(self, node: int, arg_types: list[str | None]
                      ) -> tuple[_ClassEntry, MethodSource] | None:
        ast = self.method.ast
        receiver, name_term, _args = call_parts(ast, node)
        if receiver is None or (ast.is_terminal(receiver)
                                and ast.lexeme(receiver) == "this"):
            target = self.entry
        elif (dotted := _dotted_text(ast, receiver)) is not None:
            target = self.r.class_in_context(
                self.types.get(dotted, dotted), self.entry.view)
        else:
            recv_type = self.expr_type(receiver)
            target = None if recv_type in (None, _NULL) else \
                self.r.class_in_context(recv_type, self.entry.view)
        if target is None:
            return None
        return self.r.lookup_method(target, ast.lexeme(name_term), arg_types)


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


def _resolved_sites(data: ProjectData, include_constructors: bool):
    """(caller meta, caller source, site, resolved callee or None, callee
    signature) for every call site of one project, in method then site
    order."""
    resolver = _Resolver(data)
    for meta in data.methods:
        source = data.sources[meta.method_id]
        extractor = _SiteExtractor(resolver, resolver.entries[meta.class_id],
                                   source)
        for site in call_sites(source.ast, include_constructors):
            yield (meta, source, site, *extractor.resolve(site))


def build_callgraph(projects: list[ProjectData],
                    include_constructors: bool = True) -> CallGraph:
    """One edge per syntactic call site across all given projects. A
    callee is named by its class, signature and first line, the key of its
    method id, so a repeated declaration resolves to the cataloged one."""
    edges: list[CallEdge] = []
    for data in projects:
        ids = {(m.class_id, m.method_signature, m.start_line): m.method_id
               for m in data.methods}
        for meta, source, site, resolved, sig in _resolved_sites(
                data, include_constructors):
            tok = source.ast.token(site.name)
            if resolved is None:
                edges.append(CallEdge(meta.method_id, "", sig, "API",
                                      tok.line, tok.col))
            else:
                callee_entry, target = resolved
                callee = ids[callee_entry.class_id, target.signature,
                             target.start_line]
                edges.append(CallEdge(meta.method_id, callee, sig,
                                      _classify(meta, callee_entry),
                                      tok.line, tok.col))
    edges.sort(key=lambda e: (e.caller, e.line, e.col))
    return CallGraph(edges)


def arg_name_maps(data: ProjectData, include_constructors: bool = True
                  ) -> dict[EntityId, dict[int, list[str]]]:
    """Per method: call-site AST node -> resolved callee's parameter names.

    Feeds formal-argument labeling in graph builders; unresolved sites are
    simply absent from the inner map.
    """
    out: dict[EntityId, dict[int, list[str]]] = {
        meta.method_id: {} for meta in data.methods}
    for meta, _source, site, resolved, _sig in _resolved_sites(
            data, include_constructors):
        if resolved is not None and resolved[1].param_names:
            out[meta.method_id][site.node] = list(resolved[1].param_names)
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
              for k in CALLGRAPH_KEYS}
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
    bundle = ContextBundle(center, direction, [{center}], set(), Counter())
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


def read_callgraph_csv(path, cat: Catalog | None = None) -> CallGraph:
    """The stored call sites; each `call_type` must be one of CALL_TYPES,
    and `API` exactly when the callee is empty, and with `cat` each caller
    and non-empty callee a method it catalogs, or it is an InputError."""
    edges = [CallEdge(*r) for r in read_table(
        path, CALLGRAPH_HEADER, ("line", "col"),
        ("caller_method_id", "line", "col"), cat and (lambda row: (
            cat.stray(row[0], column="caller_method_id")
            or row[1] and cat.stray(row[1], column="callee_method_id"))))]
    for e in edges:
        if e.call_type not in CALL_TYPES or \
                (e.callee == "") != (e.call_type == "API"):
            raise InputError(
                f"{path}: call site of {e.caller} at line {e.line}, col "
                f"{e.col} has call_type {e.call_type!r} and callee "
                f"{e.callee!r}; want one of {CALL_TYPES}, API iff no callee")
    return CallGraph(edges)
