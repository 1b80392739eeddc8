"""AST path contexts between pairs of leaf terminals.

A path context connects two terminals of a method subtree through the tree:
up from the start terminal to the lowest common ancestor, then down to the
end terminal. Two record flavors share the extraction:

    C2VC  terminals kept whole, the node path replaced by a short stable hash
    C2SQ  terminals split into lowercase subtokens, the node path spelled out
          with direction markers

Pairs are enumerated with start before end in token order, filtered by path
length (nodes on the path, terminals excluded) and by width (distance of the
two child branches at the ancestor), then down-sampled without replacement
when a method produces more than `max_contexts`.

The enumeration is windowed rather than all-pairs: from each start terminal
it climbs at most `max_length` ancestors, and at each one visits only the
next `max_width` sibling subtrees, and in them only the terminals shallow
enough to fit the remaining length. Each node keeps its terminals grouped by
depth for that. Sampling draws indices over the admissible pairs before any
`RawPath` is built, so only the kept paths are constructed; the draw depends
only on the pair count, so it is the one an all-pairs scan would make.
"""

import hashlib
import random
import re
from dataclasses import dataclass

from .errors import InvalidArgumentError
from .parser import Ast, MethodSource

MAX_LENGTH_DEFAULT = 8
MAX_WIDTH_DEFAULT = 2
MAX_CONTEXTS_DEFAULT = 200

_SUBTOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


@dataclass(frozen=True)
class RawPath:
    start_terminal: int
    end_terminal: int
    up_nodes: tuple[str, ...]     # node types from just above start to below lca
    lca: str
    down_nodes: tuple[str, ...]   # node types from just below lca to just above end

    @property
    def length(self) -> int:
        return len(self.up_nodes) + 1 + len(self.down_nodes)


def subtokens(lexeme: str) -> list[str]:
    """Lowercase camelCase/underscore pieces; the lexeme itself if none."""
    found = _SUBTOKEN_RE.findall(lexeme)
    return [p.lower() for p in found] if found else [lexeme.lower()]


def render_path(p: RawPath) -> str:
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


def path_hash(p: RawPath) -> str:
    return hashlib.sha256(render_path(p).encode("utf-8")).hexdigest()[:16]


def extract_paths(ast: Ast,
                  max_length: int = MAX_LENGTH_DEFAULT,
                  max_width: int = MAX_WIDTH_DEFAULT,
                  max_contexts: int = MAX_CONTEXTS_DEFAULT,
                  seed: int = 0) -> list[RawPath]:
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
        paths.append(RawPath(a, b, tuple(up), types[parents[n]],
                             tuple(down)))
    return paths


def to_c2vc(method: MethodSource, paths: list[RawPath]) -> str:
    """`label left,pathhash,right ...` with raw terminal text."""
    ast = method.ast
    parts = [method.name]
    for p in paths:
        left = ast.lexeme(p.start_terminal)
        right = ast.lexeme(p.end_terminal)
        parts.append(f"{left},{path_hash(p)},{right}")
    return " ".join(parts)


def to_c2sq(method: MethodSource, paths: list[RawPath]) -> str:
    """`sub|toks left,Node↑..↓Node,right ...` with subtokenized terminals."""
    ast = method.ast
    parts = ["|".join(subtokens(method.name))]
    for p in paths:
        left = "|".join(subtokens(ast.lexeme(p.start_terminal)))
        right = "|".join(subtokens(ast.lexeme(p.end_terminal)))
        parts.append(f"{left},{render_path(p)},{right}")
    return " ".join(parts)
