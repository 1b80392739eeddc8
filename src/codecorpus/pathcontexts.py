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
enough to fit the remaining length. Each (start, ancestor, sibling) visit is
a group. Each node keeps its terminals, with their depth below it, in
preorder, so taking a start's groups by rising ancestor and siblings left
to right lists its ends in token order without a sort.

Counting happens only where a sample can be drawn. Each pair lies in one
group, so t terminals make at most t(t-1)/2 pairs; within `max_contexts`,
each group is expanded as the climb reaches it, uncounted. Past that, a
node the climb first meets as a sibling counts its terminals within each
depth, so a group's size is one lookup and the sizes sum to the pair count.
A count within `max_contexts` expands every group; past it, the sample is
drawn as indices over the count, the draw an all-pairs scan would make. A
kept index bisects the groups' start offsets, and the kept indices of one
(sibling, depth) share its ends that fit, filtered once, so a capped
method builds only what it keeps.

The same climb records each terminal's ancestor chain: the node types above
it, nearest first, as far as a path can reach. A kept path's `up_nodes`,
`lca` and `down_nodes` are slices of the chains of its two terminals.

Path shapes repeat far more than paths do (the x4 fixture corpus has 226k
paths of 678 shapes), so the renderers render each shape once, hashing
the string just rendered, and join each lexeme's subtokens once, from
bounded LRU caches. `clear_render_caches` empties them; the pipeline
calls it when `stage_representations` ends, so a long-lived process keeps
no entries scattered through memory it could otherwise give back.
"""

import hashlib
import random
import re
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .errors import InvalidArgumentError
from .parser import Ast, MethodSource

MAX_LENGTH_DEFAULT = 8
MAX_WIDTH_DEFAULT = 2
MAX_CONTEXTS_DEFAULT = 200
# Most path shapes, and most lexemes, whose renders the caches keep.
RENDER_CACHE_SIZE = 256

_SUBTOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


class RawPath(NamedTuple):
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
    return _shape_strings(p[2:])[1]


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
    terminals = [i for i, ti in enumerate(ast.token_indices) if ti is not None]
    parents, types = ast.parents, ast.node_types
    reach = max_length - 1          # most nodes on either side of the lca
    counted = len(terminals) * (len(terminals) - 1) // 2 > max_contexts

    # under[n]: (terminal, levels below n) within reach of n, in preorder;
    # chain[t]: types of the max_length nearest ancestors of terminal t;
    # right[n]: the max_width siblings after n
    under: list[list[tuple[int, int]]] = [[] for _ in range(len(ast))]
    chain: list[tuple[str, ...]] = [()] * len(ast)
    for t in terminals:
        n, above = t, []
        for r in range(max_length):
            under[n].append((t, r))
            if n == 0:
                break
            n = parents[n]
            above.append(types[n])
        chain[t] = tuple(above)
    right: list[tuple[int, ...]] = [()] * len(ast)
    for kids in ast.children:
        for k, c in enumerate(kids):
            right[c] = kids[k + 1:k + 1 + max_width]

    new = tuple.__new__
    if counted:
        # within[n][r]: how many of under[n] are at most r levels below n,
        # accumulated when a climb first meets n as a sibling
        within: list[list[int] | None] = [None] * len(ast)
        # Group g = (a, d_a, sibling): the ends under sibling that fit a
        # path up d_a nodes from a, in token order, after starts[g] pairs.
        groups, starts, total = [], [], 0
        for a in terminals:
            branch, d_a = a, 0
            while branch != 0 and d_a <= reach:
                for sibling in right[branch]:
                    counts = within[sibling]
                    if counts is None:
                        level = [0] * max_length
                        for _t, r in under[sibling]:
                            level[r] += 1
                        counts = within[sibling] = list(accumulate(level))
                    groups.append((a, d_a, sibling))
                    starts.append(total)
                    total += counts[reach - d_a]
                branch, d_a = parents[branch], d_a + 1
        if total > max_contexts:
            paths, fits = [], {}    # (sibling, d_a) -> its ends that fit
            for k in sorted(random.Random(seed).sample(range(total),
                                                       max_contexts)):
                g = bisect_right(starts, k) - 1
                a, d_a, sibling = groups[g]
                fit = fits.get((sibling, d_a))
                if fit is None:
                    fit = fits[sibling, d_a] = [
                        e for e in under[sibling] if e[1] <= reach - d_a]
                b, d_b = fit[k - starts[g]]
                paths.append(new(RawPath, (
                    a, b, chain[a][:d_a], chain[a][d_a],
                    chain[b][d_b - 1::-1] if d_b else ())))
            return paths

    paths = []      # every group, expanded as the climb reaches it
    append = paths.append
    for a in terminals:
        above, branch, d_a = chain[a], a, 0
        while branch != 0 and d_a <= reach:
            up, lca, lim = above[:d_a], above[d_a], reach - d_a
            for sibling in right[branch]:
                for b, d_b in under[sibling]:
                    if d_b <= lim:
                        append(new(RawPath, (a, b, up, lca, chain[b][
                            d_b - 1::-1] if d_b else ())))
            branch, d_a = parents[branch], d_a + 1
    return paths


@lru_cache(maxsize=RENDER_CACHE_SIZE)
def _shape_strings(shape: tuple) -> tuple[str, str]:
    """`render_path` of an (up_nodes, lca, down_nodes) shape and its hash,
    the first 16 hex digits of the render's SHA-256."""
    text = render_path(RawPath(-1, -1, *shape))
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=RENDER_CACHE_SIZE)
def _joined_subtokens(lexeme: str) -> str:
    return "|".join(subtokens(lexeme))


def clear_render_caches() -> None:
    """Drop every cached shape render and joined lexeme."""
    _shape_strings.cache_clear()
    _joined_subtokens.cache_clear()


# In the renderers, `p[2:]` is a path's shape: (up_nodes, lca, down_nodes).

def to_c2vc(method: MethodSource, paths: list[RawPath]) -> str:
    """`label left,pathhash,right ...` with raw terminal text."""
    tokens, at = method.ast.tokens, method.ast.token_indices
    shape_strings = _shape_strings
    return " ".join([method.name, *[
        f"{tokens[at[p.start_terminal]].lexeme},{shape_strings(p[2:])[1]},"
        f"{tokens[at[p.end_terminal]].lexeme}"
        for p in paths]])


def to_c2sq(method: MethodSource, paths: list[RawPath]) -> str:
    """`sub|toks left,Node↑..↓Node,right ...` with subtokenized terminals."""
    tokens, at = method.ast.tokens, method.ast.token_indices
    joined, shape_strings = _joined_subtokens, _shape_strings
    return " ".join([joined(method.name), *[
        f"{joined(tokens[at[p.start_terminal]].lexeme)},"
        f"{shape_strings(p[2:])[0]},"
        f"{joined(tokens[at[p.end_terminal]].lexeme)}"
        for p in paths]])
