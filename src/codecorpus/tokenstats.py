"""Byte-level BPE vocabularies and the subtoken/window studies.

Training starts from the 256 single-byte symbols and repeatedly merges the
most frequent adjacent pair (ties broken by the lexicographically smallest
pair) until the target vocabulary size is reached or no pair repeats.
Merging never crosses line boundaries; lines are deduplicated and weighted
by their repeat counts, which keeps training fast on repetitive code.
Pair counts are taken once and then updated incrementally: symbols are
integer ids over the unique lines laid end to end, an index of the
positions where each pair starts takes a merge straight to its sites, and
only the pairs next to each merge site change count. A heap keyed on
(-count, byte pair) yields the next merge under the tie rule. Encoding
applies the merges to a line's byte ids in rank order from a heap of its
ranked adjacent pairs, and cuts its symbols out of the bytes by span.

Downstream measurements:

    tokenizer_ratio   subtokens emitted per 100 lexical tokens, averaged
                      per method (or pooled over all tokens)
    entity_sizes      subtoken counts per method/class/package/project,
                      classes measured by tokenizing the whole source file
    window_fit        fraction of entities whose size fits a context window,
                      per threshold, optionally bucketed by project size
"""

import heapq
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

from .catalog import Catalog, size_bucket
from .errors import InvalidArgumentError
from .identity import EntityId
from .lexer import lex
from .parser import split_lines
from .tables import read_table, write_table, write_text

WINDOW_THRESHOLDS = (256, 512, 1024, 2048, 4096)

# The vocabularies `tokenstats` trains, on the method lines and on the
# bundled English sample: the tags a `sizes.csv` row may hold.
TOKENIZER_TAGS = ("code", "english")

SIZES_HEADER = ["entity_id", "granularity", "tokenizer_tag", "subtoken_count"]
FIT_HEADER = ["granularity", "tokenizer_tag", "bucket", "threshold",
              "fit_fraction"]


class BpeVocab:
    """Merges in rank order and the vocabulary, with the memo of
    `bpe_encode_len` per line (`_line_cache`) and `_table`, which maps a
    pair of symbol ids (as `train_bpe` numbers them) to (rank, joined id)."""

    __slots__ = ("merges", "vocab", "size", "corpus_tag", "_table",
                 "_line_cache")

    def __init__(self, merges: list[tuple[bytes, bytes]], vocab: set[bytes],
                 size: int, corpus_tag: str):
        self.merges = merges
        self.vocab = vocab
        self.size = size
        self.corpus_tag = corpus_tag
        ids = {bytes([b]): b for b in range(256)}
        for a, b in merges:
            ids.setdefault(a + b, len(ids))
        # a pair's last rank; a merge whose operand no merge joins never
        # applies and gets no entry
        self._table = {(ids[a], ids[b]): (rank, ids[a + b])
                       for rank, (a, b) in enumerate(merges)
                       if a in ids and b in ids}
        self._line_cache: dict[str, int] = {}


def train_bpe(corpus_text: str, vocab_size: int,
              corpus_tag: str = "") -> BpeVocab:
    """Learn merge rules on `corpus_text` until `vocab_size` symbols exist.

    When every merge made a new symbol, no merged pair forms again (a merge
    joins all its sites, and each pair it creates holds its new symbol), so
    encoding by rank takes training's steps on each line: the returned
    `_line_cache` then holds each training line's final symbol count."""
    if not corpus_text:
        raise InvalidArgumentError("training corpus must be nonempty")
    if vocab_size <= 256:
        raise InvalidArgumentError("vocab_size must exceed the 256 byte symbols")

    # Symbols are ids: 0-255 the bytes, then one per joined byte string.
    # The unique lines lie end to end in `sym`, each followed by a -1
    # separator; a position a merge consumed reads -1 too. `prv` and `nxt`
    # link the live positions, and `sites` lists, per adjacent pair, the
    # positions where it started at some point (rechecked on merge).
    counted = sorted(Counter(split_lines(corpus_text)).items())
    lines = [(line.encode("utf-8"), n) for line, n in counted]
    size = sum(len(data) + 1 for data, _n in lines)
    # one int object per position, shared by the links and the site lists
    pos = list(range(-1, size + 1))
    prv, nxt = pos[:size], pos[2:]
    sym: list[int] = []
    weight: list[int] = []
    counts: defaultdict[tuple[int, int], int] = defaultdict(int)
    sites: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    for data, n in lines:
        for i, pair in enumerate(zip(data, data[1:]), len(sym) + 1):
            counts[pair] += n
            sites[pair].append(pos[i])
        sym.extend(data)
        sym.append(-1)
        weight.extend([n] * (len(data) + 1))
    names = [bytes([b]) for b in range(256)]
    ids = {name: b for b, name in enumerate(names)}
    # max-count first, then the smallest byte pair; stale entries are skipped
    heap = [(-c, names[a], names[b], (a, b)) for (a, b), c in counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[bytes, bytes]] = []
    while len(names) < vocab_size:
        while heap and counts.get(heap[0][3]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        _c, first_name, second_name, pair = heapq.heappop(heap)
        merges.append((first_name, second_name))
        joined = first_name + second_name
        new = ids.setdefault(joined, len(names))
        if new == len(names):
            names.append(joined)
        first, second = pair
        changed = {pair}
        # left to right, so a site an earlier merge consumed no longer
        # matches; sym[-1], left of the first position, is a separator
        for i in sorted(sites.pop(pair)):
            j = nxt[i]
            if sym[i] != first or sym[j] != second:
                continue
            n = weight[i]
            counts[pair] -= n
            h = prv[i]
            left = sym[h]
            if left >= 0:
                old, moved = (left, first), (left, new)
                counts[old] -= n
                counts[moved] += n
                sites[moved].append(h)
                changed.add(old)
                changed.add(moved)
            k = nxt[j]
            right = sym[k]
            if right >= 0:
                old, moved = (second, right), (new, right)
                counts[old] -= n
                counts[moved] += n
                sites[moved].append(i)
                changed.add(old)
                changed.add(moved)
            sym[i] = new
            sym[j] = -1
            nxt[i] = k
            prv[k] = i
        for p in changed:
            c = counts[p]
            if c > 0:
                heapq.heappush(heap, (-c, names[p[0]], names[p[1]], p))
            else:
                del counts[p]
    v = BpeVocab(merges, set(names), len(names), corpus_tag)
    if len(names) == 256 + len(merges):
        start = 0
        for (line, _), (data, _) in zip(counted, lines):
            end = start + len(data)
            v._line_cache[line] = len(data) - sym[start:end].count(-1)
            start = end + 1
    return v


def _encode_line(v: BpeVocab, data: bytes) -> tuple[list[int], list[int]]:
    """Merge, round by round, every occurrence of the lowest-ranked pair
    present, left to right without overlaps. Returns the id of the symbol
    starting at each byte offset (-1 where none does) and its end. A heap
    holds (table entry, offset) of the ranked adjacent pairs; stale ones
    are skipped and a round's new neighbour pairs are pushed after it."""
    n = len(data)
    sym = [*data, -1]
    nxt = list(range(1, n + 2))
    prv = list(range(-1, n))
    get, push, pop = v._table.get, heapq.heappush, heapq.heappop
    heap = [(e, i) for i, e in enumerate(map(get, zip(data, data[1:]))) if e]
    heapq.heapify(heap)
    while heap:
        entry = heap[0][0]
        merged = []
        while heap and heap[0][0] is entry:
            i = pop(heap)[1]
            j = nxt[i]
            if get((sym[i], sym[j])) is entry:
                sym[i], sym[j] = entry[1], -1
                nxt[i] = k = nxt[j]
                prv[k] = i
                merged.append(i)
        for i in merged:    # sym[prv[0]] is the -1 at the end
            if e := get((sym[prv[i]], sym[i])):
                push(heap, (e, prv[i]))
            if e := get((sym[i], sym[nxt[i]])):
                push(heap, (e, i))
    return sym, nxt


def bpe_encode(v: BpeVocab, text: str) -> list[bytes]:
    """Apply merges in rank order within each line; lossless by design."""
    out: list[bytes] = []
    for line in split_lines(text):
        data = line.encode("utf-8")
        sym, ends = _encode_line(v, data)
        out.extend([data[i:ends[i]] for i in range(len(data)) if sym[i] >= 0])
    return out


def bpe_encode_len(v: BpeVocab, text: str) -> int:
    """Symbol count of encode(text), with a per-line memo for speed."""
    total = 0
    for line in split_lines(text):
        n = v._line_cache.get(line)
        if n is None:
            sym = _encode_line(v, line.encode("utf-8"))[0]
            n = v._line_cache[line] = len(sym) - sym.count(-1)
        total += n
    return total


def bpe_decode(symbols: list[bytes]) -> str:
    return b"".join(symbols).decode("utf-8")


# ---------------------------------------------------------------------------
# Subtoken efficiency
# ---------------------------------------------------------------------------

def tokenizer_ratio(vocab_or_encoder, texts: list[str],
                    token_counts: list[int] | None = None,
                    pooled: bool = False) -> float:
    """Subtokens per 100 lexical tokens over the given method texts.

    `token_counts` gives the lexical token count of each text, in order
    (the pipeline passes each method's own token count); without it every
    text is lexed. Per-method averaging by default; `pooled` divides total
    subtokens by total lexical tokens instead. Texts with zero lexical
    tokens are excluded.
    """
    if token_counts is None:
        token_counts = [len(lex(text)) for text in texts]
    if isinstance(vocab_or_encoder, BpeVocab):
        v = vocab_or_encoder
        encode_len = lambda t: bpe_encode_len(v, t)
    else:
        encode_len = lambda t: len(vocab_or_encoder(t))
    ratios = []
    total_sub = total_lex = 0
    for text, n_lex in zip(texts, token_counts, strict=True):
        if n_lex == 0:
            continue
        n_sub = encode_len(text)
        ratios.append(100.0 * n_sub / n_lex)
        total_sub += n_sub
        total_lex += n_lex
    if not ratios:
        raise InvalidArgumentError("no texts with lexical tokens to measure")
    if pooled:
        return 100.0 * total_sub / total_lex
    return sum(ratios) / len(ratios)


# ---------------------------------------------------------------------------
# Entity sizes and window fit
# ---------------------------------------------------------------------------

class SizeRecord(NamedTuple):
    entity_id: EntityId
    granularity: str
    tokenizer_tag: str
    subtoken_count: int


def entity_sizes(catalog: Catalog, method_texts: dict[EntityId, str],
                 class_texts: dict[EntityId, str], v: BpeVocab,
                 tag: str) -> list[SizeRecord]:
    """Subtoken counts at all four granularities under one tokenizer.

    Methods tokenize their own text; classes tokenize the whole source
    file; packages and projects sum their classes.
    """
    records: list[SizeRecord] = []
    for m in catalog.methods:
        if m.method_id in method_texts:
            records.append(SizeRecord(
                m.method_id, "method", tag,
                bpe_encode_len(v, method_texts[m.method_id])))
    class_size: dict[EntityId, int] = {}
    for c in catalog.classes:
        if c.class_id in class_texts:
            class_size[c.class_id] = bpe_encode_len(v, class_texts[c.class_id])
            records.append(SizeRecord(c.class_id, "class", tag,
                                      class_size[c.class_id]))
    pkg_size: dict[EntityId, int] = {}
    proj_size: dict[EntityId, int] = {}
    for c in catalog.classes:
        if c.class_id not in class_size:
            continue
        pkg_size[c.package_id] = pkg_size.get(c.package_id, 0) \
            + class_size[c.class_id]
        proj_size[c.project_id] = proj_size.get(c.project_id, 0) \
            + class_size[c.class_id]
    for p in catalog.packages:
        if p.package_id in pkg_size:
            records.append(SizeRecord(p.package_id, "package", tag,
                                      pkg_size[p.package_id]))
    for pr in catalog.projects:
        if pr.project_id in proj_size:
            records.append(SizeRecord(pr.project_id, "project", tag,
                                      proj_size[pr.project_id]))
    return records


class FitTable(NamedTuple):
    thresholds: tuple[int, ...]
    # (granularity, tokenizer_tag, bucket) -> fraction per threshold
    fractions: dict[tuple[str, str, str], list[float]]

    def rows(self):
        for (gran, tag, bucket), fracs in sorted(self.fractions.items()):
            for tau, f in zip(self.thresholds, fracs):
                yield gran, tag, bucket, tau, f


def window_fit(records: list[SizeRecord],
               thresholds: tuple[int, ...] = WINDOW_THRESHOLDS,
               catalog: Catalog | None = None) -> FitTable:
    """Fraction of entities whose subtoken count fits each window size.

    Given the catalog, project rows are additionally grouped by project
    size class (A-D by class count); without it every bucket is "".
    """
    groups: dict[tuple[str, str, str], list[int]] = {}
    for r in records:
        bucket = ""
        if catalog is not None and r.granularity == "project":
            bucket = size_bucket(catalog.class_count(r.entity_id))
        groups.setdefault((r.granularity, r.tokenizer_tag, bucket),
                          []).append(r.subtoken_count)
    fractions = {
        key: [sum(1 for n in sizes if n <= tau) / len(sizes)
              for tau in thresholds]
        for key, sizes in groups.items()}
    return FitTable(tuple(thresholds), fractions)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def write_vocab(path, v: BpeVocab) -> None:
    out = [f"{a.hex()} {b.hex()}" for a, b in v.merges]
    write_text(path, "\n".join(out) + ("\n" if out else ""))


def write_sizes_csv(path, records: list[SizeRecord]) -> None:
    ordered = sorted(records, key=lambda r: (r.granularity, r.entity_id,
                                             r.tokenizer_tag))
    write_table(path, SIZES_HEADER,
                ((r.entity_id, r.granularity, r.tokenizer_tag,
                  r.subtoken_count) for r in ordered))


def read_sizes_csv(path) -> list[SizeRecord]:
    """The size records; one entity, granularity and tokenizer on two rows
    is an InputError."""
    return [SizeRecord(*row) for row in read_table(
        path, SIZES_HEADER, ("subtoken_count",),
        ("entity_id", "granularity", "tokenizer_tag"))]


def write_fit_csv(path, table: FitTable) -> None:
    write_table(path, FIT_HEADER,
                ((gran, tag, bucket, tau, f"{f:.6f}")
                 for gran, tag, bucket, tau, f in table.rows()))


def english_sample_text() -> str:
    """The bundled plain-English training text for the contrast vocab."""
    here = Path(__file__).parent / "data" / "english_sample.txt"
    return here.read_text(encoding="utf-8")
