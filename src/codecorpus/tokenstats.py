"""Byte-level BPE vocabularies and the subtoken/window studies.

Training starts from the 256 single-byte symbols and repeatedly merges the
most frequent adjacent pair (ties broken by the lexicographically smallest
pair) until the target vocabulary size is reached or no pair repeats.
Merging never crosses line boundaries; lines are deduplicated and weighted
by their repeat counts, which keeps training fast on repetitive code.
Pair counts are taken once and then updated incrementally: a pair -> lines
index finds the lines a merge rewrites, and only the pairs next to each
merge site change count. A heap keyed on (-count, pair) yields the next
merge under the tie rule.

Downstream measurements:

    tokenizer_ratio   subtokens emitted per 100 lexical tokens, averaged
                      per method (or pooled over all tokens)
    entity_sizes      subtoken counts per method/class/package/project,
                      classes measured by tokenizing the whole source file
    window_fit        fraction of entities whose size fits a context window,
                      per threshold, optionally bucketed by project size
"""

import heapq
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import Catalog
from .errors import InvalidArgumentError
from .identity import EntityId
from .lexer import lex
from .tables import read_table, write_table

WINDOW_THRESHOLDS = (256, 512, 1024, 2048, 4096)

SIZES_HEADER = ["entity_id", "granularity", "tokenizer_tag", "subtoken_count"]
FIT_HEADER = ["granularity", "tokenizer_tag", "bucket", "threshold",
              "fit_fraction"]

GRANULARITIES = ("method", "class", "package", "project")


@dataclass
class BpeVocab:
    merges: list[tuple[bytes, bytes]]
    vocab: set[bytes]
    size: int
    corpus_tag: str
    _rank: dict[tuple[bytes, bytes], int] = field(default_factory=dict,
                                                  repr=False)
    _line_cache: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._rank:
            self._rank = {pair: i for i, pair in enumerate(self.merges)}


def _lines(text: str) -> list[str]:
    return text.splitlines(keepends=True) or ([text] if text else [])


def train_bpe(corpus_text: str, vocab_size: int,
              corpus_tag: str = "") -> BpeVocab:
    """Learn merge rules on `corpus_text` until `vocab_size` symbols exist."""
    if not corpus_text:
        raise InvalidArgumentError("training corpus must be nonempty")
    if vocab_size <= 256:
        raise InvalidArgumentError("vocab_size must exceed the 256 byte symbols")

    weighted = Counter(_lines(corpus_text))
    seqs: list[list[bytes]] = []
    weights: list[int] = []
    counts: Counter = Counter()
    # pair -> lines that held it at some point; rechecked on merge
    where: dict[tuple[bytes, bytes], set[int]] = {}
    for k, (line, n) in enumerate(sorted(weighted.items())):
        symbols = [bytes([b]) for b in line.encode("utf-8")]
        seqs.append(symbols)
        weights.append(n)
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += n
            where.setdefault(pair, set()).add(k)
    # max-count first, then the smallest pair; stale entries are skipped
    heap = [(-c, pair) for pair, c in counts.items()]
    heapq.heapify(heap)

    vocab = {bytes([b]) for b in range(256)}
    merges: list[tuple[bytes, bytes]] = []
    while len(vocab) < vocab_size:
        while heap and counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        pair = heapq.heappop(heap)[1]
        merges.append(pair)
        vocab.add(pair[0] + pair[1])
        for p in _merge_everywhere(pair, seqs, weights, counts, where):
            if counts[p] > 0:
                heapq.heappush(heap, (-counts[p], p))
            else:
                del counts[p]
    return BpeVocab(merges, vocab, len(vocab), corpus_tag)


def _merge_everywhere(pair: tuple[bytes, bytes], seqs: list[list[bytes]],
                      weights: list[int], counts: Counter,
                      where: dict[tuple[bytes, bytes], set[int]]
                      ) -> set[tuple[bytes, bytes]]:
    """Merge `pair` in place in every line that holds it and move the counts
    of the pairs around each merge site; returns the pairs whose count
    changed (the merged pair included, now at zero)."""
    first, second = pair
    joined = first + second
    changed = {pair}

    def move(k: int, n: int, old: tuple[bytes, bytes],
             new: tuple[bytes, bytes]) -> None:
        counts[old] -= n
        counts[new] += n
        where.setdefault(new, set()).add(k)
        changed.add(old)
        changed.add(new)

    for k in where.pop(pair):
        symbols = seqs[k]
        n = weights[k]
        i = 0
        while i < len(symbols) - 1:
            if symbols[i] == first and symbols[i + 1] == second:
                counts[pair] -= n
                if i > 0:
                    left = symbols[i - 1]
                    move(k, n, (left, first), (left, joined))
                symbols[i:i + 2] = [joined]
                if i + 1 < len(symbols):
                    right = symbols[i + 1]
                    move(k, n, (second, right), (joined, right))
            i += 1
    return changed


def _merge_pair(symbols: list[bytes], pair: tuple[bytes, bytes]) -> list[bytes]:
    out: list[bytes] = []
    i = 0
    joined = pair[0] + pair[1]
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] \
                and symbols[i + 1] == pair[1]:
            out.append(joined)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def _encode_line(v: BpeVocab, line: str) -> list[bytes]:
    symbols = [bytes([b]) for b in line.encode("utf-8")]
    while len(symbols) > 1:
        ranked = [(v._rank[p], i)
                  for i, p in enumerate(zip(symbols, symbols[1:]))
                  if p in v._rank]
        if not ranked:
            break
        best_rank = min(r for r, _i in ranked)
        symbols = _merge_pair(symbols, v.merges[best_rank])
    return symbols


def bpe_encode(v: BpeVocab, text: str) -> list[bytes]:
    """Apply merges in rank order within each line; lossless by design."""
    out: list[bytes] = []
    for line in _lines(text):
        out.extend(_encode_line(v, line))
    return out


def bpe_encode_len(v: BpeVocab, text: str) -> int:
    """Symbol count of encode(text), with a per-line memo for speed."""
    total = 0
    for line in _lines(text):
        n = v._line_cache.get(line)
        if n is None:
            n = len(_encode_line(v, line))
            v._line_cache[line] = n
        total += n
    return total


def bpe_decode(symbols: list[bytes]) -> str:
    return b"".join(symbols).decode("utf-8")


# ---------------------------------------------------------------------------
# Subtoken efficiency
# ---------------------------------------------------------------------------

def tokenizer_ratio(vocab_or_encoder, texts: list[str],
                    baseline_lexer=None, pooled: bool = False) -> float:
    """Subtokens per 100 lexical tokens over the given method texts.

    Per-method averaging by default; `pooled` divides total subtokens by
    total lexical tokens instead. Texts with zero lexical tokens are
    excluded.
    """
    if baseline_lexer is None:
        baseline_lexer = lex
    if isinstance(vocab_or_encoder, BpeVocab):
        v = vocab_or_encoder
        encode_len = lambda t: bpe_encode_len(v, t)
    else:
        encode_len = lambda t: len(vocab_or_encoder(t))
    ratios = []
    total_sub = total_lex = 0
    for text in texts:
        n_lex = len(baseline_lexer(text))
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

@dataclass(frozen=True)
class SizeRecord:
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


@dataclass
class FitTable:
    thresholds: tuple[int, ...]
    # (granularity, tokenizer_tag, bucket) -> fraction per threshold
    fractions: dict[tuple[str, str, str], list[float]]

    def rows(self):
        for (gran, tag, bucket), fracs in sorted(self.fractions.items()):
            for tau, f in zip(self.thresholds, fracs):
                yield gran, tag, bucket, tau, f


def window_fit(records: list[SizeRecord],
               thresholds: tuple[int, ...] = WINDOW_THRESHOLDS,
               catalog: Catalog | None = None,
               buckets: bool = False) -> FitTable:
    """Fraction of entities whose subtoken count fits each window size.

    With `buckets`, project rows are additionally grouped by project size
    class (A-D by class count), which requires the catalog.
    """
    if buckets and catalog is None:
        raise InvalidArgumentError("bucketed fit tables need the catalog")
    from .taskgen import size_bucket
    groups: dict[tuple[str, str, str], list[int]] = {}
    for r in records:
        bucket = ""
        if buckets and r.granularity == "project":
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
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    out = [f"{a.hex()} {b.hex()}" for a, b in v.merges]
    p.write_text("\n".join(out) + ("\n" if out else ""), encoding="utf-8")


def read_vocab(path, corpus_tag: str = "") -> BpeVocab:
    merges = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        a, b = line.split(" ")
        merges.append((bytes.fromhex(a), bytes.fromhex(b)))
    vocab = {bytes([x]) for x in range(256)} | {a + b for a, b in merges}
    return BpeVocab(merges, vocab, len(vocab), corpus_tag)


def write_sizes_csv(path, records: list[SizeRecord]) -> None:
    ordered = sorted(records, key=lambda r: (r.granularity, r.entity_id,
                                             r.tokenizer_tag))
    write_table(path, SIZES_HEADER,
                ((r.entity_id, r.granularity, r.tokenizer_tag,
                  r.subtoken_count) for r in ordered))


def read_sizes_csv(path) -> list[SizeRecord]:
    return [SizeRecord(*row)
            for row in read_table(path, SIZES_HEADER, ("subtoken_count",))]


def write_fit_csv(path, table: FitTable) -> None:
    write_table(path, FIT_HEADER,
                ((gran, tag, bucket, tau, f"{f:.6f}")
                 for gran, tag, bucket, tau, f in table.rows()))


def english_sample_text() -> str:
    """The bundled plain-English training text for the contrast vocab."""
    here = Path(__file__).parent / "data" / "english_sample.txt"
    return here.read_text(encoding="utf-8")
