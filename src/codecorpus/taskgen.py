"""ML task datasets over the corpus: property prediction, call masking,
argument-swap mutation detection, plus the exact-match evaluation harness.

All datasets share the same leak-free split scheme: projects are shuffled by
seed and greedily assigned whole to the split with the largest remaining
deficit, so no project ever contributes to two splits. Each sample carries
its split and its project's size bucket, both set in `_finalize`. Sample
order follows catalog order, which makes dataset files byte-reproducible
for a fixed seed.

Call masking and mutation take their sites from `parser.call_sites`, the
one definition of a call site, which the call graph also uses: a masked
name token sits at the (line, col) of its site's call-graph edge.
"""

import operator
import random
from collections import Counter
from typing import NamedTuple

from .catalog import Catalog, size_bucket
from .errors import InputError, InvalidArgumentError
from .identity import EntityId
from .callgraph import CallGraph, ContextBundle
from .lexer import KIND_IDENTIFIER
from .parser import MethodSource, call_sites
from .tables import read_table, write_table

SPLIT_NAMES = ("train", "valid", "test")
DEFAULT_SPLIT_FRACS = (0.8, 0.05, 0.15)
MASK_TOKEN = "<MASK>"
CTX_TOKEN = "<CTX>"

TASK_HEADER = ["sample_id", "method_id", "split", "stratum", "size_bucket",
               "label", "payload"]

# Property filter operators
FILTER_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq,
              "!=": operator.ne, ">": operator.gt, "<": operator.lt}


class TaskSample:
    __slots__ = ("sample_id", "method_id", "payload", "label", "stratum",
                 "size_bucket", "meta", "split")

    def __init__(self, sample_id: str, method_id: EntityId, payload: str,
                 label: str, stratum: str = "", size_bucket: str = "",
                 meta: dict | None = None, split: str = ""):
        self.sample_id = sample_id
        self.method_id = method_id
        self.payload = payload
        self.label = label
        self.stratum = stratum      # call_type for masking tasks, else empty
        self.size_bucket = size_bucket
        self.meta = {} if meta is None else meta     # in-memory only
        self.split = split          # one of SPLIT_NAMES


class TaskDataset(NamedTuple):
    samples: list[TaskSample]

    def in_split(self, split: str) -> list[TaskSample]:
        return [s for s in self.samples if s.split == split]


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def _check_fracs(split_fracs) -> tuple[float, float, float]:
    fracs = tuple(split_fracs)
    if len(fracs) != len(SPLIT_NAMES) or any(f < 0 for f in fracs) \
            or not abs(sum(fracs) - 1.0) <= 1e-9:      # false for a NaN
        raise InvalidArgumentError(
            "split fractions must be three non-negatives summing to 1")
    return fracs


def assign_project_splits(samples: list[TaskSample], catalog: Catalog,
                          split_fracs, seed: int) -> None:
    """Set each sample's split: whole projects go to one split each,
    greedily filling targets."""
    fracs = _check_fracs(split_fracs)
    groups: dict[EntityId, list[TaskSample]] = {}
    for s in samples:
        groups.setdefault(catalog.by_id[s.method_id].project_id, []).append(s)
    order = sorted(groups)
    random.Random(seed).shuffle(order)
    targets = {name: frac * len(samples)
               for name, frac in zip(SPLIT_NAMES, fracs)}
    counts = {name: 0 for name in SPLIT_NAMES}
    for pid in order:
        best = max(SPLIT_NAMES,
                   key=lambda n: (targets[n] - counts[n],
                                  -SPLIT_NAMES.index(n)))
        for s in groups[pid]:
            s.split = best
        counts[best] += len(groups[pid])


def _finalize(samples: list[TaskSample], catalog: Catalog, split_fracs,
              seed: int) -> TaskDataset:
    """Number the samples, give each its project's size bucket, split."""
    for i, s in enumerate(samples):
        s.sample_id = f"s{i:06d}"
        pid = catalog.by_id[s.method_id].project_id
        s.size_bucket = size_bucket(catalog.class_count(pid))
    assign_project_splits(samples, catalog, split_fracs, seed)
    return TaskDataset(samples)


# ---------------------------------------------------------------------------
# Property prediction
# ---------------------------------------------------------------------------

def _passes(value, fkey: str, op: str, fval) -> bool:
    try:
        return FILTER_OPS[op](value, fval)
    except TypeError:   # an order between a number and a text
        raise InvalidArgumentError(
            f"filter {fkey}{op}{fval}: {fkey} value {value!r} cannot be "
            f"ordered against {fval!r}") from None


def make_property_task(key: str,
                       props: dict[str, dict[EntityId, object]],
                       payloads: dict[EntityId, str],
                       catalog: Catalog,
                       filters: list[tuple[str, str, object]] = (),
                       balance: bool = False,
                       split_fracs=DEFAULT_SPLIT_FRACS,
                       seed: int = 0) -> TaskDataset:
    """Predict a method property from its token representation.

    `props` maps property keys to their per-method values and must hold
    `key`. `filters` are (property_key, op, value) triples applied before
    balancing; methods lacking a filtered property are dropped, and an
    order between a number and a text is an InvalidArgumentError. With
    `balance`, every label is down-sampled to the least frequent label's
    count using the seed.
    """
    if key not in props:
        raise InvalidArgumentError(f"no values for property {key}")
    values = props[key]
    for fkey, op, _v in filters:
        if op not in FILTER_OPS:
            raise InvalidArgumentError(f"unknown filter op: {op}")
        if fkey not in props:
            raise InvalidArgumentError(f"filter on unavailable property {fkey}")

    chosen: list[TaskSample] = []
    for meta in catalog.methods:
        mid = meta.method_id
        if mid not in values or mid not in payloads:
            continue
        if not all(mid in props[k] and _passes(props[k][mid], k, op, v)
                   for k, op, v in filters):
            continue
        chosen.append(TaskSample("", mid, payloads[mid], str(values[mid])))
    if not chosen:
        raise InvalidArgumentError(
            f"no samples left for property {key} after filters")

    if balance:
        by_label: dict[str, list[int]] = {}
        for i, s in enumerate(chosen):
            by_label.setdefault(s.label, []).append(i)
        floor = min(len(v) for v in by_label.values())
        rng = random.Random(seed)
        keep: set[int] = set()
        for label in sorted(by_label):
            idx = by_label[label]
            keep.update(idx if len(idx) == floor
                        else rng.sample(idx, floor))
        chosen = [s for i, s in enumerate(chosen) if i in keep]
    return _finalize(chosen, catalog, split_fracs, seed)


# ---------------------------------------------------------------------------
# Call masking
# ---------------------------------------------------------------------------

def make_call_masking_task(catalog: Catalog,
                           sources: dict[EntityId, MethodSource],
                           graph: CallGraph,
                           seed: int = 0,
                           split_fracs=DEFAULT_SPLIT_FRACS,
                           include_constructors: bool = False) -> TaskDataset:
    """One masked call site per method that has any; label = callee name.

    The masked token becomes <MASK> in the space-joined token payload; the
    site's locality class from the call graph becomes the stratum, and a
    masked site without a call-graph row is an InputError. Site
    choice consumes one shared seeded generator in catalog order, so the
    whole dataset is reproducible from the seed.
    """
    edge_at = {(e.caller, e.line, e.col): e for e in graph.edges}
    rng = random.Random(seed)
    samples: list[TaskSample] = []
    for meta in catalog.methods:
        method = sources.get(meta.method_id)
        if method is None:
            continue
        ast = method.ast
        # a site named by a keyword (`new int(5)`) has no name to predict
        names = [s.name for s in call_sites(ast, include_constructors)
                 if ast.token(s.name).kind == KIND_IDENTIFIER]
        if not names:
            continue
        name_term = names[rng.randrange(len(names))]
        tok = ast.token(name_term)
        edge = edge_at.get((meta.method_id, tok.line, tok.col))
        if edge is None:
            raise InputError(f"no call-graph row for the call site masked "
                             f"in {meta.method_id} at line {tok.line}, "
                             f"col {tok.col}")
        token_pos = ast.token_indices[name_term]
        lexemes = [t.lexeme for t in ast.tokens]
        lexemes[token_pos] = MASK_TOKEN
        samples.append(TaskSample(
            "", meta.method_id, " ".join(lexemes), tok.lexeme,
            edge.call_type,
            meta={"token_index": token_pos, "line": tok.line, "col": tok.col}))
    return _finalize(samples, catalog, split_fracs, seed)


def unmask_payload(sample: TaskSample) -> str:
    """Reapply the label at the recorded position (recoverability check)."""
    tokens = sample.payload.split(" ")
    k = sample.meta.get("token_index")
    if k is None or k >= len(tokens) or tokens[k] != MASK_TOKEN:
        raise InvalidArgumentError("sample has no recorded mask position")
    tokens[k] = sample.label
    return " ".join(tokens)


def augment_with_context(sample: TaskSample, bundle: ContextBundle,
                         exclude_masked_label: bool = True) -> TaskSample:
    """Append the bundle's callee names after a <CTX> marker.

    The masked site's own ground-truth name is dropped unless some other
    site also reaches a callee of that name. Re-augmenting an already
    augmented sample is a no-op, keyed off the marker.
    """
    if bundle.center != sample.method_id:
        raise InvalidArgumentError("context bundle is for a different method")
    if CTX_TOKEN in sample.payload.split(" "):
        return sample
    counts = bundle.callee_name_counts
    names = set(counts)
    if exclude_masked_label and counts.get(sample.label, 0) <= 1:
        names.discard(sample.label)
    if not names:
        return sample
    payload = f"{sample.payload} {CTX_TOKEN} " + " ".join(sorted(names))
    return TaskSample(sample.sample_id, sample.method_id, payload,
                      sample.label, sample.stratum, sample.size_bucket,
                      dict(sample.meta), sample.split)


# ---------------------------------------------------------------------------
# Argument-swap mutation
# ---------------------------------------------------------------------------

def make_mutation_task(catalog: Catalog,
                       sources: dict[EntityId, MethodSource],
                       p_mutate: float,
                       seed: int = 0,
                       split_fracs=DEFAULT_SPLIT_FRACS) -> TaskDataset:
    """Swap two differing arguments of one call site with probability
    p_mutate per method; label is mutated/clean."""
    if not (0 < p_mutate <= 1):
        raise InvalidArgumentError("p_mutate must be in (0, 1]")
    rng = random.Random(seed)
    samples: list[TaskSample] = []
    for meta in catalog.methods:
        method = sources.get(meta.method_id)
        if method is None:
            continue
        ast = method.ast
        lexemes = [t.lexeme for t in ast.tokens]
        mutated = False
        meta_info: dict = {}
        if rng.random() < p_mutate:
            spans_by_site = []
            for site in call_sites(ast):       # pairs need two arguments
                spans = [ast.token_span(a) for a in site.args]
                texts = [" ".join(lexemes[a:b]) for a, b in spans]
                pairs = [(x, y) for x in range(len(spans))
                         for y in range(x + 1, len(spans))
                         if texts[x] != texts[y]]
                if pairs:
                    spans_by_site.append((spans, pairs))
            if spans_by_site:
                spans, pairs = spans_by_site[rng.randrange(len(spans_by_site))]
                x, y = pairs[rng.randrange(len(pairs))]
                (a1, b1), (a2, b2) = spans[x], spans[y]
                lexemes = (lexemes[:a1] + lexemes[a2:b2] + lexemes[b1:a2]
                           + lexemes[a1:b1] + lexemes[b2:])
                meta_info = {"arg_positions": (x, y),
                             "token_spans": ((a1, b1), (a2, b2))}
                mutated = True
        samples.append(TaskSample(
            "", meta.method_id, " ".join(lexemes),
            "mutated" if mutated else "clean", meta=meta_info))
    return _finalize(samples, catalog, split_fracs, seed)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate_exact_match(dataset: TaskDataset,
                         predictions: dict[str, str]) -> dict:
    """Exact-match accuracy on the test split, overall and stratified.

    Predictions may be keyed by sample_id or by method_id; a test sample
    with no prediction counts as incorrect and is tallied separately.
    """
    test = dataset.in_split("test")
    if not test:
        raise InvalidArgumentError("dataset has an empty test split")
    overall_n = len(test)
    correct = 0
    missing = 0
    strata: dict[str, list[int]] = {}
    buckets: dict[str, list[int]] = {}
    for s in test:
        pred = predictions.get(s.sample_id)
        if pred is None:
            pred = predictions.get(s.method_id)
        hit = 0
        if pred is None:
            missing += 1
        elif pred == s.label:
            hit = 1
        correct += hit
        strata.setdefault(s.stratum or "all", []).append(hit)
        buckets.setdefault(s.size_bucket or "?", []).append(hit)

    def table(groups: dict[str, list[int]]) -> dict[str, dict]:
        return {k: {"n": len(v), "accuracy": sum(v) / len(v)}
                for k, v in sorted(groups.items())}

    return {
        "n": overall_n,
        "overall": correct / overall_n,
        "missing": missing,
        "per_stratum": table(strata),
        "per_bucket": table(buckets),
    }


def _top(candidates, freq: Counter) -> str:
    """The candidate most frequent as a training label, smallest on ties."""
    return min(candidates, key=lambda c: (-freq[c], c))


def baseline_most_frequent(dataset: TaskDataset) -> dict[str, str]:
    """Predict the most common training label for every test sample."""
    freq = Counter(s.label for s in dataset.in_split("train"))
    if not freq:
        raise InvalidArgumentError("dataset has an empty train split")
    top = _top(freq, freq)
    return {s.sample_id: top for s in dataset.in_split("test")}


def baseline_context_unigram(dataset: TaskDataset) -> dict[str, str]:
    """Pick the candidate visible in the sample that is most frequent as a
    training label; candidates come from the <CTX> section when present,
    otherwise from the payload tokens."""
    freq = Counter(s.label for s in dataset.in_split("train"))
    fallback = _top(freq, freq) if freq else ""
    out: dict[str, str] = {}
    for s in dataset.in_split("test"):
        tokens = s.payload.split(" ")
        if CTX_TOKEN in tokens:
            candidates = tokens[tokens.index(CTX_TOKEN) + 1:]
        else:
            candidates = tokens
        scored = [c for c in candidates if freq[c] > 0]
        out[s.sample_id] = _top(scored, freq) if scored else fallback
    return out


# ---------------------------------------------------------------------------
# Bias table (label distribution across a second property's bins)
# ---------------------------------------------------------------------------

SLOC_BINS = ((1, 5), (6, 10), (11, 20), (21, 50), (51, None))


def bias_table(sloc: dict[EntityId, int], cmpx: dict[EntityId, int]
               ) -> tuple[list[str], list[str], list[list[int]]]:
    """Method counts binned by size and complexity, for skew inspection."""
    row_labels = [f"{lo}-{hi}" if hi else f"{lo}+" for lo, hi in SLOC_BINS]
    cmpx_values = sorted({min(v, 5) for v in cmpx.values()} | {1})
    col_labels = [f"{v}+" if v == 5 else str(v) for v in cmpx_values]
    matrix = [[0] * len(cmpx_values) for _ in row_labels]
    col_of = {v: k for k, v in enumerate(cmpx_values)}
    for mid, s in sloc.items():
        if mid not in cmpx:
            continue
        c = min(cmpx[mid], 5)
        for r, (lo, hi) in enumerate(SLOC_BINS):
            if s >= lo and (hi is None or s <= hi):
                matrix[r][col_of[c]] += 1
                break
    return row_labels, col_labels, matrix


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def write_task_csv(path, dataset: TaskDataset) -> None:
    write_table(path, TASK_HEADER,
                ((s.sample_id, s.method_id, s.split, s.stratum,
                  s.size_bucket, s.label, s.payload)
                 for s in dataset.samples))


def read_task_csv(path) -> TaskDataset:
    samples: list[TaskSample] = []
    for sid, mid, split, stratum, bucket, label, payload in \
            read_table(path, TASK_HEADER, key=("sample_id",)):
        if split not in SPLIT_NAMES:
            raise InputError(f"{path}: sample {sid!r} has unknown split "
                             f"{split!r}")
        samples.append(TaskSample(sid, mid, payload, label, stratum, bucket,
                                  split=split))
    return TaskDataset(samples)
