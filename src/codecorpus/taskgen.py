"""ML task datasets over the corpus: property prediction, call masking,
argument-swap mutation detection, plus the exact-match evaluation harness.

All datasets share the same leak-free split scheme: projects are shuffled by
seed and greedily assigned whole to the split with the largest remaining
deficit, so no project ever contributes to two splits. Sample order follows
catalog order, which makes dataset files byte-reproducible for a fixed seed.
"""

import random
from collections import Counter
from dataclasses import dataclass, field, replace

from .catalog import Catalog
from .errors import InputError, InvalidArgumentError, NotFoundError
from .identity import EntityId
from .callgraph import CallGraph, ContextBundle
from .lexer import KIND_IDENTIFIER, KIND_OPERATOR
from .parser import MethodSource, NT_CALL, NT_NEW, call_parts, new_parts
from .tables import read_table, write_table

SPLIT_NAMES = ("train", "valid", "test")
DEFAULT_SPLIT_FRACS = (0.8, 0.05, 0.15)
MASK_TOKEN = "<MASK>"
CTX_TOKEN = "<CTX>"

TASK_HEADER = ["sample_id", "method_id", "split", "stratum", "size_bucket",
               "label", "payload"]
PREDICTIONS_HEADER = ["sample_id", "prediction"]

_FILTER_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass
class TaskSample:
    sample_id: str
    method_id: EntityId
    payload: str
    label: str
    stratum: str = ""            # call_type for masking tasks, else empty
    size_bucket: str = ""
    meta: dict = field(default_factory=dict)   # in-memory only


@dataclass
class TaskDataset:
    samples: list[TaskSample]
    splits: dict[str, set[int]]
    seed: int
    spec: str

    def split_of(self, index: int) -> str:
        for name in SPLIT_NAMES:
            if index in self.splits[name]:
                return name
        raise NotFoundError(f"sample index {index} not in any split")

    def indices(self, split: str) -> list[int]:
        return sorted(self.splits[split])


def size_bucket(class_count: int) -> str:
    """Project-size buckets: A <=20 classes, B 21-50, C 51-100, D >100."""
    if class_count <= 20:
        return "A"
    if class_count <= 50:
        return "B"
    if class_count <= 100:
        return "C"
    return "D"


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def _check_fracs(split_fracs) -> tuple[float, float, float]:
    fracs = tuple(split_fracs)
    if len(fracs) != len(SPLIT_NAMES) or any(f < 0 for f in fracs) \
            or abs(sum(fracs) - 1.0) > 1e-9:
        raise InvalidArgumentError(
            "split fractions must be three non-negatives summing to 1")
    return fracs


def assign_project_splits(samples: list[TaskSample], catalog: Catalog,
                          split_fracs, seed: int) -> dict[str, set[int]]:
    """Whole projects go to one split each, greedily filling targets."""
    fracs = _check_fracs(split_fracs)
    groups: dict[EntityId, list[int]] = {}
    for i, s in enumerate(samples):
        meta = catalog.by_id[s.method_id]
        groups.setdefault(meta.project_id, []).append(i)
    order = sorted(groups)
    random.Random(seed).shuffle(order)
    targets = {name: frac * len(samples)
               for name, frac in zip(SPLIT_NAMES, fracs)}
    splits: dict[str, set[int]] = {name: set() for name in SPLIT_NAMES}
    counts = {name: 0 for name in SPLIT_NAMES}
    for pid in order:
        best = max(SPLIT_NAMES,
                   key=lambda n: (targets[n] - counts[n],
                                  -SPLIT_NAMES.index(n)))
        splits[best].update(groups[pid])
        counts[best] += len(groups[pid])
    return splits


def _finalize(samples: list[TaskSample], catalog: Catalog, split_fracs,
              seed: int, spec: str) -> TaskDataset:
    for i, s in enumerate(samples):
        s.sample_id = f"s{i:06d}"
    return TaskDataset(samples, assign_project_splits(samples, catalog,
                                                      split_fracs, seed),
                       seed, spec)


# ---------------------------------------------------------------------------
# Property prediction
# ---------------------------------------------------------------------------

def make_property_task(key: str,
                       values: dict[EntityId, object],
                       payloads: dict[EntityId, str],
                       catalog: Catalog,
                       filters: list[tuple[str, str, object]] = (),
                       balance: bool = False,
                       split_fracs=DEFAULT_SPLIT_FRACS,
                       seed: int = 0,
                       all_props: dict[str, dict[EntityId, object]] | None = None,
                       ) -> TaskDataset:
    """Predict a method property from its token representation.

    `filters` are (property_key, op, value) triples applied before
    balancing; methods lacking a filtered property are dropped. With
    `balance`, every label is down-sampled to the least frequent label's
    count using the seed.
    """
    props = dict(all_props or {})
    props.setdefault(key, values)
    for fkey, op, _v in filters:
        if op not in _FILTER_OPS:
            raise InvalidArgumentError(f"unknown filter op: {op}")
        if fkey not in props:
            raise InvalidArgumentError(f"filter on unavailable property {fkey}")

    chosen: list[TaskSample] = []
    for meta in catalog.methods:
        mid = meta.method_id
        if mid not in values or mid not in payloads:
            continue
        ok = True
        for fkey, op, fval in filters:
            if mid not in props[fkey] or not _FILTER_OPS[op](props[fkey][mid], fval):
                ok = False
                break
        if not ok:
            continue
        bucket = size_bucket(catalog.class_count(meta.project_id))
        chosen.append(TaskSample("", mid, payloads[mid], str(values[mid]),
                                 "", bucket))
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

    spec = f"property key={key} balance={int(balance)}" + \
        "".join(f" {k}{op}{v}" for k, op, v in filters)
    return _finalize(chosen, catalog, split_fracs, seed, spec)


# ---------------------------------------------------------------------------
# Call masking
# ---------------------------------------------------------------------------

def _terminal_order(ast) -> list[int]:
    return [i for i in range(len(ast)) if ast.is_terminal(i)]


def _mask_sites(method: MethodSource, include_constructors: bool
                ) -> list[tuple[int, int, str]]:
    """(name terminal, token position, callee name) per eligible site."""
    ast = method.ast
    order = _terminal_order(ast)
    pos = {t: k for k, t in enumerate(order)}
    sites = []
    for i in range(len(ast)):
        nt = ast.node_types[i]
        if nt == NT_CALL:
            _recv, name_term, _args = call_parts(ast, i)
            sites.append((name_term, pos[name_term], ast.lexeme(name_term)))
        elif nt == NT_NEW and include_constructors:
            ty, _args = new_parts(ast, i)
            name_term = _type_name_terminal(ast, ty)
            if name_term is not None:
                sites.append((name_term, pos[name_term], ast.lexeme(name_term)))
    return sites


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


def make_call_masking_task(catalog: Catalog,
                           sources: dict[EntityId, MethodSource],
                           graph: CallGraph,
                           seed: int = 0,
                           split_fracs=DEFAULT_SPLIT_FRACS,
                           include_constructors: bool = False) -> TaskDataset:
    """One masked call site per method that has any; label = callee name.

    The masked token becomes <MASK> in the space-joined token payload; the
    site's locality class from the call graph becomes the stratum. Site
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
        sites = _mask_sites(method, include_constructors)
        if not sites:
            continue
        name_term, token_pos, callee = sites[rng.randrange(len(sites))]
        tok = method.ast.token(name_term)
        edge = edge_at.get((meta.method_id, tok.line, tok.col))
        stratum = edge.call_type if edge is not None else "API"
        lexemes = [method.ast.lexeme(t) for t in _terminal_order(method.ast)]
        lexemes[token_pos] = MASK_TOKEN
        bucket = size_bucket(catalog.class_count(meta.project_id))
        samples.append(TaskSample(
            "", meta.method_id, " ".join(lexemes), callee, stratum, bucket,
            meta={"token_index": token_pos, "line": tok.line, "col": tok.col}))
    spec = f"call-mask ctors={int(include_constructors)}"
    return _finalize(samples, catalog, split_fracs, seed, spec)


def unmask_payload(sample: TaskSample) -> str:
    """Reapply the label at the recorded position (recoverability check)."""
    tokens = sample.payload.split(" ")
    k = sample.meta.get("token_index")
    if k is None or k >= len(tokens) or tokens[k] != MASK_TOKEN:
        raise InvalidArgumentError("sample has no recorded mask position")
    tokens[k] = sample.label
    return " ".join(tokens)


def augment_with_context(sample: TaskSample, bundle: ContextBundle,
                         hop: int = 1,
                         exclude_masked_label: bool = True) -> TaskSample:
    """Append hop-1 callee names after a <CTX> marker.

    The masked site's own ground-truth name is dropped unless some other
    site also reaches a callee of that name. Re-augmenting an already
    augmented sample is a no-op, keyed off the marker.
    """
    if bundle.center != sample.method_id:
        raise InvalidArgumentError("context bundle is for a different method")
    if hop == 0 or CTX_TOKEN in sample.payload.split(" "):
        return sample
    counts = bundle.callee_name_counts
    names = set(counts)
    if exclude_masked_label and counts.get(sample.label, 0) <= 1:
        names.discard(sample.label)
    if not names:
        return sample
    payload = f"{sample.payload} {CTX_TOKEN} " + " ".join(sorted(names))
    return replace(sample, payload=payload, meta=dict(sample.meta))


# ---------------------------------------------------------------------------
# Argument-swap mutation
# ---------------------------------------------------------------------------

def _swap_sites(method: MethodSource) -> list[tuple[int, list[int]]]:
    """(call node, argument roots) for sites with >= 2 arguments."""
    ast = method.ast
    sites = []
    for i in range(len(ast)):
        nt = ast.node_types[i]
        if nt == NT_CALL:
            _recv, _name, args = call_parts(ast, i)
        elif nt == NT_NEW:
            _ty, args = new_parts(ast, i)
        else:
            continue
        if len(args) >= 2:
            sites.append((i, args))
    return sites


def _subtree_token_span(ast, node: int, pos: dict[int, int]) -> tuple[int, int]:
    terms = ast.terminals(node)
    return pos[terms[0]], pos[terms[-1]] + 1


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
        order = _terminal_order(ast)
        pos = {t: k for k, t in enumerate(order)}
        lexemes = [ast.lexeme(t) for t in order]
        bucket = size_bucket(catalog.class_count(meta.project_id))

        mutated = False
        meta_info: dict = {}
        if rng.random() < p_mutate:
            spans_by_site = []
            for node, args in _swap_sites(method):
                spans = [_subtree_token_span(ast, a, pos) for a in args]
                texts = [" ".join(lexemes[a:b]) for a, b in spans]
                pairs = [(x, y) for x in range(len(args))
                         for y in range(x + 1, len(args))
                         if texts[x] != texts[y]]
                if pairs:
                    spans_by_site.append((node, spans, pairs))
            if spans_by_site:
                _node, spans, pairs = spans_by_site[
                    rng.randrange(len(spans_by_site))]
                x, y = pairs[rng.randrange(len(pairs))]
                (a1, b1), (a2, b2) = spans[x], spans[y]
                swapped = (lexemes[:a1] + lexemes[a2:b2] + lexemes[b1:a2]
                           + lexemes[a1:b1] + lexemes[b2:])
                meta_info = {"arg_positions": (x, y),
                             "token_spans": ((a1, b1), (a2, b2))}
                lexemes = swapped
                mutated = True
        samples.append(TaskSample(
            "", meta.method_id, " ".join(lexemes),
            "mutated" if mutated else "clean", "", bucket, meta=meta_info))
    spec = f"mutation p={p_mutate}"
    return _finalize(samples, catalog, split_fracs, seed, spec)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate_exact_match(dataset: TaskDataset,
                         predictions: dict[str, str]) -> dict:
    """Exact-match accuracy on the test split, overall and stratified.

    Predictions may be keyed by sample_id or by method_id; a test sample
    with no prediction counts as incorrect and is tallied separately.
    """
    test = dataset.indices("test")
    if not test:
        raise InvalidArgumentError("dataset has an empty test split")
    overall_n = len(test)
    correct = 0
    missing = 0
    strata: dict[str, list[int]] = {}
    buckets: dict[str, list[int]] = {}
    for i in test:
        s = dataset.samples[i]
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


def baseline_most_frequent(dataset: TaskDataset) -> dict[str, str]:
    """Predict the most common training label for every test sample."""
    train_labels = [dataset.samples[i].label for i in dataset.indices("train")]
    if not train_labels:
        raise InvalidArgumentError("dataset has an empty train split")
    top = min(Counter(train_labels).items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return {dataset.samples[i].sample_id: top for i in dataset.indices("test")}


def baseline_context_unigram(dataset: TaskDataset) -> dict[str, str]:
    """Pick the candidate visible in the sample that is most frequent as a
    training label; candidates come from the <CTX> section when present,
    otherwise from the payload tokens."""
    freq = Counter(dataset.samples[i].label for i in dataset.indices("train"))
    fallback = min(freq.items(), key=lambda kv: (-kv[1], kv[0]))[0] \
        if freq else ""
    out: dict[str, str] = {}
    for i in dataset.indices("test"):
        s = dataset.samples[i]
        tokens = s.payload.split(" ")
        if CTX_TOKEN in tokens:
            candidates = tokens[tokens.index(CTX_TOKEN) + 1:]
        else:
            candidates = tokens
        scored = [c for c in candidates if freq.get(c, 0) > 0]
        if scored:
            out[s.sample_id] = min(scored,
                                   key=lambda c: (-freq[c], c))
        else:
            out[s.sample_id] = fallback
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
                ((s.sample_id, s.method_id, dataset.split_of(i), s.stratum,
                  s.size_bucket, s.label, s.payload)
                 for i, s in enumerate(dataset.samples)))


def read_task_csv(path) -> TaskDataset:
    samples: list[TaskSample] = []
    splits: dict[str, set[int]] = {name: set() for name in SPLIT_NAMES}
    for i, r in enumerate(read_table(path, TASK_HEADER)):
        sid, mid, split, stratum, bucket, label, payload = r
        if split not in splits:
            raise InputError(f"{path}: sample {sid!r} has unknown split "
                             f"{split!r}")
        splits[split].add(i)
        samples.append(TaskSample(sid, mid, payload, label, stratum, bucket))
    return TaskDataset(samples, splits, seed=0, spec="")


def write_predictions_csv(path, predictions: dict[str, str]) -> None:
    write_table(path, PREDICTIONS_HEADER, sorted(predictions.items()))


def read_predictions_csv(path) -> dict[str, str]:
    return dict(read_table(path, PREDICTIONS_HEADER))
