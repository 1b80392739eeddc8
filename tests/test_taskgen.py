"""Task datasets: leak-free splits, masking, mutation, and evaluation."""

import random
from collections import Counter

import pytest

from codecorpus.callgraph import build_callgraph, n_hop_context
from codecorpus.errors import InputError, InvalidArgumentError
from codecorpus.lexer import lex, tkna_text
from codecorpus.metrics import compute_metrics
from codecorpus.pipeline import all_sources, merged_catalog
from codecorpus.taskgen import (
    CTX_TOKEN, DEFAULT_SPLIT_FRACS, MASK_TOKEN, SPLIT_NAMES, TASK_HEADER,
    TaskDataset, TaskSample, assign_project_splits, augment_with_context,
    baseline_context_unigram, baseline_most_frequent, bias_table,
    evaluate_exact_match, make_call_masking_task, make_mutation_task,
    make_property_task, read_task_csv, size_bucket, unmask_payload,
    write_task_csv,
)

from oracles import mask_sites_oracle, swap_sites_oracle


@pytest.fixture(scope="module")
def env(corpus_data):
    cat = merged_catalog(list(corpus_data))
    sources = all_sources(list(corpus_data))
    graph = build_callgraph(list(corpus_data))
    payloads = {mid: tkna_text(lex(m.text)) for mid, m in sources.items()}
    props = {}
    for mid, m in sources.items():
        for k, v in compute_metrics(m).items():
            props.setdefault(k, {})[mid] = v
    return cat, sources, graph, payloads, props


def _project_of(cat, sample):
    return cat.by_id[sample.method_id].project_id


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def test_split_fractions_are_validated(env):
    cat, _src, _g, payloads, props = env
    for fracs in ((0.5, 0.5), (0.5, 0.4, 0.2), (-0.1, 0.6, 0.5), (1.0, 0.1, -0.1)):
        with pytest.raises(InvalidArgumentError):
            make_property_task("CMPX", props, payloads, cat,
                               split_fracs=fracs)


def test_projects_never_straddle_splits(env):
    cat, _src, _g, payloads, props = env
    for seed in range(5):
        ds = make_property_task("CMPX", props, payloads, cat, seed=seed)
        per_project = {}
        for s in ds.samples:
            assert s.split in SPLIT_NAMES
            per_project.setdefault(_project_of(cat, s), set()).add(s.split)
        assert all(len(names) == 1 for names in per_project.values())


def test_split_sizes_track_the_fractions(env):
    cat, _src, _g, payloads, props = env
    ds = make_property_task("CMPX", props, payloads, cat, seed=1)
    counts = Counter(s.split for s in ds.samples)
    # whole-project assignment is coarse; just require the right ranking
    assert counts["train"] > counts["test"]
    assert len(ds.samples) == sum(counts[k] for k in SPLIT_NAMES)


def test_every_fixture_task_sample_has_a_split(env, mask_ds):
    cat, sources, _g, payloads, props = env
    for ds in (make_property_task("CMPX", props, payloads, cat, seed=3),
               mask_ds, make_mutation_task(cat, sources, 0.5, seed=3)):
        assert ds.samples
        assert all(s.split in SPLIT_NAMES for s in ds.samples)


def test_size_buckets():
    assert [size_bucket(k) for k in (1, 20, 21, 50, 51, 100, 101)] == \
        ["A", "A", "B", "B", "C", "C", "D"]


def test_fixture_projects_cover_all_buckets(env):
    cat, _src, _g, payloads, props = env
    ds = make_property_task("CMPX", props, payloads, cat)
    by_project = {}
    for s in ds.samples:
        meta = cat.by_id[s.method_id]
        by_project[cat.by_id[meta.project_id].project_name] = s.size_bucket
    assert by_project["demo"] == "A"
    assert by_project["bulk_b"] == "B"
    assert by_project["bulk_c"] == "C"
    assert by_project["bulk_d"] == "D"


# ---------------------------------------------------------------------------
# Property prediction
# ---------------------------------------------------------------------------

def test_property_samples_pair_payload_with_label(env):
    cat, _src, _g, payloads, props = env
    ds = make_property_task("CMPX", props, payloads, cat)
    assert len(ds.samples) == len(cat.methods)
    for s in ds.samples:
        assert s.payload == payloads[s.method_id]
        assert s.label == str(props["CMPX"][s.method_id])
    # sample ids are sequential and unique
    assert [s.sample_id for s in ds.samples] == \
        [f"s{i:06d}" for i in range(len(ds.samples))]


def test_property_filters_restrict_the_pool(env):
    cat, _src, _g, payloads, props = env
    ds = make_property_task("CMPX", props, payloads, cat,
                            filters=[("SLOC", ">=", 5)])
    assert ds.samples
    for s in ds.samples:
        assert props["SLOC"][s.method_id] >= 5
    expect = sum(1 for m in cat.methods if props["SLOC"][m.method_id] >= 5)
    assert len(ds.samples) == expect


def test_property_filter_validation(env):
    cat, _src, _g, payloads, props = env
    with pytest.raises(InvalidArgumentError):
        make_property_task("CMPX", props, payloads, cat,
                           filters=[("SLOC", "~", 5)])
    with pytest.raises(InvalidArgumentError):
        make_property_task("CMPX", props, payloads, cat,
                           filters=[("NOPE", ">=", 5)])
    with pytest.raises(InvalidArgumentError):
        make_property_task("NOPE", props, payloads, cat)
    with pytest.raises(InvalidArgumentError):
        make_property_task("CMPX", props, payloads, cat,
                           filters=[("SLOC", ">=", 10 ** 6)])


def test_balancing_equalizes_label_counts(env):
    cat, _src, _g, payloads, props = env
    plain = make_property_task("CMPX", props, payloads, cat, seed=2)
    balanced = make_property_task("CMPX", props, payloads, cat,
                                  balance=True, seed=2)
    counts = Counter(s.label for s in balanced.samples)
    floor = min(Counter(s.label for s in plain.samples).values())
    assert set(counts.values()) == {floor}
    assert {s.method_id for s in balanced.samples} <= \
        {s.method_id for s in plain.samples}
    again = make_property_task("CMPX", props, payloads, cat,
                               balance=True, seed=2)
    assert [s.method_id for s in again.samples] == \
        [s.method_id for s in balanced.samples]


# ---------------------------------------------------------------------------
# Call masking
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mask_ds(env):
    cat, sources, graph, _payloads, _props = env
    return make_call_masking_task(cat, sources, graph, seed=7)


def test_each_sample_masks_exactly_one_site(env, mask_ds):
    cat, sources, _g, payloads, _props = env
    assert len(mask_ds.samples) == 296
    for s in mask_ds.samples:
        tokens = s.payload.split(" ")
        assert tokens.count(MASK_TOKEN) == 1
        k = s.meta["token_index"]
        assert tokens[k] == MASK_TOKEN


def test_unmasking_recovers_the_original_tokens(env, mask_ds):
    cat, sources, _g, payloads, _props = env
    for s in mask_ds.samples:
        assert unmask_payload(s) == payloads[s.method_id]


def test_mask_strata_come_from_the_call_graph(env, mask_ds):
    cat, _sources, graph, _payloads, _props = env
    edge_at = {(e.caller, e.line, e.col): e.call_type for e in graph.edges}
    for s in mask_ds.samples:
        key = (s.method_id, s.meta["line"], s.meta["col"])
        assert s.stratum == edge_at.get(key, "API")


def test_masking_is_reproducible_and_seed_sensitive(env, mask_ds):
    cat, sources, graph, _payloads, _props = env
    again = make_call_masking_task(cat, sources, graph, seed=7)
    assert [s.payload for s in again.samples] == \
        [s.payload for s in mask_ds.samples]
    assert [s.split for s in again.samples] == \
        [s.split for s in mask_ds.samples]
    other = make_call_masking_task(cat, sources, graph, seed=8)
    assert [s.payload for s in other.samples] != \
        [s.payload for s in mask_ds.samples]


def test_constructor_sites_are_opt_in(env, mask_ds):
    cat, sources, graph, _payloads, _props = env
    with_ctors = make_call_masking_task(cat, sources, graph, seed=7,
                                        include_constructors=True)
    assert {s.method_id for s in mask_ds.samples} <= \
        {s.method_id for s in with_ctors.samples}
    assert len(with_ctors.samples) >= len(mask_ds.samples)


def test_masked_sites_match_the_previous_scan_and_find_their_edges(
        both_corpora):
    datas = list(both_corpora)
    cat = merged_catalog(datas)
    sources = all_sources(datas)
    graph = build_callgraph(datas)          # constructors included
    edge_at = {(e.caller, e.line, e.col): e for e in graph.edges}
    for ctors in (False, True):
        for seed in range(3):
            ds = make_call_masking_task(cat, sources, graph, seed=seed,
                                        include_constructors=ctors)
            rng = random.Random(seed)
            want = []
            for meta in cat.methods:
                method = sources[meta.method_id]
                sites = mask_sites_oracle(method, ctors)
                if sites:
                    term, pos, name = sites[rng.randrange(len(sites))]
                    tok = method.ast.token(term)
                    want.append((meta.method_id, pos, name, tok.line, tok.col))
            assert [(s.method_id, s.meta["token_index"], s.label,
                     s.meta["line"], s.meta["col"])
                    for s in ds.samples] == want
            for s in ds.samples:
                edge = edge_at[(s.method_id, s.meta["line"], s.meta["col"])]
                assert edge.callee_name == s.label
                assert s.stratum == edge.call_type


def test_unmask_requires_the_recorded_position():
    s = TaskSample("s0", "m", "a b c", "b")
    with pytest.raises(InvalidArgumentError):
        unmask_payload(s)


# ---------------------------------------------------------------------------
# Context augmentation
# ---------------------------------------------------------------------------

def _sample_for(ds, mid):
    return next(s for s in ds.samples if s.method_id == mid)


def _mid(cat, file_suffix, signature):
    return next(m.method_id for m in cat.methods
                if m.method_path.endswith(file_suffix)
                and m.method_signature == signature)


def test_augment_appends_sorted_neighbor_names(env, mask_ds):
    cat, _sources, graph, _payloads, _props = env
    main = _mid(cat, "app/A.java", "main()")
    s = _sample_for(mask_ds, main)
    bundle = n_hop_context(graph, main, 1)
    out = augment_with_context(s, bundle)
    names = {"helper", "util", "fmt", "format"} - {s.label}
    assert out.payload == s.payload + f" {CTX_TOKEN} " + " ".join(sorted(names))
    assert out.label == s.label


def test_augment_keeps_labels_that_repeat_in_context(env, mask_ds):
    cat, _sources, graph, _payloads, _props = env
    go = _mid(cat, "text/Over.java", "go()")
    s = _sample_for(mask_ds, go)
    assert s.label == "f"              # both call sites name the overload set
    bundle = n_hop_context(graph, go, 1)
    out = augment_with_context(s, bundle)
    assert out.payload.endswith(f"{CTX_TOKEN} f")


def test_augment_is_idempotent_and_validates_the_center(env, mask_ds):
    cat, _sources, graph, _payloads, _props = env
    main = _mid(cat, "app/A.java", "main()")
    s = _sample_for(mask_ds, main)
    bundle = n_hop_context(graph, main, 1)
    once = augment_with_context(s, bundle)
    assert augment_with_context(once, bundle) == once
    other = n_hop_context(graph, _mid(cat, "app/A.java", "helper()"), 1)
    with pytest.raises(InvalidArgumentError):
        augment_with_context(s, other)


def test_augment_can_keep_the_masked_label(env, mask_ds):
    cat, _sources, graph, _payloads, _props = env
    main = _mid(cat, "app/A.java", "main()")
    s = _sample_for(mask_ds, main)
    bundle = n_hop_context(graph, main, 1)
    out = augment_with_context(s, bundle, exclude_masked_label=False)
    tail = out.payload.split(f"{CTX_TOKEN} ")[1]
    assert tail == " ".join(sorted({"helper", "util", "fmt", "format"}))


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------

def test_mutation_with_certain_coin_mutates_every_eligible_method(env):
    cat, sources, _g, payloads, _props = env
    ds = make_mutation_task(cat, sources, p_mutate=1.0, seed=0)
    counts = Counter(s.label for s in ds.samples)
    assert counts == {"clean": 707, "mutated": 67}
    assert len(ds.samples) == len(cat.methods)
    for s in ds.samples:
        original = payloads[s.method_id]
        if s.label == "mutated":
            assert s.payload != original
            assert sorted(s.payload.split(" ")) == sorted(original.split(" "))
        else:
            assert s.payload == original


def test_mutation_swaps_the_argument_tokens(env):
    cat, sources, _g, _payloads, _props = env
    ds = make_mutation_task(cat, sources, p_mutate=1.0, seed=0)
    pkg_only = _sample_for(ds, _mid(cat, "text/Solo.java", "packageOnly()"))
    assert pkg_only.label == "mutated"
    assert "( 3 , 2 )" in pkg_only.payload        # new Box(2, 3) swapped
    zero = _sample_for(ds, _mid(cat, "calc/Calc.java", "zero()"))
    assert zero.label == "clean"


def test_mutation_swaps_whole_argument_token_spans(env):
    # a swapped span runs from an argument's first terminal to its last
    cat, sources, _g, _payloads, _props = env
    ds = make_mutation_task(cat, sources, p_mutate=1.0, seed=0)
    widest = 0
    for s in ds.samples:
        if s.label != "mutated":
            continue
        ast = sources[s.method_id].ast
        order = ast.terminals()
        pos = {t: k for k, t in enumerate(order)}
        x, y = s.meta["arg_positions"]
        spans = [tuple((pos[ast.terminals(a)[0]], pos[ast.terminals(a)[-1]] + 1)
                       for a in (args[x], args[y]))
                 for _node, args in swap_sites_oracle(sources[s.method_id])
                 if len(args) > y]
        assert s.meta["token_spans"] in spans, s.method_id
        (a1, b1), (a2, b2) = s.meta["token_spans"]
        lexemes = [ast.lexeme(t) for t in order]
        assert s.payload == " ".join(
            lexemes[:a1] + lexemes[a2:b2] + lexemes[b1:a2] + lexemes[a1:b1]
            + lexemes[b2:])
        widest = max(widest, b1 - a1, b2 - a2)
    assert widest > 1


def test_mutation_probability_is_validated(env):
    cat, sources, _g, _payloads, _props = env
    for p in (0, -0.5, 1.5):
        with pytest.raises(InvalidArgumentError):
            make_mutation_task(cat, sources, p_mutate=p)


def test_mutation_is_reproducible(env):
    cat, sources, _g, _payloads, _props = env
    a = make_mutation_task(cat, sources, p_mutate=0.5, seed=11)
    b = make_mutation_task(cat, sources, p_mutate=0.5, seed=11)
    assert [(s.label, s.payload) for s in a.samples] == \
        [(s.label, s.payload) for s in b.samples]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _toy_dataset():
    return TaskDataset([
        TaskSample("s0", "m0", "p", "x", "Local", "A", split="test"),
        TaskSample("s1", "m1", "p", "y", "Local", "A", split="test"),
        TaskSample("s2", "m2", "p", "x", "API", "B", split="test"),
        TaskSample("s3", "m3", "p", "x", "API", "B", split="test"),
        TaskSample("s4", "m4", "p", "y", "Local", "A", split="train"),
        TaskSample("s5", "m5", "p", "x", "Local", "B", split="train"),
    ])


def _move(ds, src, dst):
    for s in ds.samples:
        if s.split == src:
            s.split = dst


def test_exact_match_scores_strata_and_buckets():
    ds = _toy_dataset()
    preds = {"s0": "x", "s1": "x", "m2": "x"}   # s3 missing, s1 wrong
    result = evaluate_exact_match(ds, preds)
    assert result["n"] == 4
    assert result["overall"] == pytest.approx(0.5)
    assert result["missing"] == 1
    assert result["per_stratum"]["Local"] == {"n": 2, "accuracy": 0.5}
    assert result["per_stratum"]["API"] == {"n": 2, "accuracy": 0.5}
    assert result["per_bucket"]["A"] == {"n": 2, "accuracy": 0.5}
    # stratum splits recombine to the overall accuracy
    total = sum(v["n"] * v["accuracy"] for v in result["per_stratum"].values())
    assert total / result["n"] == pytest.approx(result["overall"], abs=1e-9)


def test_exact_match_requires_a_test_split():
    ds = _toy_dataset()
    _move(ds, "test", "valid")
    with pytest.raises(InvalidArgumentError):
        evaluate_exact_match(ds, {})


def test_most_frequent_baseline_breaks_ties_lexicographically():
    ds = _toy_dataset()                 # train labels: y, x (tied at 1)
    preds = baseline_most_frequent(ds)
    assert set(preds) == {"s0", "s1", "s2", "s3"}
    assert set(preds.values()) == {"x"}

    _move(ds, "train", "valid")
    with pytest.raises(InvalidArgumentError):
        baseline_most_frequent(ds)


def test_context_unigram_baseline_reads_the_ctx_section():
    ds = TaskDataset([
        TaskSample("s0", "m0", "q r", "wrap", split="test"),
        TaskSample("s1", "m1", f"a b {CTX_TOKEN} flip wrap", "flip",
                   split="test"),
        TaskSample("s2", "m2", f"a b {CTX_TOKEN} zzz", "wrap", split="test"),
        TaskSample("s3", "m3", "wrap q", "wrap", split="test"),
        TaskSample("s4", "m4", "p", "wrap", split="train"),
        TaskSample("s5", "m5", "p", "wrap", split="train"),
        TaskSample("s6", "m6", "p", "flip", split="train"),
    ])
    preds = baseline_context_unigram(ds)
    assert preds["s1"] == "wrap"        # ctx candidates; wrap trains 2 > flip 1
    assert preds["s2"] == "wrap"        # no scored candidate: global fallback
    assert preds["s3"] == "wrap"        # payload token seen in training
    assert preds["s0"] == "wrap"        # nothing scored: fallback again


def test_real_baselines_recombine_on_the_masked_dataset(env, mask_ds):
    result = evaluate_exact_match(mask_ds, baseline_most_frequent(mask_ds))
    total = sum(v["n"] * v["accuracy"] for v in result["per_stratum"].values())
    assert total / result["n"] == pytest.approx(result["overall"], abs=1e-9)
    total_b = sum(v["n"] * v["accuracy"] for v in result["per_bucket"].values())
    assert total_b / result["n"] == pytest.approx(result["overall"], abs=1e-9)


# ---------------------------------------------------------------------------
# Bias table
# ---------------------------------------------------------------------------

def test_bias_table_bins_by_hand():
    sloc = {"a": 3, "b": 7, "c": 15, "d": 30, "e": 60, "f": 12, "g": 5}
    cmpx = {"a": 1, "b": 2, "c": 5, "d": 9, "e": 1, "f": 3}   # g missing
    rows, cols, matrix = bias_table(sloc, cmpx)
    assert rows == ["1-5", "6-10", "11-20", "21-50", "51+"]
    assert cols == ["1", "2", "3", "5+"]
    assert matrix == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ]
    assert sum(map(sum, matrix)) == 6   # g skipped: no complexity value


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_task_csv_roundtrip(tmp_path, env, mask_ds):
    path = tmp_path / "task.csv"
    write_task_csv(path, mask_ds)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(TASK_HEADER)

    back = read_task_csv(path)
    assert len(back.samples) == len(mask_ds.samples)
    for a, b in zip(back.samples, mask_ds.samples):
        assert (a.sample_id, a.method_id, a.payload, a.label,
                a.stratum, a.size_bucket, a.split) == \
            (b.sample_id, b.method_id, b.payload, b.label,
             b.stratum, b.size_bucket, b.split)
        assert a.meta == {}             # positions live in memory only


def test_task_csv_rejects_bad_shapes(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_task_csv(bad)
    wrong_split = tmp_path / "split.csv"
    wrong_split.write_text(
        ",".join(TASK_HEADER) + "\ns0,m0,dev,,A,x,p\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_task_csv(wrong_split)
