"""Path-context extraction against an all-pairs oracle and hand enumerations.

The bodyless-method example below was enumerated by hand: five terminals
give ten ordered pairs, of which the default width limit keeps exactly seven.
The frozen hash literals are sha256 prefixes of the rendered node paths,
computed independently of the implementation. `extract_paths_oracle` and
the two renderer oracles are the per-path implementations that the
ancestor-chain extraction and the shape-cached renderers replaced; the
property tests below hold the two to the same paths and strings.
"""

import random
import sys
import tracemalloc
from collections import Counter
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import fixture_with_statements, longgen, method_named

from codecorpus import pathcontexts
from codecorpus.errors import InvalidArgumentError
from codecorpus.parser import file_view
from codecorpus.pathcontexts import (
    MAX_CONTEXTS_DEFAULT, MAX_LENGTH_DEFAULT, MAX_WIDTH_DEFAULT,
    RENDER_CACHE_SIZE, RawPath, extract_paths, path_hash, render_path,
    subtokens, to_c2sq, to_c2vc,
)

from oracles import (all_path_contexts, extract_paths_oracle,
                     to_c2sq_oracle, to_c2vc_oracle)

NO_LIMIT = 10 ** 9


def _shapes(ast, paths):
    return {(p.start_terminal, p.end_terminal, render_path(p)) for p in paths}


# ---------------------------------------------------------------------------
# Hand-enumerated example: `int area();`
# ---------------------------------------------------------------------------

def test_bodyless_method_paths_by_hand(views):
    area = method_named(views["textzoo/text/Shape.java"], "area")
    paths = extract_paths(area.ast, max_contexts=NO_LIMIT)
    ast = area.ast
    got = [(ast.lexeme(p.start_terminal), ast.lexeme(p.end_terminal),
            render_path(p), p.length) for p in paths]
    # ten pairs total; (int,")"), (int,";"), (area,";") exceed width 2
    assert got == [
        ("int", "area", "Type↑MethodDecl", 2),
        ("int", "(", "Type↑MethodDecl", 2),
        ("area", "(", "MethodDecl", 1),
        ("area", ")", "MethodDecl", 1),
        ("(", ")", "MethodDecl", 1),
        ("(", ";", "MethodDecl", 1),
        (")", ";", "MethodDecl", 1),
    ]


def test_payload_formats_by_hand(views):
    area = method_named(views["textzoo/text/Shape.java"], "area")
    paths = extract_paths(area.ast, max_contexts=NO_LIMIT)
    h_type = "47a8b99ee18963aa"    # sha256("Type↑MethodDecl")[:16]
    h_decl = "ef917853ade919c8"    # sha256("MethodDecl")[:16]
    assert to_c2vc(area, paths) == (
        f"area int,{h_type},area int,{h_type},( area,{h_decl},("
        f" area,{h_decl},) (,{h_decl},) (,{h_decl},; ),{h_decl},;"
    )
    assert to_c2sq(area, paths) == (
        "area int,Type↑MethodDecl,area int,Type↑MethodDecl,("
        " area,MethodDecl,( area,MethodDecl,) (,MethodDecl,)"
        " (,MethodDecl,; ),MethodDecl,;"
    )


def test_path_hash_is_a_sha256_prefix_of_the_render(views):
    import hashlib
    m = method_named(views["metricsuite/calc/Calc.java"], "abs")
    for p in extract_paths(m.ast, max_contexts=NO_LIMIT):
        want = hashlib.sha256(render_path(p).encode("utf-8")).hexdigest()[:16]
        assert path_hash(p) == want
        assert len(path_hash(p)) == 16


# ---------------------------------------------------------------------------
# All-pairs oracle
# ---------------------------------------------------------------------------

ORACLE_SUBSET = ["flowlab/flow/Flow.java", "metricsuite/calc/Calc.java",
                 "demo/app/A.java", "textzoo/text/Box.java",
                 "textzoo/text/Helper.java", "textzoo/text/Literals.java"]


def _subset_methods(views):
    for rel in ORACLE_SUBSET:
        for cls in views[rel].classes:
            for m in cls.methods:
                yield rel, m


def test_unlimited_extraction_matches_all_pairs_oracle(views):
    for rel, m in _subset_methods(views):
        got = extract_paths(m.ast, max_length=NO_LIMIT,
                            max_width=NO_LIMIT, max_contexts=NO_LIMIT)
        assert _shapes(m.ast, got) == all_path_contexts(m.ast), (rel, m.name)


@pytest.mark.parametrize("max_width", [1, 2, 3])
@pytest.mark.parametrize("max_length", range(1, 11))
def test_every_window_matches_the_all_pairs_oracle(views, max_length,
                                                   max_width):
    for rel, m in _subset_methods(views):
        got = extract_paths(m.ast, max_length=max_length,
                            max_width=max_width, max_contexts=NO_LIMIT)
        want = all_path_contexts(m.ast, max_length=max_length,
                                 max_width=max_width)
        assert _shapes(m.ast, got) == want, (rel, m.name)


def test_limited_extraction_matches_limited_oracle(views):
    for name in ("grid", "branchy", "hits"):
        m = method_named(views["metricsuite/calc/Calc.java"], name)
        got = extract_paths(m.ast, max_contexts=NO_LIMIT)
        want = all_path_contexts(m.ast, max_length=MAX_LENGTH_DEFAULT,
                                 max_width=MAX_WIDTH_DEFAULT)
        assert _shapes(m.ast, got) == want, name
        assert all(p.length <= MAX_LENGTH_DEFAULT for p in got)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_is_seeded_and_source_ordered(views):
    m = method_named(views["metricsuite/calc/Calc.java"], "grid")
    full = extract_paths(m.ast, max_contexts=NO_LIMIT)
    assert len(full) > 25

    sampled = extract_paths(m.ast, max_contexts=25, seed=3)
    assert len(sampled) == 25
    # the sample is exactly what a fresh stdlib generator picks
    keep = sorted(random.Random(3).sample(range(len(full)), 25))
    assert sampled == [full[k] for k in keep]
    # order follows the original pair enumeration
    order = [(p.start_terminal, p.end_terminal) for p in sampled]
    assert order == sorted(order)

    assert extract_paths(m.ast, max_contexts=25, seed=3) == sampled
    assert extract_paths(m.ast, max_contexts=25, seed=4) != sampled


def test_sampling_picks_the_stdlib_sample_of_the_full_list(views,
                                                           monkeypatch):
    # the bench tracer counts capped calls from these constructions
    built = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(pathcontexts, "random",
                        SimpleNamespace(Random=CountingRandom))
    methods = [m for v in views.values() for c in v.classes
               for m in c.methods] + _LONG_METHODS
    capped = {1: 0, 25: 0, MAX_CONTEXTS_DEFAULT: 0}
    kept_edges = set()
    for m in methods:
        full = extract_paths(m.ast, max_contexts=NO_LIMIT)
        # where the start terminal or the level of the lca changes
        starts = {i for i in range(1, len(full))
                  if full[i].start_terminal != full[i - 1].start_terminal
                  or len(full[i].up_nodes) != len(full[i - 1].up_nodes)}
        for cap in capped:
            built.clear()
            got = extract_paths(m.ast, max_contexts=cap, seed=7)
            if len(full) <= cap:
                assert got == full and not built, (m.signature, cap)
                continue
            capped[cap] += 1
            assert built == [(7,)], (m.signature, cap)
            keep = sorted(random.Random(7).sample(range(len(full)), cap))
            assert got == [full[k] for k in keep], (m.signature, cap)
            if keep[0] == 0:
                kept_edges.add("first")
            if keep[-1] == len(full) - 1:
                kept_edges.add("last")
            if starts.intersection(keep):
                kept_edges.add("group start")
    assert all(capped.values()), capped
    assert kept_edges == {"first", "last", "group start"}


def test_every_long_method_keeps_the_stdlib_draw_over_its_full_list():
    """The sampled route: every kept index maps to the path at that index
    of the full list, however many kept indices share a group or a
    sibling's filtered ends."""
    checks = 0
    for m in _LONG_METHODS:
        full = extract_paths(m.ast, max_contexts=NO_LIMIT)
        for cap in (200, 50, len(full) - 1):
            for seed in (0, 11):
                keep = sorted(random.Random(seed).sample(range(len(full)),
                                                         cap))
                got = extract_paths(m.ast, max_contexts=cap, seed=seed)
                assert got == [full[k] for k in keep], (m.signature, cap, seed)
                checks += 1
    assert checks == 6 * len(_LONG_METHODS) == 144


def test_a_capped_method_builds_only_the_kept_paths():
    """Counting comes before building: on the largest long method the peak
    stays within what its groups and kept paths need, which a list of every
    admissible pair would exceed."""
    m = max(_LONG_METHODS, key=lambda m: len(m.ast.terminals()))
    admissible = len(extract_paths(m.ast, max_contexts=NO_LIMIT))
    # per terminal: max_length table entries and at most max_length x
    # max_width groups; 128 bytes per group covers both
    groups = len(m.ast.terminals()) * MAX_LENGTH_DEFAULT * MAX_WIDTH_DEFAULT
    bound = 128 * (groups + MAX_CONTEXTS_DEFAULT)
    assert admissible * sys.getsizeof((0, 0, 0, 0)) > bound
    extract_paths(m.ast, seed=5)    # fills the interpreter's tuple free lists
    tracemalloc.start()
    try:
        kept = extract_paths(m.ast, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept) == MAX_CONTEXTS_DEFAULT
    assert peak < bound, (peak, bound)


def test_no_sampling_below_the_cap(views):
    m = method_named(views["metricsuite/calc/Calc.java"], "zero")
    full = extract_paths(m.ast, max_contexts=NO_LIMIT)
    assert extract_paths(m.ast, max_contexts=len(full), seed=9) == full


def test_each_regime_matches_the_oracle_at_its_bound(views, scaled_corpus_data,
                                                     monkeypatch):
    """t terminals make at most t(t-1)/2 pairs: at or below that bound
    nothing is counted (no `within` table is accumulated), above it the
    pairs are counted, and only a count above the cap draws a sample (the
    bench tracer counts capped calls from the `random.Random`s built)."""
    built, counted = [], []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def counting_accumulate(values):
        counted.append(1)
        return accumulate(values)

    monkeypatch.setattr(pathcontexts, "random",
                        SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(pathcontexts, "accumulate", counting_accumulate)
    x4 = [m for d in scaled_corpus_data for m in d.sources.values()]
    fixture = [m for v in views.values() for c in v.classes
               for m in c.methods]
    # the long methods with fewest terminals: the oracle is slow on the rest
    longs = sorted(_LONG_METHODS, key=lambda m: len(m.ast.terminals()))[:6]
    regimes, seen = Counter(), set()
    for m in fixture + x4 + longs:
        # the x4 corpus repeats few method shapes; check each once
        shape = (tuple(m.ast.node_types), tuple(m.ast.parents),
                 tuple(tok.lexeme for tok in m.ast.tokens))
        if shape in seen:
            continue
        seen.add(shape)
        bound = _pair_bound(m)
        full = extract_paths_oracle(m.ast, max_contexts=NO_LIMIT)
        total = len(full)
        for cap in {bound, bound - 1, total, total - 1} - {0, -1}:
            built.clear()
            counted.clear()
            got = extract_paths(m.ast, max_contexts=cap, seed=11)
            want = full if total <= cap else extract_paths_oracle(
                m.ast, max_contexts=cap, seed=11)
            assert [_fields(p) for p in got] == [_fields(p) for p in want], \
                (m.signature, cap)
            assert bool(counted) == (bound > cap), (m.signature, cap)
            assert built == ([(11,)] if total > cap else []), \
                (m.signature, cap)
            regimes[bound > cap, total > cap] += 1
    # uncounted; counted within the cap; counted and sampled
    assert set(regimes) == {(False, False), (True, False), (True, True)}
    # at the default cap the x4 corpus takes both routes; long methods count
    assert {_pair_bound(m) > MAX_CONTEXTS_DEFAULT for m in x4} == {False, True}
    assert all(_pair_bound(m) > MAX_CONTEXTS_DEFAULT for m in _LONG_METHODS)


def _pair_bound(method):
    t = len(method.ast.terminals())
    return t * (t - 1) // 2


def test_limits_must_be_positive(views):
    m = method_named(views["metricsuite/calc/Calc.java"], "zero")
    for kwargs in ({"max_length": 0}, {"max_width": 0}, {"max_contexts": 0}):
        with pytest.raises(InvalidArgumentError):
            extract_paths(m.ast, **kwargs)


# ---------------------------------------------------------------------------
# Subtoken splitting
# ---------------------------------------------------------------------------

def test_subtokens_split_camel_case_and_fall_back_to_the_lexeme():
    assert subtokens("camelCase") == ["camel", "case"]
    assert subtokens("HTTPServer") == ["http", "server"]
    assert subtokens("max_value2") == ["max", "value2"]
    assert subtokens("x") == ["x"]
    assert subtokens("42") == ["42"]
    assert subtokens('"a b"') == ["a", "b"]
    assert subtokens("__") == ["__"]
    assert subtokens("(") == ["("]


def test_length_counts_internal_nodes_only():
    p = RawPath(3, 9, ("Binary", "Paren"), "IfStmt", ("Block",))
    assert p.length == 4
    assert render_path(p) == "Binary↑Paren↑IfStmt↓Block"


# ---------------------------------------------------------------------------
# The per-path oracle: same paths, same strings
# ---------------------------------------------------------------------------

def _long_methods():
    return [m for seed in (0, 1)
            for rel, text in sorted(longgen().generate(seed).items())
            for cls in file_view(text).classes for m in cls.methods]


_LONG_METHODS = _long_methods()
_mutated_fixture_methods = fixture_with_statements().flatmap(
    lambda view: st.sampled_from([m for cls in view.classes
                                  for m in cls.methods]))


def _fields(p):
    return (p.start_terminal, p.end_terminal, p.up_nodes, p.lca,
            p.down_nodes, p.length)


# No shrink phase: shrinking re-runs both extractions on long methods for
# minutes, so a failure is reported as drawn.
@settings(max_examples=200, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.one_of(_mutated_fixture_methods, st.sampled_from(_LONG_METHODS)),
       st.integers(1, 10), st.integers(1, 4),
       st.one_of(st.integers(1, 300), st.just(NO_LIMIT)),
       st.integers(0, 2 ** 32))
def test_paths_and_renders_match_the_per_path_oracle(method, max_length,
                                                     max_width, max_contexts,
                                                     seed):
    got = extract_paths(method.ast, max_length, max_width, max_contexts,
                        seed)
    want = extract_paths_oracle(method.ast, max_length, max_width,
                                max_contexts, seed)
    assert [_fields(p) for p in got] == [_fields(p) for p in want]
    assert to_c2vc(method, got) == to_c2vc_oracle(method, want)
    assert to_c2sq(method, got) == to_c2sq_oracle(method, want)


def test_default_paths_and_renders_match_the_oracle_everywhere(views):
    methods = [m for v in views.values() for c in v.classes
               for m in c.methods] + _LONG_METHODS
    for m in methods:
        got = extract_paths(m.ast, seed=5)
        want = extract_paths_oracle(m.ast, seed=5)
        assert [_fields(p) for p in got] == [_fields(p) for p in want], \
            m.signature
        assert to_c2vc(m, got) == to_c2vc_oracle(m, want), m.signature
        assert to_c2sq(m, got) == to_c2sq_oracle(m, want), m.signature


def test_renders_stay_right_past_the_cache_bound(views):
    area = method_named(views["textzoo/text/Shape.java"], "area")
    a, b = area.ast.terminals()[:2]
    paths = [RawPath(a, b, (f"Up{i}",), "Lca", (f"Down{i % 7}",))
             for i in range(RENDER_CACHE_SIZE + 50)]
    for chunk in (paths, paths[:50], paths):
        assert to_c2vc(area, chunk) == to_c2vc_oracle(area, chunk)
        assert to_c2sq(area, chunk) == to_c2sq_oracle(area, chunk)
    caches = [f for f in vars(pathcontexts).values()
              if hasattr(f, "cache_info")]
    assert len(caches) == 2
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == RENDER_CACHE_SIZE
        assert info.currsize <= RENDER_CACHE_SIZE
    shapes = pathcontexts._shape_strings.cache_info()
    assert shapes.currsize == RENDER_CACHE_SIZE
    pathcontexts.clear_render_caches()
    assert all(cache.cache_info().currsize == 0 for cache in caches)


def test_each_shape_renders_once(monkeypatch):
    """The hash of a shape is taken from the string just rendered: one
    `render_path` call per `_shape_strings` miss, not two."""
    calls = []

    def counting_render(p):
        calls.append(p)
        return render_path(p)

    monkeypatch.setattr(pathcontexts, "render_path", counting_render)
    m = max(_LONG_METHODS, key=lambda m: len(m.ast.terminals()))
    paths = extract_paths(m.ast, seed=5)
    pathcontexts.clear_render_caches()
    try:
        c2vc, c2sq = to_c2vc(m, paths), to_c2sq(m, paths)
        misses = pathcontexts._shape_strings.cache_info().misses
    finally:
        pathcontexts.clear_render_caches()
    assert (c2vc, c2sq) == (to_c2vc_oracle(m, paths), to_c2sq_oracle(m, paths))
    assert len({p[2:] for p in paths}) <= misses == len(calls)
