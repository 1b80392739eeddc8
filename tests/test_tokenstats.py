"""Byte-level BPE training, encoding, and the size/window measurements.

The micro-corpus merge expectations are worked out by hand from the training
rule (most frequent adjacent pair, ties to the lexicographically smallest).
Whole merge lists are compared with a full-rescan oracle, on generated texts
and on the fixture and English corpora.
Roundtrip losslessness gets a property test over arbitrary unicode, since the
encoder must stay faithful even for bytes the training corpus never saw.
"""

import pytest
from hypothesis import given, settings, strategies as st

from codecorpus.errors import InputError, InvalidArgumentError
from codecorpus.lexer import lex
from codecorpus.pipeline import all_sources, merged_catalog, zip_classes
from codecorpus.tokenstats import (
    FIT_HEADER, SIZES_HEADER, WINDOW_THRESHOLDS, BpeVocab, bpe_decode,
    bpe_encode, bpe_encode_len, english_sample_text, entity_sizes, read_sizes_csv,
    read_vocab, tokenizer_ratio, train_bpe, window_fit, write_fit_csv,
    write_sizes_csv, write_vocab,
)

from oracles import bpe_merges_oracle, recount_fit


@pytest.fixture(scope="module")
def corpus_env(corpus_data):
    cat = merged_catalog(list(corpus_data))
    sources = all_sources(list(corpus_data))
    method_texts = {mid: m.text for mid, m in sources.items()}
    class_texts = {}
    for data in corpus_data:
        for cm, fv in zip_classes(data):
            class_texts[cm.class_id] = fv.source
    corpus_text = "".join(sorted(method_texts.values()))
    return cat, method_texts, class_texts, corpus_text


@pytest.fixture(scope="module")
def code_vocab(corpus_env):
    _cat, _m, _c, corpus_text = corpus_env
    return train_bpe(corpus_text, 512, corpus_tag="code")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_first_merge_is_the_most_frequent_pair():
    v = train_bpe("aaaa", 512)
    assert v.merges[0] == (b"a", b"a")
    assert b"aa" in v.vocab
    assert v.size == len(v.vocab)


def test_merge_ties_break_to_the_smallest_pair():
    # (a,b) and (c,d) both occur twice; (a,b) sorts first
    v = train_bpe("ababcdcd", 300)
    assert v.merges[0] == (b"a", b"b")


def test_training_stops_when_no_pair_repeats():
    v = train_bpe("abcdef", 512)
    assert v.merges == []
    assert v.size == 256


def test_training_validates_inputs():
    with pytest.raises(InvalidArgumentError):
        train_bpe("", 512)
    with pytest.raises(InvalidArgumentError):
        train_bpe("aaaa", 256)
    with pytest.raises(InvalidArgumentError):
        train_bpe("aaaa", 10)


def test_merges_never_cross_lines():
    # "ab" repeats but only ever split by the newline: no cross-line merge
    v = train_bpe("a\nb" * 10, 512)
    assert (b"\n", b"b") not in v.merges or all(
        b"a\n" != a + b for a, b in v.merges)
    enc = bpe_encode(v, "a\nb")
    assert bpe_decode(enc) == "a\nb"


# small alphabet with runs and repeats, multibyte characters and newlines,
# so that ties, overlapping pairs and shared merge sites are common
_PIECES = st.sampled_from(["a", "b", "c", "aaaa", "abab", "é", "€", "😀",
                           " ", "\n"])


@settings(max_examples=150, deadline=None)
@given(st.lists(_PIECES, min_size=1, max_size=40).map("".join),
       st.integers(min_value=257, max_value=300))
def test_training_matches_the_full_rescan_oracle(text, vocab_size):
    assert train_bpe(text, vocab_size).merges == \
        bpe_merges_oracle(text, vocab_size)


def test_fixture_vocab_matches_the_full_rescan_oracle(code_vocab, corpus_env):
    _cat, _m, _c, corpus_text = corpus_env
    assert code_vocab.merges == bpe_merges_oracle(corpus_text, 512)


def test_english_vocab_matches_the_full_rescan_oracle():
    text = english_sample_text()
    assert train_bpe(text, 512).merges == bpe_merges_oracle(text, 512)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def test_encode_applies_merges_and_decodes_back():
    v = train_bpe("aaaa", 512)
    assert bpe_encode(v, "aaaa") == [b"aa", b"aa"]
    assert bpe_decode(bpe_encode(v, "aaaa")) == "aaaa"
    # unseen bytes fall back to singletons
    assert bpe_decode(bpe_encode(v, "zq")) == "zq"


def test_encode_len_matches_encode(code_vocab, corpus_env):
    _cat, method_texts, _c, _t = corpus_env
    some = sorted(method_texts.values())[:25]
    for text in some:
        assert bpe_encode_len(code_vocab, text) == len(bpe_encode(code_vocab, text))


def test_roundtrip_over_the_whole_fixture_corpus(code_vocab, corpus_env):
    _cat, method_texts, _c, _t = corpus_env
    for text in method_texts.values():
        assert bpe_decode(bpe_encode(code_vocab, text)) == text


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_roundtrip_is_lossless_for_arbitrary_text(text):
    v = train_bpe("the quick brown fox\n" * 4, 300)
    assert bpe_decode(bpe_encode(v, text)) == text


# ---------------------------------------------------------------------------
# Subtoken ratios
# ---------------------------------------------------------------------------

def test_identity_encoder_scores_exactly_100(corpus_env):
    _cat, method_texts, _c, _t = corpus_env
    texts = sorted(method_texts.values())[:40]
    assert tokenizer_ratio(lex, texts) == 100.0


def test_code_vocab_beats_lexical_baseline_english_loses(code_vocab, corpus_env):
    _cat, method_texts, _c, corpus_text = corpus_env
    texts = sorted(method_texts.values())
    english = train_bpe(english_sample_text(), 512, corpus_tag="english")
    code_ratio = tokenizer_ratio(code_vocab, texts)
    english_ratio = tokenizer_ratio(english, texts)
    assert code_ratio < 100.0 < english_ratio


def test_pooled_ratio_weights_by_length(code_vocab):
    texts = ["int a;", "int doStuffNow(int value) { return value + 1; }"]
    pooled = tokenizer_ratio(code_vocab, texts, pooled=True)
    total_sub = sum(bpe_encode_len(code_vocab, t) for t in texts)
    total_lex = sum(len(lex(t)) for t in texts)
    assert pooled == pytest.approx(100.0 * total_sub / total_lex)
    assert pooled != tokenizer_ratio(code_vocab, texts)


def test_ratio_skips_tokenless_texts(code_vocab):
    mixed = ["", "   ", "// just a comment", "int a;"]
    only = tokenizer_ratio(code_vocab, mixed)
    assert only == tokenizer_ratio(code_vocab, ["int a;"])
    with pytest.raises(InvalidArgumentError):
        tokenizer_ratio(code_vocab, ["", "   "])


# ---------------------------------------------------------------------------
# Entity sizes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def size_records(corpus_env, code_vocab):
    cat, method_texts, class_texts, _t = corpus_env
    return entity_sizes(cat, method_texts, class_texts, code_vocab, "code")


def test_size_records_cover_all_granularities(corpus_env, size_records):
    cat, _m, _c, _t = corpus_env
    by_gran = {}
    for r in size_records:
        by_gran.setdefault(r.granularity, []).append(r)
    assert len(by_gran["method"]) == len(cat.methods) == 774
    assert len(by_gran["class"]) == len(cat.classes) == 201
    assert len(by_gran["package"]) == len(cat.packages) == 9
    assert len(by_gran["project"]) == len(cat.projects) == 7
    assert len(size_records) == 991
    assert all(r.tokenizer_tag == "code" for r in size_records)
    assert all(r.subtoken_count > 0 for r in size_records)


def test_aggregate_sizes_sum_their_classes(corpus_env, size_records):
    cat, _m, _c, _t = corpus_env
    class_size = {r.entity_id: r.subtoken_count for r in size_records
                  if r.granularity == "class"}
    pkg_expect, proj_expect = {}, {}
    for c in cat.classes:
        pkg_expect[c.package_id] = pkg_expect.get(c.package_id, 0) \
            + class_size[c.class_id]
        proj_expect[c.project_id] = proj_expect.get(c.project_id, 0) \
            + class_size[c.class_id]
    for r in size_records:
        if r.granularity == "package":
            assert r.subtoken_count == pkg_expect[r.entity_id]
        elif r.granularity == "project":
            assert r.subtoken_count == proj_expect[r.entity_id]


# ---------------------------------------------------------------------------
# Window fit
# ---------------------------------------------------------------------------

def test_fit_fractions_grow_with_the_window(size_records):
    table = window_fit(size_records)
    assert table.thresholds == WINDOW_THRESHOLDS
    for key, fracs in table.fractions.items():
        assert all(0.0 <= f <= 1.0 for f in fracs), key
        assert fracs == sorted(fracs), key
    huge = window_fit(size_records, thresholds=(10 ** 9,))
    assert all(fracs == [1.0] for fracs in huge.fractions.values())


def test_fit_matches_a_direct_recount(size_records):
    table = window_fit(size_records)
    want = recount_fit(size_records, WINDOW_THRESHOLDS)
    got = {(g, t): fracs for (g, t, bucket), fracs in table.fractions.items()}
    assert got == want


def test_bucketed_fit_groups_projects_by_size(corpus_env, size_records):
    cat, _m, _c, _t = corpus_env
    with pytest.raises(InvalidArgumentError):
        window_fit(size_records, buckets=True)
    table = window_fit(size_records, catalog=cat, buckets=True)
    project_buckets = {bucket for (g, _t2, bucket) in table.fractions
                       if g == "project"}
    assert project_buckets == {"A", "B", "C", "D"}
    other = {bucket for (g, _t2, bucket) in table.fractions if g != "project"}
    assert other == {""}


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def test_vocab_file_roundtrip(tmp_path, code_vocab):
    path = tmp_path / "vocab.txt"
    write_vocab(path, code_vocab)
    back = read_vocab(path, corpus_tag="code")
    assert back.merges == code_vocab.merges
    assert back.vocab == code_vocab.vocab
    assert back.corpus_tag == "code"
    sample = "int x = 1;"
    assert bpe_encode(back, sample) == bpe_encode(code_vocab, sample)


def test_empty_vocab_file_roundtrip(tmp_path):
    v = BpeVocab([], {bytes([b]) for b in range(256)}, 256, "")
    path = tmp_path / "empty.txt"
    write_vocab(path, v)
    assert path.read_text(encoding="utf-8") == ""
    assert read_vocab(path).size == 256


def test_sizes_csv_roundtrip(tmp_path, size_records):
    path = tmp_path / "sizes.csv"
    write_sizes_csv(path, size_records)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(SIZES_HEADER)
    back = read_sizes_csv(path)
    key = lambda r: (r.granularity, r.entity_id, r.tokenizer_tag)
    assert sorted(back, key=key) == sorted(size_records, key=key)

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_sizes_csv(bad)


@pytest.mark.parametrize("row, problem", [
    ("demo/A.java#f,method,code", "expected 4 fields, got 3"),
    ("demo/A.java#f,method,code,12x", "'12x' is not an integer"),
])
def test_sizes_csv_rejects_broken_rows_with_their_line(tmp_path, row,
                                                       problem):
    path = tmp_path / "sizes.csv"
    path.write_text(",".join(SIZES_HEADER) + "\ndemo,project,code,3\n"
                    + row + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"sizes.csv:3: .*{problem}"):
        read_sizes_csv(path)


def test_fit_csv_uses_fixed_point_fractions(tmp_path, size_records):
    path = tmp_path / "fit.csv"
    write_fit_csv(path, window_fit(size_records, thresholds=(10 ** 9,)))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(FIT_HEADER)
    assert all(line.endswith(",1.000000") for line in lines[1:])
    assert len(lines) == 1 + 4          # four granularities, one threshold


def test_english_sample_is_substantial():
    text = english_sample_text()
    assert len(text) > 2000
    assert text.count("\n") > 10
    assert lex("int x;")                # sanity: the lexer import is alive
