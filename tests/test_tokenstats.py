"""Byte-level BPE training, encoding, and the size/window measurements.

The micro-corpus merge expectations are worked out by hand from the training
rule (most frequent adjacent pair, ties to the lexicographically smallest).
Whole merge lists and encodings are compared with full-rescan oracles, on
generated texts and on the fixture and English corpora.
Roundtrip losslessness gets a property test over arbitrary unicode, since the
encoder must stay faithful even for bytes the training corpus never saw.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from codecorpus.errors import InputError, InvalidArgumentError
from codecorpus.lexer import lex
from codecorpus.parser import split_lines
from codecorpus.pipeline import all_sources, merged_catalog
from codecorpus.tokenstats import (
    FIT_HEADER, SIZES_HEADER, WINDOW_THRESHOLDS, BpeVocab, bpe_decode,
    bpe_encode, bpe_encode_len, english_sample_text, entity_sizes, read_sizes_csv,
    tokenizer_ratio, train_bpe, window_fit, write_fit_csv, write_sizes_csv,
    write_vocab,
)

from oracles import bpe_encode_oracle, bpe_merges_oracle, recount_fit


@pytest.fixture(scope="module")
def corpus_env(corpus_data):
    cat = merged_catalog(list(corpus_data))
    sources = all_sources(list(corpus_data))
    method_texts = {mid: m.text for mid, m in sources.items()}
    class_texts = {cid: fv.source for data in corpus_data
                   for cid, fv in data.class_views.items()}
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


def test_lines_break_at_newline_only():
    # a form feed stays inside its line, as in the lexer's line count
    assert train_bpe("x\x0cy\n" * 10, 257).merges[0] == (b"\x0c", b"y")
    assert bpe_encode(train_bpe("a\rb\n" * 4, 300), "a\rb\n") == [b"a\rb\n"]


# small alphabet with runs and repeats, multibyte characters, newlines and
# other characters that `str.splitlines` breaks at, so that ties,
# overlapping pairs and shared merge sites are common
_PIECES = st.sampled_from(["a", "b", "c", "aaaa", "abab", "é", "€", "😀",
                           " ", "\n", "\r", "\x0c"])


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


def _assert_vocab_holds_the_merges(v):
    joined = {a + b for a, b in v.merges}
    assert v.vocab == {bytes([b]) for b in range(256)} | joined
    assert v.size == len(v.vocab)


@pytest.mark.parametrize("text, merges", [
    # (a,a) 15; (a,b) and (b,a) tie at 5 once (aa,aa) 6 is gone, then
    # (aa,\n), (aaaa,aa) and (ab,ab) tie at 3 and go in byte order
    ("aaaaaa\n" * 3 + "ababab\n" + "bababa\n",
     [(b"a", b"a"), (b"aa", b"aa"), (b"a", b"b"), (b"aa", b"\n"),
      (b"aaaa", b"aa\n"), (b"ab", b"ab")]),
    # (aa,aa) and (b,a) tie at 6: bytes order them, though "aa" is a
    # symbol made after "b"; then (ba,\n) and (baba,ba) tie at 2
    ("aaaaaa\n" * 3 + "bababa\n" * 2,
     [(b"a", b"a"), (b"aa", b"aa"), (b"b", b"a"), (b"ba", b"ba"),
      (b"aa", b"\n"), (b"aaaa", b"aa\n"), (b"ba", b"\n"),
      (b"baba", b"ba\n")]),
], ids=["overlapping-runs", "merged-symbol-tie"])
def test_weighted_ties_break_to_the_smallest_byte_pair(text, merges):
    v = train_bpe(text, 300)
    assert v.merges == merges == bpe_merges_oracle(text, 300)
    _assert_vocab_holds_the_merges(v)


@settings(max_examples=100, deadline=None)
@given(st.lists(_PIECES, min_size=1, max_size=200).map("".join),
       st.integers(min_value=257, max_value=400))
def test_longer_training_matches_the_full_rescan_oracle(text, vocab_size):
    v = train_bpe(text, vocab_size)
    assert v.merges == bpe_merges_oracle(text, vocab_size)
    _assert_vocab_holds_the_merges(v)


def _method_text(datas) -> str:
    return "".join(m.text for _mid, m in sorted(all_sources(datas).items()))


def test_scaled_vocab_matches_the_full_rescan_oracle(scaled_corpus_data):
    text = _method_text(scaled_corpus_data)
    v = train_bpe(text, 512)
    assert v.merges == bpe_merges_oracle(text, 512)
    _assert_vocab_holds_the_merges(v)


def test_long_method_vocabs_match_the_full_rescan_oracle(longgen_corpus_data):
    for data in longgen_corpus_data:    # seeds 0 and 1
        text = _method_text([data])
        v = train_bpe(text, 512)
        assert len(v.merges) == 256
        assert v.merges == bpe_merges_oracle(text, 512)
        _assert_vocab_holds_the_merges(v)


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


@settings(max_examples=150, deadline=None)
@given(st.lists(_PIECES, min_size=1, max_size=40).map("".join),
       st.lists(_PIECES, max_size=40).map("".join),
       st.integers(min_value=257, max_value=300))
def test_encoding_matches_the_full_rescan_oracle(train, text, vocab_size):
    v = train_bpe(train, vocab_size)
    for sample in (train, text):
        want = bpe_encode_oracle(v, sample)
        assert bpe_encode(v, sample) == want
        assert bpe_encode_len(v, sample) == len(want)


# Operands for hand-ordered merge lists: bytes of the alphabet, strings
# that other merges may join (or that nothing joins), the two halves of
# "é", a CR and a CRLF.
_OPERANDS = st.sampled_from([b"a", b"b", b"c", b"ab", b"ba", b"aa", b"abc",
                             b"bab", b"\r", b"\r\n", b" ", b"\xc3",
                             b"\xa9", "é".encode(), b"zz"])
_VOCABS = st.one_of(
    st.builds(train_bpe, st.lists(_PIECES, min_size=1, max_size=30)
              .map("".join), st.integers(min_value=257, max_value=300)),
    st.lists(st.tuples(_OPERANDS, _OPERANDS), max_size=12).map(
        lambda merges: BpeVocab(merges, set(), 0, "")))
# lines of the alphabet, with CR, non-ASCII text and bytes no merge touches
_LINES = st.lists(st.one_of(_PIECES, st.sampled_from(["x", "ü", "\r\n"])),
                  max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(_VOCABS, _LINES)
@example(BpeVocab([(b"xy", b"a"), (b"a", b"b")], set(), 0, ""), "xyab\nab")
@example(BpeVocab([(b"a", b"b"), (b"b", b"c"), (b"ab", b"c"), (b"a", b"bc"),
                   (b"a", b"b")], set(), 0, ""), "abcabc\rbc\n")
@example(BpeVocab([(b"a", b"b"), (b"b", b"c"), (b"a", b"b")], set(), 0, ""),
         "abc")
@example(BpeVocab([(b"\xc3", b"\xa9"), ("é".encode(), b"a")], set(), 0, ""),
         "éaé\r\nxü")
def test_encoding_on_ids_matches_the_oracle_for_any_merge_list(v, text):
    """Trained and hand-ordered merge lists alike: merges listed before the
    merges that make their operands, merges whose operand nothing makes,
    two merges joining one string, and a pair listed twice."""
    want = bpe_encode_oracle(v, text)
    assert bpe_encode(v, text) == want
    assert bpe_encode_len(v, text) == len(want)
    assert bpe_encode_len(v, text) == len(want)     # from the line memo


def test_encoding_follows_rank_order_rounds():
    # a merge that ranks before the pair that creates its left symbol must
    # wait for the round that merges every occurrence of that pair
    v = BpeVocab([(b"ab", b"a"), (b"a", b"b")], set(), 0, "")
    for text in ("abab", "ababab", "aab", "abaab\nab"):
        assert bpe_encode(v, text) == bpe_encode_oracle(v, text), text
    assert bpe_encode(v, "abab") == [b"ab", b"ab"]


def test_fixture_encoding_matches_the_full_rescan_oracle(code_vocab,
                                                        corpus_env):
    corpus_text = corpus_env[3]
    assert bpe_encode(code_vocab, corpus_text) == \
        bpe_encode_oracle(code_vocab, corpus_text)


def _assert_recorded_counts_are_encodings(v, text):
    """`train_bpe` records every unique line of its training text, and
    each count is the line's symbol count under the rescan oracle."""
    assert v.size == 256 + len(v.merges)
    assert sorted(v._line_cache) == sorted(set(split_lines(text)))
    for line, n in v._line_cache.items():
        assert n == len(bpe_encode_oracle(v, line)), line


# repeated lines, so that lines carry weights
_TRAINING_TEXTS = st.lists(_LINES.map(lambda line: line + "\n"), min_size=1,
                           max_size=8).flatmap(
    lambda lines: st.lists(st.sampled_from(lines), min_size=1,
                           max_size=12)).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TRAINING_TEXTS,
                 st.lists(_PIECES, min_size=1, max_size=60).map("".join)),
       st.integers(min_value=257, max_value=320))
@example("aaaaaa\n" * 3 + "ababab\n" + "bababa\n", 300)
@example("abcdef", 512)             # stops at once: no pair repeats
@example("x\rab\r\nab\n" * 3 + "ab", 258)   # stops at the vocabulary size
def test_training_records_each_lines_encoded_count(text, vocab_size):
    _assert_recorded_counts_are_encodings(train_bpe(text, vocab_size), text)


def test_corpus_vocabs_record_each_lines_encoded_count(
        corpus_env, scaled_corpus_data, longgen_corpus_data):
    texts = [corpus_env[3], english_sample_text(),
             _method_text(scaled_corpus_data)]
    texts += [_method_text([data]) for data in longgen_corpus_data]
    for text in texts:
        _assert_recorded_counts_are_encodings(train_bpe(text, 512), text)


def test_encoding_the_training_text_adds_no_memo_entry(corpus_env):
    _cat, method_texts, _c, corpus_text = corpus_env
    v = train_bpe(corpus_text, 512)
    recorded = dict(v._line_cache)
    assert recorded
    for text in method_texts.values():
        bpe_encode_len(v, text)
    assert tokenizer_ratio(v, list(method_texts.values())) > 0
    assert v._line_cache == recorded


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


def test_given_token_counts_replace_lexing(code_vocab, corpus_env):
    _cat, method_texts, _c, _t = corpus_env
    texts = sorted(method_texts.values())
    counts = [len(lex(t)) for t in texts]
    for pooled in (False, True):
        assert tokenizer_ratio(code_vocab, texts, counts, pooled) == \
            tokenizer_ratio(code_vocab, texts, pooled=pooled)
    halved = tokenizer_ratio(code_vocab, ["int a;"], [6])
    assert halved == tokenizer_ratio(code_vocab, ["int a;"]) / 2


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
    table = window_fit(size_records, catalog=cat)
    project_buckets = {bucket for (g, _t2, bucket) in table.fractions
                       if g == "project"}
    assert project_buckets == {"A", "B", "C", "D"}
    other = {bucket for (g, _t2, bucket) in table.fractions if g != "project"}
    assert other == {""}


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def read_vocab(path, corpus_tag: str = "") -> BpeVocab:
    """A vocabulary back from the merge lines `write_vocab` wrote."""
    merges = []
    for line in path.read_text(encoding="utf-8").splitlines():
        a, b = line.split(" ")
        merges.append((bytes.fromhex(a), bytes.fromhex(b)))
    vocab = {bytes([x]) for x in range(256)} | {a + b for a, b in merges}
    return BpeVocab(merges, vocab, len(vocab), corpus_tag)


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
