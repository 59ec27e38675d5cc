"""Tests for vocabulary, BPE, tokenizer, and whole-word segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tokenization import (
    BpeCodec,
    Vocab,
    WholeWordSegmenter,
    WordTokenizer,
    basic_tokenize,
    learn_bpe,
    mine_special_tokens,
)
from repro.tokenization.vocab import CLS, SEP


class TestVocab:
    def test_core_specials_have_fixed_ids(self):
        v = Vocab()
        assert v.pad_id == 0
        assert v.unk_id == 1
        assert v.cls_id == 2
        assert v.sep_id == 3
        assert v.mask_id == 4

    def test_unknown_maps_to_unk(self):
        v = Vocab(["alarm"])
        assert v.token_to_id("nonexistent") == v.unk_id

    def test_roundtrip(self):
        v = Vocab(["alarm", "kpi"])
        ids = v.encode(["alarm", "kpi"])
        assert v.decode(ids) == ["alarm", "kpi"]

    def test_build_respects_min_freq(self):
        v = Vocab.build([["a", "a", "b"]], min_freq=2)
        assert "a" in v and "b" not in v

    def test_build_respects_max_size(self):
        sentences = [[f"tok{i}" for i in range(20)]]
        v = Vocab.build(sentences, max_size=10)
        assert len(v) == 10

    def test_add_special_tokens(self):
        v = Vocab()
        added = v.add_special_tokens(["[ALM]", "[KPI]"])
        assert added == 2
        assert v.is_special("[ALM]")
        assert v.token_to_id("[ALM]") in v.special_ids()

    def test_add_duplicate_token_is_noop(self):
        v = Vocab(["alarm"])
        assert v.add_tokens(["alarm"]) == 0

    def test_save_load_roundtrip(self, tmp_path):
        v = Vocab(["alarm"])
        v.add_special_tokens(["[ALM]"])
        path = tmp_path / "vocab.json"
        v.save(path)
        loaded = Vocab.load(path)
        assert len(loaded) == len(v)
        assert loaded.token_to_id("[ALM]") == v.token_to_id("[ALM]")
        assert loaded.is_special("[ALM]")


class TestBasicTokenize:
    def test_prompt_tokens_survive(self):
        tokens = basic_tokenize("[ALM] ALM-1001 | link failure")
        assert tokens[0] == "[ALM]"
        assert "|" in tokens

    def test_numbers_and_decimals(self):
        assert basic_tokenize("rate 0.95 count 42") == \
            ["rate", "0.95", "count", "42"]

    def test_hyphenated_jargon_kept_whole(self):
        assert "ALM-1001" in basic_tokenize("[ALM] ALM-1001")

    def test_lowercase_preserves_brackets(self):
        tokens = basic_tokenize("[KPI] Session Rate", lowercase=True)
        assert tokens == ["[KPI]", "session", "rate"]

    def test_punctuation_split(self):
        assert basic_tokenize("a,b") == ["a", ",", "b"]

    def test_empty(self):
        assert basic_tokenize("") == []


class TestBpe:
    WORDS = ["network"] * 30 + ["net"] * 5 + ["work"] * 5 + ["nf"] * 20

    def test_learn_produces_merges(self):
        merges = learn_bpe(self.WORDS, num_merges=10)
        assert merges
        assert all(isinstance(m, tuple) and len(m) == 2 for m in merges)

    def test_segment_frequent_word_merges_fully(self):
        merges = learn_bpe(self.WORDS, num_merges=50)
        codec = BpeCodec(merges)
        assert codec.segment("network") == ["network"]

    def test_segment_unseen_word_falls_back_to_chars(self):
        codec = BpeCodec([])
        assert codec.segment("xyz") == ["x", "y", "z"]

    def test_deterministic(self):
        m1 = learn_bpe(self.WORDS, num_merges=20)
        m2 = learn_bpe(self.WORDS, num_merges=20)
        assert m1 == m2

    def test_mine_special_tokens_filters(self):
        sentences = [["PGW", "handles", "sessions"]] * 20 + \
                    [["MME", "pages", "devices"]] * 20 + \
                    [["the", "verylongtokenname", "x"]] * 20
        mined = mine_special_tokens(sentences, base_vocabulary={"the", "x"},
                                    min_frequency=10, num_merges=200)
        assert "PGW" in mined
        assert "MME" in mined
        assert "verylongtokenname" not in mined  # too long
        assert "the" not in mined                # in base vocab
        assert "x" not in mined                  # too short

    def test_mine_respects_frequency(self):
        sentences = [["RAN"]] * 3
        mined = mine_special_tokens(sentences, base_vocabulary=set(),
                                    min_frequency=10)
        assert "RAN" not in mined


class TestWordTokenizer:
    def _tok(self):
        corpus = ["alarm link failure", "kpi session rate drop",
                  "alarm session drop"]
        return WordTokenizer.from_corpus(corpus, max_length=16)

    def test_encode_wraps_with_cls_sep(self):
        tok = self._tok()
        enc = tok.encode("alarm link failure")
        assert enc.tokens[0] == CLS
        assert enc.tokens[-1] == SEP
        assert len(enc.ids) == 5

    def test_truncation(self):
        tok = WordTokenizer.from_corpus(["a b c d e f g"], max_length=5)
        enc = tok.encode("a b c d e f g")
        assert len(enc.ids) == 5
        assert enc.tokens[-1] == SEP

    def test_batch_padding(self):
        tok = self._tok()
        ids, mask = tok.encode_batch(["alarm", "alarm link failure"])
        assert ids.shape == mask.shape
        assert mask[0].sum() == 3
        assert mask[1].sum() == 5
        assert (ids[0][mask[0] == 0] == tok.vocab.pad_id).all()

    def test_batch_pad_to_fixed(self):
        tok = self._tok()
        ids, _ = tok.encode_batch(["alarm"], pad_to=10)
        assert ids.shape == (1, 10)

    def test_decode_skips_special(self):
        tok = self._tok()
        enc = tok.encode("alarm link failure")
        assert tok.decode(enc.ids) == "alarm link failure"

    def test_oov_becomes_unk(self):
        tok = self._tok()
        enc = tok.encode("unseenword")
        assert tok.vocab.unk_id in enc.ids

    def test_max_length_validation(self):
        with pytest.raises(ValueError):
            WordTokenizer(Vocab(), max_length=2)


class TestWholeWordSegmenter:
    def test_multiword_phrase_grouped(self):
        seg = WholeWordSegmenter([["network", "congestion", "points"]])
        tokens = ["the", "network", "congestion", "points", "rose"]
        groups = seg.segment(tokens)
        assert [1, 2, 3] in groups
        assert [0] in groups and [4] in groups

    def test_longest_match_wins(self):
        seg = WholeWordSegmenter([["a", "b"], ["a", "b", "c"]])
        groups = seg.segment(["a", "b", "c"])
        assert groups == [[0, 1, 2]]

    def test_covers_all_indices_in_order(self):
        seg = WholeWordSegmenter([["x", "y"]])
        tokens = ["x", "y", "z", "x"]
        flat = [i for g in seg.segment(tokens) for i in g]
        assert flat == list(range(len(tokens)))

    def test_from_strings(self):
        seg = WholeWordSegmenter.from_strings(["dedicated control channel"])
        assert ["dedicated", "control", "channel"] in [
            ["dedicated", "control", "channel"]] and len(seg) == 1
        groups = seg.segment(["dedicated", "control", "channel"])
        assert groups == [[0, 1, 2]]

    def test_empty_phrase_raises(self):
        with pytest.raises(ValueError):
            WholeWordSegmenter([[]])

    def test_no_phrases_all_singletons(self):
        seg = WholeWordSegmenter()
        assert seg.segment(["a", "b"]) == [[0], [1]]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["alarm", "kpi", "link", "NF", "0.5", "|"]),
                min_size=1, max_size=20))
def test_tokenizer_roundtrip_known_tokens(words):
    text = " ".join(words)
    tok = WordTokenizer.from_corpus([text, "alarm kpi link NF 0.5 |"],
                                    max_length=64)
    enc = tok.encode(text)
    # Every non-special encoded token should decode back to the source word.
    body = [t for t in enc.tokens if t not in (CLS, SEP)]
    assert body == basic_tokenize(text)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10))
def test_bpe_segment_reconstructs_word(chars):
    word = "".join(chars)
    merges = learn_bpe([word] * 5 + ["abc"] * 3, num_merges=20)
    codec = BpeCodec(merges)
    assert "".join(codec.segment(word)) == word


def _reference_batch(tok, texts, pad_to):
    """Per-row ``encode`` plus the row-by-row pad: the batch reference."""
    encodings = [tok.encode(t) for t in texts]
    length = pad_to or max(len(e.ids) for e in encodings)
    ids = np.full((len(encodings), length), tok.vocab.pad_id, dtype=np.int64)
    mask = np.zeros((len(encodings), length), dtype=np.int64)
    for row, enc in enumerate(encodings):
        n = min(len(enc.ids), length)
        ids[row, :n] = enc.ids[:n]
        mask[row, :n] = enc.attention_mask[:n]
    return ids, mask, [e.tokens for e in encodings]


_WORDS = st.one_of(
    st.sampled_from(["alarm", "Alarm", "KPI", "kpi", "link", "failure",
                     "[ALM]", "[KPI]", "[ENT]", "[NOPE]", "|", "0.95", "42",
                     "unseenword", "Ünïcode", "告警", "ALM-1001", ",", ""]),
    st.text(max_size=12))
_TEXTS = st.lists(st.lists(_WORDS, max_size=24).map(" ".join),
                  min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(texts=_TEXTS,
       pad_to=st.one_of(st.none(), st.integers(1, 30)),
       max_length=st.integers(3, 16),
       lowercase=st.booleans())
def test_batch_encoding_matches_per_row_encode_and_pad(texts, pad_to,
                                                        max_length,
                                                        lowercase):
    """Values, int64 dtypes and token lists equal the reference, with
    rows cut at ``max_length`` and ``pad_to`` below or above them."""
    corpus = ["alarm link failure KPI 0.95 | ALM-1001", "告警 Ünïcode , 42"]
    vocab = WordTokenizer.from_corpus(corpus, lowercase=lowercase).vocab
    vocab.add_special_tokens(["[ALM]", "[KPI]", "[ENT]"])
    tok = WordTokenizer(vocab, max_length=max_length, lowercase=lowercase)
    want_ids, want_mask, want_tokens = _reference_batch(tok, texts, pad_to)
    ids, mask, tokens = tok.encode_batch_with_tokens(texts, pad_to=pad_to)
    assert ids.dtype == mask.dtype == np.int64
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(mask, want_mask)
    assert tokens == want_tokens
    plain_ids, plain_mask = tok.encode_batch(texts, pad_to=pad_to)
    assert plain_ids.dtype == plain_mask.dtype == np.int64
    np.testing.assert_array_equal(plain_ids, want_ids)
    np.testing.assert_array_equal(plain_mask, want_mask)
