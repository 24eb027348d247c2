import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from costnet.errors import ConfigError, DataError
from costnet.text import (
    OOV_ID,
    PAD_ID,
    CharVocabulary,
    encode_batch,
    fit_vocab,
    ngram_counts,
)

texts = st.text(alphabet=st.characters(codec="ascii", categories=["L", "N", "P"]), max_size=30)


def reference_ids(text, vocab, max_len):
    """The id rule one character at a time: lowercase, cut, map (unknown -> OOV), pad."""
    id_of = {c: i + 2 for i, c in enumerate(vocab.chars)}
    ids = [id_of.get(c, OOV_ID) for c in text.lower()[:max_len]]
    return ids + [PAD_ID] * (max_len - len(ids))


def encode_one(text, vocab, max_len):
    return encode_batch([text], vocab, max_len)[0].tolist()


def test_fit_vocab_basic():
    vocab = fit_vocab(["ab", "bc"])
    assert vocab.size == 5
    assert encode_one("abc", vocab, 3) == [2, 3, 4]


def test_fit_vocab_lowercases():
    assert fit_vocab(["AB"]).chars == fit_vocab(["ab"]).chars


def test_fit_vocab_order_independent():
    corpus = ["zebra", "apple", "mango"]
    assert fit_vocab(corpus) == fit_vocab(list(reversed(corpus)))


def test_fit_vocab_empty_corpus():
    with pytest.raises(DataError):
        fit_vocab([])


def test_encode_pads():
    vocab = fit_vocab(["ab", "bc"])
    assert encode_one("abc", vocab, 5) == [2, 3, 4, PAD_ID, PAD_ID]


def test_encode_prefix_truncates():
    vocab = fit_vocab(["abcdef"])
    assert encode_one("abcdef", vocab, 3) == encode_one("abcdef", vocab, 6)[:3]


def test_encode_unknown_char_is_oov():
    vocab = fit_vocab(["ab"])
    assert encode_one("aXb", vocab, 4) == [2, OOV_ID, 3, PAD_ID]


def test_encode_bad_max_len():
    # an empty batch is refused the same way: max_len is checked before any text
    with pytest.raises(ConfigError):
        encode_batch([], fit_vocab(["a"]), -1)


@given(text=texts.filter(lambda t: t))
def test_encode_decode_identity_on_known_prefix(text):
    vocab = fit_vocab([text])
    ids = encode_one(text, vocab, 10)
    decoded = "".join(vocab.chars[i - 2] for i in ids if i >= 2)
    assert decoded == text.lower()[:10]


def test_encode_batch_shapes():
    vocab = fit_vocab(["ab"])
    ids = encode_batch(["a", "abab"], vocab, 3)
    assert ids.shape == (2, 3) and ids.dtype == np.int64
    assert ids.tolist() == [reference_ids("a", vocab, 3), reference_ids("abab", vocab, 3)]
    assert encode_batch([], vocab, 3).shape == (0, 3)


# any code point, lone surrogates included
unicode_text = st.text(alphabet=st.characters(exclude_categories=()), max_size=20)


@given(
    batch=st.lists(unicode_text, max_size=6),
    chars=st.lists(st.characters(exclude_categories=()), unique=True, max_size=12),
    max_len=st.integers(1, 25),
)
@example(batch=["ΑΣ", "ǅ\U0001F600İx", "\ud800a\x00"], chars=["ς", "σ", "x", "\x00", "\ud800"], max_len=3)
def test_encode_batch_rows_are_encode_of_each_text(batch, chars, max_len):
    vocab = CharVocabulary(chars)
    expected = [reference_ids(t, vocab, max_len) for t in batch]
    assert encode_batch(batch, vocab, max_len).tolist() == expected


def test_encode_batch_bad_max_len():
    with pytest.raises(ConfigError):
        encode_batch(["a"], fit_vocab(["a"]), 0)


def test_ngram_counts_bigrams():
    assert dict(ngram_counts("abc", 2, 2)) == {"ab": 1, "bc": 1}


def test_ngram_counts_overlap():
    assert dict(ngram_counts("aaa", 1, 2)) == {"a": 3, "aa": 2}


def test_ngram_counts_empty_string():
    assert dict(ngram_counts("", 1, 3)) == {}


def test_ngram_counts_bad_range():
    with pytest.raises(ConfigError):
        ngram_counts("abc", 2, 1)
    with pytest.raises(ConfigError):
        ngram_counts("abc", 0, 1)


@given(text=texts)
def test_ngram_range_past_the_text_stops_at_its_length(text):
    # n_hi far beyond any text must not be looped over: this returns at once
    counts = ngram_counts(text, 1, 10**400)
    expected = ngram_counts(text, 1, max(1, len(text)))
    assert list(counts.items()) == list(expected.items())


@given(text=texts, n=st.integers(1, 5))
def test_ngram_total_is_length_minus_n_plus_one(text, n):
    counts = ngram_counts(text, n, n)
    assert sum(counts.values()) == max(0, len(text) - n + 1)


def test_vocab_invalid_entries():
    with pytest.raises(DataError):
        CharVocabulary(["ab"])
    with pytest.raises(DataError):
        CharVocabulary(["a", "a"])
