"""Character-level vocabulary, integer encoding, and n-gram counting.

Everything is lowercased: domains are case-insensitive and we keep one rule
across use cases. Sequences are prefix-truncated to max_len and right-padded;
id 0 is PAD, id 1 is OOV, real characters start at id 2 in lexicographic
order so rebuilding from the same corpus always yields the same mapping.
A batch of texts becomes a plain int64 ``[n, max_len]`` id matrix, the input
``models.forward`` reads.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import ConfigError, DataError

PAD_ID = 0
OOV_ID = 1

#: default sequence lengths per use case; short strings for domains and
#: urls, long ones for email bodies
DEFAULT_MAX_LEN = {"dga": 100, "url": 100, "email": 500}

#: multiset of character n-grams for one document
NgramCounts = Counter


class CharVocabulary:
    """Bijective char-to-id map with reserved PAD and OOV slots."""

    def __init__(self, chars):
        chars = tuple(chars)
        if len(set(chars)) != len(chars):
            raise DataError("vocabulary characters must be unique")
        if any(len(c) != 1 for c in chars):
            raise DataError("vocabulary entries must be single characters")
        self.chars = chars
        # code point -> id for encode_batch, OOV in every unfilled slot; the
        # last slot stands for every code point past the largest one. 8 bytes
        # a slot: ~1 KB for ASCII, at most ~8.9 MB for a vocabulary with U+10FFFF
        codes = [ord(c) for c in chars]
        self._id_of_code = np.full(max(codes, default=-1) + 2, OOV_ID, dtype=np.int64)
        self._id_of_code[codes] = np.arange(2, len(chars) + 2)

    @property
    def size(self) -> int:
        return len(self.chars) + 2

    def __eq__(self, other) -> bool:
        return isinstance(other, CharVocabulary) and self.chars == other.chars


def fit_vocab(corpus) -> CharVocabulary:
    """Collect the lowercased character set of a corpus, ids assigned sorted."""
    corpus = list(corpus)
    if not corpus:
        raise DataError("cannot fit a vocabulary on an empty corpus")
    seen = set()
    for text in corpus:
        seen.update(text.lower())
    return CharVocabulary(sorted(seen))


def encode_batch(texts, vocab: CharVocabulary, max_len: int) -> np.ndarray:
    """The int64 ``[n, max_len]`` id matrix of a batch of texts.

    Row i is text i lowercased, cut to its first ``max_len`` code points,
    each mapped to its vocabulary id (``OOV_ID`` if unknown), and right-padded
    with ``PAD_ID``. The kept prefixes are joined and looked up at once in the
    vocabulary's dense code-point table.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    heads = [t.lower()[:max_len] for t in texts]
    lengths = np.fromiter(map(len, heads), dtype=np.int64, count=len(heads))
    # surrogatepass: a lone surrogate becomes its own code point, as ord gives it
    codes = np.frombuffer("".join(heads).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    table = vocab._id_of_code
    ids = table[np.minimum(codes, table.size - 1)]
    out = np.full((len(heads), max_len), PAD_ID, dtype=np.int64)
    out[np.arange(max_len) < lengths[:, None]] = ids
    return out


def ngram_counts(text: str, n_lo: int, n_hi: int) -> NgramCounts:
    """All character n-grams with multiplicity for n in [n_lo, n_hi]."""
    if not 1 <= n_lo <= n_hi:
        raise ConfigError(f"bad n-gram range [{n_lo}, {n_hi}]")
    text = text.lower()
    longest = min(n_hi, len(text))  # no n-gram is longer than the text
    return Counter(
        [text[i : i + n] for n in range(n_lo, longest + 1) for i in range(len(text) - n + 1)]
    )
