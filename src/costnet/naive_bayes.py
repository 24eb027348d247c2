"""Multinomial Naive Bayes over character n-gram counts.

Laplace-style additive smoothing with parameter alpha. Tokens unseen at
training time are dropped at prediction time (standard multinomial NB).
All probabilities live in log space as float64 so documents with millions of
tokens never underflow. Fitting and scoring take a whole batch of documents
as flat token arrays: one ``np.bincount`` builds the count table, and one per
class sums every document's log score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, is_number


@dataclass
class NaiveBayesModel:
    class_log_prior: np.ndarray  # [2], exp sums to 1
    token_log_prob: np.ndarray  # [2, vocab], per class exp sums to 1
    tokens: tuple[str, ...]  # column order
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {t: i for i, t in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise DataError("naive bayes tokens must be unique")


def _flatten(docs: Sequence[Mapping[str, int]]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Every document's tokens in order, as one list, with their counts and document rows."""
    grams = [tok for doc in docs for tok in doc]
    counts = np.fromiter((c for doc in docs for c in doc.values()), np.float64, len(grams))
    rows = np.repeat(np.arange(len(docs)), [len(doc) for doc in docs])
    return grams, counts, rows


def nb_train(
    documents: Sequence[Mapping[str, int]], labels, alpha: float = 1.0
) -> NaiveBayesModel:
    """Fit priors and smoothed token likelihoods from per-document counts."""
    if not (is_number(alpha) and alpha > 0):
        raise ConfigError(f"smoothing alpha must be finite and > 0, got {alpha}")
    y = np.asarray(labels)
    if len(documents) != y.shape[0]:
        raise DataError("documents and labels must align")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    if len(np.unique(y)) < 2:
        raise DataError("training data must contain both classes")

    grams, counts, rows = _flatten(documents)
    tokens = tuple(sorted(set(grams)))
    index = {t: i for i, t in enumerate(tokens)}
    v = len(tokens)
    cols = np.fromiter(map(index.__getitem__, grams), np.int64, len(grams))
    # whole-number counts sum exactly in float64, so the order of the sum is free
    cells = y.astype(np.int64)[rows] * v + cols
    table = np.bincount(cells, weights=counts, minlength=2 * v).reshape(2, v)

    totals = table.sum(axis=1, keepdims=True)
    log_prob = np.log(table + alpha) - np.log(totals + alpha * v)
    n = y.shape[0]
    prior = np.log(
        np.array([np.count_nonzero(y == 0), np.count_nonzero(y == 1)], dtype=np.float64) / n
    )
    return NaiveBayesModel(class_log_prior=prior, token_log_prob=log_prob, tokens=tokens)


def nb_positive_probability(
    model: NaiveBayesModel, docs: Sequence[Mapping[str, int]]
) -> np.ndarray:
    """Posterior of the positive (malicious/spam) class for each document.

    A class score is ``class_log_prior[k]`` plus ``count * token_log_prob[k,
    col]`` for each seen token, added in the document's token order. One
    ``np.bincount`` per class sums the whole batch; it adds in input order, so
    listing every prior before every token term keeps that order bit for bit.
    """
    grams, counts, rows = _flatten(docs)
    cols = np.array([model._index.get(tok, -1) for tok in grams], dtype=np.int64)
    seen = cols >= 0
    n = len(docs)
    bins = np.concatenate([np.arange(n), rows[seen]])
    counts, cols = counts[seen], cols[seen]
    s0, s1 = (
        np.bincount(bins, np.concatenate([np.full(n, prior), counts * log_prob[cols]]), n)
        for prior, log_prob in zip(model.class_log_prior, model.token_log_prob)
    )
    return np.exp(s1 - np.logaddexp(s0, s1))
