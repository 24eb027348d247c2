"""Multinomial Naive Bayes over character n-gram counts.

Laplace-style additive smoothing with parameter alpha. Tokens unseen at
training time are dropped at prediction time (standard multinomial NB).
All probabilities live in log space as float64 so documents with millions of
tokens never underflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class NaiveBayesModel:
    class_log_prior: np.ndarray  # [2], exp sums to 1
    token_log_prob: np.ndarray  # [2, vocab], per class exp sums to 1
    tokens: tuple[str, ...]  # column order
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {t: i for i, t in enumerate(self.tokens)}


def nb_train(
    documents: Sequence[Mapping[str, int]], labels, alpha: float = 1.0
) -> NaiveBayesModel:
    """Fit priors and smoothed token likelihoods from per-document counts."""
    if alpha <= 0:
        raise ConfigError(f"smoothing alpha must be > 0, got {alpha}")
    y = np.asarray(labels)
    if len(documents) != y.shape[0]:
        raise DataError("documents and labels must align")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    if len(np.unique(y)) < 2:
        raise DataError("training data must contain both classes")

    vocab: set[str] = set()
    for doc in documents:
        vocab.update(doc.keys())
    tokens = tuple(sorted(vocab))
    index = {t: i for i, t in enumerate(tokens)}

    counts = np.zeros((2, len(tokens)), dtype=np.float64)
    for doc, label in zip(documents, y):
        row = counts[int(label)]
        for tok, c in doc.items():
            row[index[tok]] += c

    totals = counts.sum(axis=1, keepdims=True)
    log_prob = np.log(counts + alpha) - np.log(totals + alpha * len(tokens))
    n = y.shape[0]
    prior = np.log(
        np.array([np.count_nonzero(y == 0), np.count_nonzero(y == 1)], dtype=np.float64) / n
    )
    return NaiveBayesModel(class_log_prior=prior, token_log_prob=log_prob, tokens=tokens)


def _log_scores(model: NaiveBayesModel, doc: Mapping[str, int]) -> np.ndarray:
    scores = model.class_log_prior.copy()
    for tok, c in doc.items():
        col = model._index.get(tok)
        if col is not None:
            scores += c * model.token_log_prob[:, col]
    return scores


def nb_positive_probability(model: NaiveBayesModel, doc: Mapping[str, int]) -> float:
    """Posterior of the positive (malicious/spam) class."""
    scores = _log_scores(model, doc)
    return float(np.exp(scores[1] - np.logaddexp(scores[0], scores[1])))
