"""Confusion-matrix accounting and the four reported statistics.

Positive class is malicious/spam (label 1), predicted when its probability
is at least ``THRESHOLD``. Scores are percentages.
Zero-denominator cases return 0 so degenerate classifiers still score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionMatrix:
    tn: int
    fp: int
    fn: int
    tp: int

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


def confusion(probs, labels) -> ConfusionMatrix:
    """Threshold probabilities (predict positive iff prob >= ``THRESHOLD``)."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ContractError(f"length mismatch: {p.shape} probs vs {y.shape} labels")
    if not np.isin(y, (0, 1)).all():
        raise ContractError("labels must be 0 or 1")
    pred = p >= THRESHOLD
    pos = y == 1
    return ConfusionMatrix(
        tn=int(np.count_nonzero(~pred & ~pos)),
        fp=int(np.count_nonzero(pred & ~pos)),
        fn=int(np.count_nonzero(~pred & pos)),
        tp=int(np.count_nonzero(pred & pos)),
    )


def scores(cm: ConfusionMatrix) -> dict[str, float]:
    """Accuracy, precision, recall, and F1 as percentages."""
    if cm.total <= 0:
        raise ContractError("cannot score an empty confusion matrix")
    accuracy = 100.0 * (cm.tp + cm.tn) / cm.total
    precision = 100.0 * cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = 100.0 * cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def metrics_report(cm: ConfusionMatrix) -> dict[str, float | int]:
    """Flat JSON-ready dict: the four scores plus the raw counts."""
    out: dict[str, float | int] = dict(scores(cm))
    out.update(tn=cm.tn, fp=cm.fp, fn=cm.fn, tp=cm.tp)
    return out
