"""Per-class misclassification costs and the weighted binary cross-entropy.

Class i gets raw cost (1/n_i)^gamma from its training count n_i. gamma=0
collapses to the unweighted loss (all costs exactly 1.0); gamma=1 makes the
cost inversely proportional to class size. Normalized costs are rescaled so
the dataset-mean per-sample weight is 1, which keeps the effective learning
rate comparable across gamma values; raw mode keeps the literal costs.
The loss reads the model's logit, not its probability, so it needs no clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, DataError, is_number


@dataclass(frozen=True)
class ClassWeights:
    """Per-class costs in label order [legitimate=0, malicious/spam=1]."""

    counts: tuple[int, ...]
    gamma: float
    raw: tuple[float, ...]
    normalized: tuple[float, ...]
    normalize_flag: bool

    def weights(self) -> tuple[float, ...]:
        """The costs the loss applies: normalized or raw, as ``normalize_flag`` says."""
        return self.normalized if self.normalize_flag else self.raw


def compute_class_weights(counts, gamma: float, normalize: bool = True) -> ClassWeights:
    """Raw cost (1/n_i)^gamma per class, plus the mean-1 rescaled variant."""
    counts = tuple(int(c) for c in counts)
    if any(c < 1 for c in counts):
        raise DataError(f"class counts must all be >= 1, got {counts}")
    if not is_number(sum(counts)):
        raise DataError("class counts must sum to within float range")
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must be in [0, 1], got {gamma}")
    raw = tuple((1.0 / c) ** gamma for c in counts)
    total = sum(counts)
    scale = total / sum(c * w for c, w in zip(counts, raw))
    normalized = tuple(w * scale for w in raw)
    return ClassWeights(
        counts=counts,
        gamma=gamma,
        raw=raw,
        normalized=normalized,
        normalize_flag=normalize,
    )


def weighted_bce(logits: ad.Tensor, labels, weights: ClassWeights) -> ad.Tensor:
    """Mean over the batch of w_y * (-y ln p - (1-y) ln(1-p)), p = sigmoid(logit).

    Takes the model's logits and differentiates through them. It is evaluated
    as w_y * (ln(1 + e^z) - y z) by ``ad.bce_with_logits``: finite at every
    logit, with gradient w_y * (p - y) / n, so a confidently wrong row gets the
    largest gradient rather than none.
    """
    y = np.asarray(labels)
    if logits.data.ndim != 1 or y.shape != logits.shape:
        raise ContractError(
            f"logits and labels must be aligned vectors, got {logits.shape} and {y.shape}"
        )
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    w = weights.weights()
    if y.max(initial=0) >= len(w):
        raise DataError("weights missing an entry for a present class")
    return ad.bce_with_logits(logits, y, np.asarray(w, logits.dtype)[y.astype(np.intp)])
