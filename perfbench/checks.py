"""Correctness checks computed apart from costnet.

Every check takes the program's output plus the inputs it was given and
recomputes the expected value with plain Python. A check returns ``None``
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math
from collections import Counter

#: weighted BCE of a constant 0.5 predictor under mean-1 class weights
LN2 = math.log(2.0)

#: a cold ``costnet predict`` must match the in-memory checkpoint this closely
PREDICT_TOL = 1e-6

#: and the naive_bayes probability must match the reference NB this closely
NB_TOL = 1e-9


def expected_class_weights(labels, gamma: float) -> list[float]:
    """(1/n_i)^gamma per class, rescaled so the count-weighted mean is 1."""
    n1 = sum(labels)
    counts = (len(labels) - n1, n1)
    raw = [(1.0 / n) ** gamma for n in counts]
    scale = len(labels) / sum(n * w for n, w in zip(counts, raw))
    return [w * scale for w in raw]


def check_class_weights(stored, labels, gamma: float) -> str | None:
    want = expected_class_weights(labels, gamma)
    if len(stored) != len(want) or not all(
        math.isclose(s, w, rel_tol=1e-12) for s, w in zip(stored, want)
    ):
        return f"class_weights {list(stored)} != expected {want}"
    return None


def check_loss(history) -> str | None:
    loss = history[-1]["loss"]
    if not loss < LN2:
        return f"last-epoch loss {loss:.6f} is not below ln 2"
    return None


def check_report(report: dict, labels) -> str | None:
    """Confusion counts match the held-out labels; scores recompute from them."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    tn, fp, fn, tp = (report[k] for k in ("tn", "fp", "fn", "tp"))
    if tn + fp != n_neg or fn + tp != n_pos:
        return f"confusion {tn, fp, fn, tp} does not cover {n_neg} negatives and {n_pos} positives"
    want = {
        "accuracy": 100.0 * (tp + tn) / len(labels),
        "precision": 100.0 * tp / (tp + fp) if tp + fp else 0.0,
        "recall": 100.0 * tp / (tp + fn) if tp + fn else 0.0,
    }
    for name, value in want.items():
        if not math.isclose(report[name], value, rel_tol=1e-12, abs_tol=1e-9):
            return f"{name} {report[name]} != {value} recomputed from the counts"
    return None


def check_cost_sensitivity(caught: dict[float, int]) -> str | None:
    """The paper's claim: gamma=1 catches at least as many minority rows as gamma=0."""
    if caught[1.0] < caught[0.0]:
        return f"gamma=1 caught {caught[1.0]} minority rows, gamma=0 caught {caught[0.0]}"
    return None


def check_prediction(payload: dict, expected: float, reference: float | None = None) -> str | None:
    """One ``costnet predict`` answer against the in-memory checkpoint's probability."""
    prob = payload.get("probability")
    label = payload.get("label")
    if not isinstance(prob, float) or label not in (0, 1):
        return f"malformed predict output {payload}"
    if label != int(prob >= 0.5):
        return f"label {label} disagrees with probability {prob}"
    if abs(prob - expected) > PREDICT_TOL:
        return f"probability {prob} differs from the in-memory checkpoint's {expected}"
    if reference is not None and abs(prob - reference) > NB_TOL:
        return f"probability {prob} differs from the reference naive bayes {reference}"
    return None


def _grams(text: str) -> list[str]:
    t = text.lower()
    return [t[i : i + n] for n in (1, 2) for i in range(len(t) - n + 1)]


class ReferenceNB:
    """Multinomial NB on char 1-2-grams with add-one smoothing, in plain Python.

    N-grams never seen in training are dropped when scoring.
    """

    def __init__(self, texts, labels):
        counts = [Counter(), Counter()]
        docs = [0, 0]
        for text, label in zip(texts, labels):
            counts[label].update(_grams(text))
            docs[label] += 1
        vocab = set(counts[0]) | set(counts[1])
        self.log_prior = [math.log(d / len(labels)) for d in docs]
        self.log_prob = []
        for c in counts:
            denom = math.log(sum(c.values()) + len(vocab))
            self.log_prob.append({g: math.log(c[g] + 1) - denom for g in vocab})

    def probability(self, text: str) -> float:
        score = list(self.log_prior)
        for g in _grams(text):
            if g in self.log_prob[0]:
                score[0] += self.log_prob[0][g]
                score[1] += self.log_prob[1][g]
        top = max(score)
        e0, e1 = math.exp(score[0] - top), math.exp(score[1] - top)
        return e1 / (e0 + e1)
