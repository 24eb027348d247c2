"""Named finite-difference checks for every differentiable op and preset.

Each check builds a small float64 problem, compares tape gradients against
central differences, and reports the worst relative error. Inputs for the
piecewise ops (relu, maxpool) are sampled away from their kinks so the
finite-difference probe stays on one linear piece.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import models
from .errors import ConfigError
from .loss import compute_class_weights, weighted_bce

TOLERANCE = 1e-4


def _probe(rng: np.random.Generator, shape):
    """Fixed projection onto a scalar; drawn once so f stays one function."""
    weights = ad.Tensor(rng.standard_normal(shape))
    return lambda out: ad.tsum(ad.mul(out, weights))


def _check_matmul() -> float:
    rng = np.random.default_rng(101)
    a = ad.Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
    b = ad.Tensor(rng.standard_normal((4, 2)), dtype=np.float64)
    proj = _probe(rng, (3, 2))
    return ad.grad_check(lambda x, y: proj(ad.matmul(x, y)), [a, b])


def _check_maxpool() -> float:
    rng = np.random.default_rng(103)
    # distinct spaced values: no ties, no near-ties within the probe step
    x = ad.Tensor(rng.permutation(36).reshape(2, 9, 2) * 0.25, dtype=np.float64)
    proj = _probe(rng, (2, 4, 2))
    return ad.grad_check(lambda x_: proj(ad.maxpool1d(x_, 2)), x)


def _check_relu() -> float:
    rng = np.random.default_rng(104)
    vals = rng.uniform(0.2, 2.0, 12) * rng.choice([-1.0, 1.0], 12)
    x = ad.Tensor(vals, dtype=np.float64)
    proj = _probe(rng, (12,))
    return ad.grad_check(lambda x_: proj(ad.relu(x_)), x)


def _check_sigmoid() -> float:
    rng = np.random.default_rng(105)
    x = ad.Tensor(rng.standard_normal(12), dtype=np.float64)
    proj = _probe(rng, (12,))
    return ad.grad_check(lambda x_: proj(ad.sigmoid(x_)), x)


def _check_add_mul() -> float:
    rng = np.random.default_rng(107)
    a = ad.Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
    b = ad.Tensor(rng.standard_normal(3), dtype=np.float64)
    proj = _probe(rng, (4, 3))

    def f(a_, b_):
        return proj(ad.mul(ad.add(a_, b_), a_))

    return ad.grad_check(f, [a, b])


def _check_batchnorm() -> float:
    rng = np.random.default_rng(109)
    x = ad.Tensor(rng.standard_normal((6, 4)), dtype=np.float64)
    sc = ad.Tensor(rng.uniform(0.5, 1.5, 4), dtype=np.float64)
    sh = ad.Tensor(rng.standard_normal(4), dtype=np.float64)
    proj = _probe(rng, (6, 4))

    def f(x_, sc_, sh_):
        return proj(ad.batchnorm(x_, sc_, sh_, np.zeros(4), np.ones(4), training=True))

    return ad.grad_check(f, [x, sc, sh])


def _check_embedding_matmul() -> float:
    """matmul of an embedding lookup, the one op that gathers the table's rows.

    The pad row is frozen, so the table is probed on pad-free ids; the weights
    are also probed on ids with pad columns at the end, which the op skips.
    """
    rng = np.random.default_rng(110)
    table = ad.Tensor(rng.standard_normal((7, 4)), dtype=np.float64)
    w = ad.Tensor(rng.standard_normal((20, 3)), dtype=np.float64)
    ids = rng.integers(1, 7, size=(3, 5))
    proj = _probe(rng, (3, 3))
    padded = np.where(np.arange(5) < 3, ids, 0)  # two trailing pad columns
    zero_pad = ad.Tensor(np.vstack([np.zeros((1, 4)), table.data[1:]]))
    return max(
        ad.grad_check(lambda t, w_: proj(ad.matmul(ad.embedding(t, ids, pad_id=0), w_)), [table, w]),
        ad.grad_check(lambda w_: proj(ad.matmul(ad.embedding(zero_pad, padded, pad_id=0), w_)), w),
    )


def _check_embedding_conv1d() -> float:
    """conv1d_valid on an embedding lookup, which it folds in."""
    rng = np.random.default_rng(114)
    table = ad.Tensor(rng.standard_normal((7, 3)), dtype=np.float64)
    k = ad.Tensor(rng.standard_normal((3, 3, 4)), dtype=np.float64)
    b = ad.Tensor(rng.standard_normal(4), dtype=np.float64)
    ids = rng.integers(1, 7, size=(2, 9))  # keep the frozen pad row unused
    proj = _probe(rng, (2, 7, 4))
    return ad.grad_check(
        lambda t, k_, b_: proj(ad.conv1d_valid(ad.embedding(t, ids, pad_id=0), k_, b_)),
        [table, k, b],
    )


def _check_embedding_lstm() -> float:
    """lstm on an embedding lookup, which it folds in."""
    rng = np.random.default_rng(115)
    table = ad.Tensor(rng.standard_normal((7, 3)) * 0.5, dtype=np.float64)
    wx = ad.Tensor(rng.standard_normal((3, 16)) * 0.4, dtype=np.float64)
    wh = ad.Tensor(rng.standard_normal((4, 16)) * 0.4, dtype=np.float64)
    b = ad.Tensor(rng.standard_normal(16) * 0.1, dtype=np.float64)
    ids = rng.integers(1, 7, size=(2, 5))  # keep the frozen pad row unused
    proj = _probe(rng, (2, 4))
    return ad.grad_check(
        lambda t, *w: proj(ad.lstm(ad.embedding(t, ids, pad_id=0), *w)), [table, wx, wh, b]
    )


def _check_lstm() -> float:
    rng = np.random.default_rng(111)
    x = ad.Tensor(rng.standard_normal((2, 5, 3)) * 0.5, dtype=np.float64)
    wx = ad.Tensor(rng.standard_normal((3, 16)) * 0.4, dtype=np.float64)
    wh = ad.Tensor(rng.standard_normal((4, 16)) * 0.4, dtype=np.float64)
    b = ad.Tensor(rng.standard_normal(16) * 0.1, dtype=np.float64)
    proj = _probe(rng, (2, 4))
    return ad.grad_check(lambda *args: proj(ad.lstm(*args)), [x, wx, wh, b])


def _check_weighted_bce() -> float:
    rng = np.random.default_rng(112)
    # the last two rows sit far on the wrong side, where a clamp would pass
    # no gradient
    logits = ad.Tensor(np.append(rng.uniform(-3.0, 3.0, 10), [30.0, -30.0]), dtype=np.float64)
    labels = np.append(rng.integers(0, 2, 10), [0, 1])
    w = compute_class_weights([30, 5], gamma=1.0)
    return ad.grad_check(lambda z: weighted_bce(z, labels, w), logits)


def _check_preset(preset: str) -> float:
    rng = np.random.default_rng(113)
    # seed 43 keeps every relu input comfortably away from its kink for all
    # four presets, so the finite-difference probe stays on one linear piece
    spec, params = models.build_model(
        preset, 13, 8, seed=43, dims=models.scaled_dims(), dtype=np.float64
    )
    ids = rng.integers(2, 13, size=(3, 8))  # pad-free: the pad row is frozen
    labels = np.array([0, 1, 1])
    w = compute_class_weights([2, 1], gamma=1.0)
    names = sorted(name for name, t in params.items() if t.requires_grad)

    def f(*leaves):
        for name, leaf in zip(names, leaves):
            params[name] = leaf
        logits = models.forward(
            spec, params, ids, mode="train", rng=np.random.default_rng(7)
        )
        return weighted_bce(logits, labels, w)

    return ad.grad_check(f, [params[n] for n in names])


_OP_CHECKS = {
    "matmul": _check_matmul,
    "maxpool1d": _check_maxpool,
    "relu": _check_relu,
    "sigmoid": _check_sigmoid,
    "add_mul_broadcast": _check_add_mul,
    "batchnorm": _check_batchnorm,
    "embedding_matmul": _check_embedding_matmul,
    "lstm": _check_lstm,
    "embedding_conv1d": _check_embedding_conv1d,
    "embedding_lstm": _check_embedding_lstm,
    "weighted_bce": _check_weighted_bce,
}


def run_checks(preset: str | None = None) -> dict[str, float]:
    """Errors per named check; all ops plus every preset unless one is named."""
    if preset is not None:
        if preset not in models.PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        return {f"preset_{preset}": _check_preset(preset)}
    results = {name: fn() for name, fn in _OP_CHECKS.items()}
    for p in models.PRESETS:
        results[f"preset_{p}"] = _check_preset(p)
    return results


def all_within_tolerance(results: dict[str, float]) -> bool:
    return all(err < TOLERANCE for err in results.values())
