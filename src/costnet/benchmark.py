"""Seeded imbalance benchmark: does minority up-weighting lift recall?

Trains the same preset twice per seed on a heavily imbalanced synthetic
corpus, once cost-insensitive (gamma=0) and once cost-sensitive (gamma=1),
and compares malicious-class recall on a balanced held-out split. The
generator's short malicious payloads overlap the legitimate length range, so
a few epochs at 20:1 imbalance leave real headroom for the weighted run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

from .data import GeneratorConfig, gen_synthetic
from .trainer import TrainConfig, evaluate, train

# the corpus and batching every benchmark run uses
_USE_CASE = "dga"
_BATCH_SIZE = 64
_LEGIT_RANGE = (1, 2)
_MALICIOUS_RANGE = (5, 9)
_DATA_SEED = 1234


@dataclass(frozen=True)
class BenchmarkSettings:
    n_legit_train: int = 10_000
    n_malicious_train: int = 500
    n_test_per_class: int = 1_000
    preset: str = "cnn"
    epochs: int = 10
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    # lr sits well below the training default on purpose: at 20:1 the 20x
    # minority weight makes 0.01 unstable, and a saturated baseline leaves
    # no recall headroom to measure; 5e-4 keeps both runs in the honest
    # underfit regime where the weighting has something to do
    learning_rate: float = 0.0005
    max_len: int = 40


def run_benchmark(settings: BenchmarkSettings | None = None) -> dict:
    """Per-seed recalls for both gamma values plus summary statistics."""
    s = settings or BenchmarkSettings()
    train_ds = gen_synthetic(
        GeneratorConfig(
            _USE_CASE, s.n_legit_train, s.n_malicious_train,
            seed=_DATA_SEED, split="train",
            legit_range=_LEGIT_RANGE, malicious_range=_MALICIOUS_RANGE,
        )
    )
    test_ds = gen_synthetic(
        GeneratorConfig(
            _USE_CASE, s.n_test_per_class, s.n_test_per_class,
            seed=_DATA_SEED + 1, split="test",
            legit_range=_LEGIT_RANGE, malicious_range=_MALICIOUS_RANGE,
        )
    )
    runs = []
    for seed in s.seeds:
        recalls = {}
        for gamma in (0.0, 1.0):
            cfg = TrainConfig(
                learning_rate=s.learning_rate,
                epochs=s.epochs,
                batch_size=_BATCH_SIZE,
                gamma=gamma,
                seed=seed,
                preset=s.preset,
                max_len=s.max_len,
            )
            ckpt, _ = train(train_ds, cfg)
            recalls[gamma] = evaluate(ckpt, test_ds)["recall"]
        runs.append(
            {
                "seed": seed,
                "recall_gamma0": recalls[0.0],
                "recall_gamma1": recalls[1.0],
                "difference": recalls[1.0] - recalls[0.0],
            }
        )
    diffs = [r["difference"] for r in runs]
    return {
        "runs": runs,
        "wins": sum(d >= 0 for d in diffs),
        "strict_wins": sum(d > 0 for d in diffs),
        "median_difference": median(diffs),
        "n_seeds": len(s.seeds),
    }
