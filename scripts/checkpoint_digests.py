#!/usr/bin/env python3
"""Print the sha256 of saved checkpoints and of their held-out probabilities as JSON.

Trains each neural preset at gamma 0 and 1, and naive bayes, on the corpora
of each perfbench workload (``perfbench/workloads.py``: ``dga-short`` and
``url-score``), with that workload's sizes and per-preset epochs, batch size
and learning rate. Each checkpoint is saved, loaded back and scored on its
held-out split. Two source trees that print the same object train, save and
score byte-identically at these settings. ``costnet`` is imported from the
Python path, so ``PYTHONPATH=<tree>/src`` digests another tree.

    python scripts/checkpoint_digests.py [--tiny] [--criterion-3]

``--criterion-3`` adds the ten checkpoints of the seeded imbalance benchmark
(acceptance criterion 3) and its summary. ``--tiny`` uses each workload's
``tiny()`` copy and smaller criterion-3 settings, for a quick check of the
script.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from costnet import benchmark, trainer
from costnet.data import GeneratorConfig, gen_synthetic
from costnet.models import PRESETS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

#: the train split is generated with seed 2 * SEED, the held-out split with 2 * SEED + 1
SEED = 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(ckpt, name: str, texts, work: Path) -> dict[str, str]:
    """The digests of a checkpoint's file and of the probabilities its reloaded copy gives."""
    path = work / f"{name.replace('/', '-')}.ckpt"
    trainer.save(ckpt, path)
    probs = np.ascontiguousarray(trainer.predict_probabilities(trainer.load(path), texts))
    return {f"{name}.ckpt": sha256(path.read_bytes()), f"{name}.probs": sha256(probs.tobytes())}


def workload_digests(w, work: Path) -> dict[str, str]:
    train_ds = gen_synthetic(GeneratorConfig(w.use_case, *w.train_counts, seed=2 * SEED, split="train"))
    test_ds = gen_synthetic(GeneratorConfig(w.use_case, *w.test_counts, seed=2 * SEED + 1, split="test"))
    out = digests(trainer.train_naive_bayes(train_ds), f"{w.name}/naive_bayes", test_ds.texts, work)
    for preset in PRESETS:
        epochs, batch_size, learning_rate = w.training[preset]
        for gamma in (0.0, 1.0):
            config = trainer.TrainConfig(
                learning_rate=learning_rate, epochs=epochs, batch_size=batch_size,
                gamma=gamma, seed=SEED, preset=preset, max_len=w.max_len,
            )
            ckpt, _ = trainer.train(train_ds, config)
            out.update(digests(ckpt, f"{w.name}/{preset}-gamma{gamma:g}", test_ds.texts, work))
    return out


def criterion_3_digests(tiny: bool, work: Path) -> dict:
    """Digests of the benchmark's checkpoints, caught as it trains them, and its summary."""
    settings = benchmark.BenchmarkSettings()
    if tiny:
        settings = replace(settings, n_legit_train=40, n_malicious_train=4,
                           n_test_per_class=8, epochs=1, seeds=(0, 1))
    out = {}
    train = benchmark.train

    def recording_train(dataset, config):
        ckpt, history = train(dataset, config)
        path = work / "criterion-3.ckpt"
        trainer.save(ckpt, path)
        out[f"criterion-3/seed{config.seed}-gamma{config.gamma:g}.ckpt"] = sha256(path.read_bytes())
        return ckpt, history

    benchmark.train = recording_train
    try:
        out["criterion-3/summary"] = benchmark.run_benchmark(settings)
    finally:
        benchmark.train = train
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="shrink every size, for a quick check")
    parser.add_argument("--criterion-3", action="store_true",
                        help="add the imbalance benchmark's ten checkpoints and its summary")
    args = parser.parse_args()
    result = {}
    with tempfile.TemporaryDirectory() as work:
        for w in WORKLOADS.values():
            result.update(workload_digests(w.tiny() if args.tiny else w, Path(work)))
        if args.criterion_3:
            result.update(criterion_3_digests(args.tiny, Path(work)))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
