#!/usr/bin/env python3
"""Full workflow on one synthetic use case: generate, train both paths, score.

Produces a small comparison table (naive_bayes baseline, cost-insensitive,
and cost-sensitive runs of one preset) on a freshly generated corpus.
"""

import argparse
import json
import sys

from costnet.data import USE_CASES, GeneratorConfig, gen_synthetic
from costnet.models import PRESETS
from costnet.trainer import TrainConfig, evaluate, train, train_naive_bayes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--use-case", choices=USE_CASES, default="dga")
    parser.add_argument("--preset", choices=PRESETS, default="cnn")
    parser.add_argument("--legit", type=int, default=4000)
    parser.add_argument("--malicious", type=int, default=400)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--max-len", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    train_ds = gen_synthetic(
        GeneratorConfig(args.use_case, args.legit, args.malicious, seed=args.seed)
    )
    test_ds = gen_synthetic(
        GeneratorConfig(args.use_case, 500, 500, seed=args.seed + 1, split="test")
    )
    results = {}
    results["naive_bayes"] = evaluate(train_naive_bayes(train_ds), test_ds)
    for gamma in (0.0, 1.0):
        cfg = TrainConfig(
            epochs=args.epochs, gamma=gamma, seed=args.seed,
            preset=args.preset, max_len=args.max_len,
        )
        ckpt, _ = train(train_ds, cfg)
        results[f"{args.preset}_gamma{gamma:g}"] = evaluate(ckpt, test_ds)
    for name, report in results.items():
        print(
            f"{name:16s} acc {report['accuracy']:5.1f}  prec {report['precision']:5.1f}  "
            f"rec {report['recall']:5.1f}  f1 {report['f1']:5.1f}",
            file=sys.stderr,
        )
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
