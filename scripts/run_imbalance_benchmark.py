#!/usr/bin/env python3
"""Run the seeded 20:1 imbalance benchmark and print the summary as JSON.

Compares malicious-class recall between a cost-insensitive (gamma=0) and a
cost-sensitive (gamma=1) run of the same preset across several seeds.
"""

import argparse
import json
import sys

from costnet.benchmark import BenchmarkSettings, run_benchmark
from costnet.models import PRESETS


def main() -> int:
    defaults = BenchmarkSettings()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=PRESETS, default=defaults.preset)
    parser.add_argument("--epochs", type=int, default=defaults.epochs)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(defaults.seeds))
    parser.add_argument("--legit", type=int, default=defaults.n_legit_train)
    parser.add_argument("--malicious", type=int, default=defaults.n_malicious_train)
    parser.add_argument("--test-per-class", type=int, default=defaults.n_test_per_class)
    parser.add_argument("--lr", type=float, default=defaults.learning_rate)
    args = parser.parse_args()

    summary = run_benchmark(
        BenchmarkSettings(
            preset=args.preset,
            epochs=args.epochs,
            seeds=tuple(args.seeds),
            n_legit_train=args.legit,
            n_malicious_train=args.malicious,
            n_test_per_class=args.test_per_class,
            learning_rate=args.lr,
        )
    )
    for run in summary["runs"]:
        print(
            f"seed {run['seed']}: recall gamma=0 {run['recall_gamma0']:.1f}  "
            f"gamma=1 {run['recall_gamma1']:.1f}  diff {run['difference']:+.1f}",
            file=sys.stderr,
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
