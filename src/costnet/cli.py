"""Command-line surface: generate data, compute weights, train, evaluate,
predict, and verify gradients.

Machine-readable output (JSON, CSV) goes to stdout; logs, per-epoch loss
lines, and errors go to stderr. Exit codes: 0 success, 1 data/contract
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import trainer as tr
from .data import (
    SOURCE_CORPUS_COUNTS,
    SPLITS,
    USE_CASES,
    GeneratorConfig,
    gen_synthetic,
    load_csv,
    save_csv,
)
from .errors import ConfigError, CostnetError
from .loss import compute_class_weights
from .metrics import THRESHOLD
from .models import PRESETS

#: every train option's built-in default and the kind of value (``trainer.of_kind``)
#: that a flag or a --config key must give it
TRAIN_OPTIONS = {
    "preset": ("cnn", frozenset(PRESETS + ("naive_bayes",))),
    "gamma": (0.0, tr.NUMBER),
    "epochs": (100, tr.COUNT),
    "lr": (0.01, tr.POSITIVE),
    "batch_size": (64, tr.COUNT),
    "seed": (0, tr.COUNT),
    "max_len": (None, (tr.COUNT, type(None))),
    "use_case": (None, (frozenset(USE_CASES), type(None))),
    "raw_weights": (False, bool),
    "eval_every": (0, tr.COUNT),
    "alpha": (1.0, tr.POSITIVE),
    "ngrams": ([1, 2], tr.PAIR),
}


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    return int(parts[0]), int(parts[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costnet",
        description="Cost-sensitive character-level classifiers for security text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a deterministic synthetic corpus as CSV")
    p.add_argument("--use-case", required=True, choices=USE_CASES)
    p.add_argument("--legit", required=True, type=int, help="legitimate sample count")
    p.add_argument("--malicious", required=True, type=int, help="malicious/spam sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", choices=SPLITS, default="train",
                   help="splits draw from disjoint text universes")
    p.add_argument("--legit-range", type=_int_pair, default=None, metavar="LO,HI")
    p.add_argument("--malicious-range", type=_int_pair, default=None, metavar="LO,HI")
    p.add_argument("--out", required=True)

    p = sub.add_parser("weights", help="per-class cost weights for a train split")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--train", help="CSV to count classes from")
    src.add_argument("--counts", type=_int_pair, metavar="LEGIT,MALICIOUS")
    src.add_argument("--manifest", metavar="USE_CASE:SPLIT",
                     help="published corpus counts, e.g. dga:train")
    p.add_argument("--gamma", required=True, type=float)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--train", required=True, dest="train_path", help="training CSV")
    p.add_argument("--preset", choices=sorted(TRAIN_OPTIONS["preset"][1]))
    p.add_argument("--gamma", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--use-case", choices=USE_CASES)
    p.add_argument("--raw-weights", action="store_true", default=None,
                   help="skip mean-1 weight normalization")
    p.add_argument("--eval-every", type=int, help="score the train split every K epochs")
    p.add_argument("--alpha", type=float, help="naive_bayes smoothing")
    p.add_argument("--ngrams", help="naive_bayes n-gram range LO,HI")
    p.add_argument("--config", help="JSON file with defaults (flags win)")
    p.add_argument("--out", required=True, help="checkpoint path")

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)

    p = sub.add_parser("predict", help="classify one string")
    p.add_argument("--model", required=True)
    p.add_argument("--text", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference verification of gradients")
    p.add_argument("--preset", choices=PRESETS, default=None,
                   help="check one preset instead of everything")
    return parser


def _emit(payload) -> None:
    print(json.dumps(payload))


def _cmd_gen_data(args) -> int:
    cfg = GeneratorConfig(
        use_case=args.use_case,
        n_legit=args.legit,
        n_malicious=args.malicious,
        seed=args.seed,
        split=args.split,
        legit_range=args.legit_range,
        malicious_range=args.malicious_range,
    )
    dataset = gen_synthetic(cfg)
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_weights(args) -> int:
    if args.train is not None:
        from .data import class_counts

        counts = class_counts(load_csv(args.train))
    elif args.counts is not None:
        counts = list(args.counts)
    else:
        try:
            use_case, split = args.manifest.split(":", 1)
            counts = list(SOURCE_CORPUS_COUNTS[use_case][split])
        except (ValueError, KeyError):
            raise ConfigError(
                f"--manifest must be USE_CASE:SPLIT from the published corpora, "
                f"got {args.manifest!r}"
            )
    w = compute_class_weights(counts, args.gamma)
    _emit(
        {
            "counts": list(w.counts),
            "gamma": w.gamma,
            "raw": list(w.raw),
            "normalized": list(w.normalized),
        }
    )
    return 0


def _merge_train_options(args) -> dict:
    """Defaults, overridden by the --config file, then by flags; each value checked for its kind."""
    merged = {key: default for key, (default, _) in TRAIN_OPTIONS.items()}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:  # bad UTF-8 or JSON, or an int of over 4300 digits
                raise ConfigError(f"{args.config}: malformed JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: expected a JSON object")
        unknown = set(file_cfg) - set(TRAIN_OPTIONS)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        merged.update(file_cfg)
    for key, (_, kind) in TRAIN_OPTIONS.items():
        value = merged[key] if getattr(args, key) is None else getattr(args, key)
        if kind == tr.PAIR and type(value) is str:  # "LO,HI", as --ngrams takes it
            try:
                value = [int(n) for n in value.split(",")]
            except ValueError:
                pass  # still a string, so not a pair
        if not tr.of_kind(value, kind):
            raise ConfigError(f"bad value for option {key!r}: {value!r}")
        merged[key] = value
    return merged


def _cmd_train(args) -> int:
    opts = _merge_train_options(args)
    dataset = load_csv(args.train_path, use_case=opts["use_case"], split="train")
    if opts["preset"] == "naive_bayes":
        if opts["gamma"]:
            print("note: naive_bayes ignores --gamma", file=sys.stderr)
        ckpt = tr.train_naive_bayes(
            dataset, alpha=opts["alpha"], n_range=tuple(opts["ngrams"])
        )
    else:
        config = tr.TrainConfig(
            learning_rate=opts["lr"],
            epochs=opts["epochs"],
            batch_size=opts["batch_size"],
            gamma=opts["gamma"],
            normalize_weights=not opts["raw_weights"],
            seed=opts["seed"],
            preset=opts["preset"],
            max_len=opts["max_len"],
            eval_every=opts["eval_every"],
        )

        def on_epoch(epoch, loss):
            print(f"epoch {epoch} loss {loss:.6f}", file=sys.stderr)

        ckpt, _ = tr.train(dataset, config, on_epoch=on_epoch)
    tr.save(ckpt, args.out)
    print(f"saved checkpoint to {args.out}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    ckpt = tr.load(args.model)
    dataset = load_csv(args.test)
    _emit(tr.evaluate(ckpt, dataset))
    return 0


def _cmd_predict(args) -> int:
    ckpt = tr.load(args.model)
    prob = tr.predict_probability(ckpt, args.text)
    _emit({"probability": prob, "label": int(prob >= THRESHOLD)})
    return 0


def _cmd_gradcheck(args) -> int:
    from . import gradcheck as gc  # imported here, off the cold predict path

    results = gc.run_checks(args.preset)
    _emit(results)
    return 0 if gc.all_within_tolerance(results) else 1


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "weights": _cmd_weights,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CostnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a legal input too big for this host
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
