"""Self-test of the benchmark; exits 0 when every check passes.

    python3 perfbench/selftest.py

* ``BENCHMARK.json`` lists the same metrics, with the same units, as the
  benchmark prints.
* Each workload runs at a tiny size, untraced and traced. Its last line
  names every metric of its mode with its unit, and the traced run times
  every layer at least once. Tiny inputs are too small to train below ln 2,
  so ``correct`` is not asserted here.
* A corrupted probability and a corrupted class weight each fail their check,
  and the uncorrupted values pass.
* In a directory that holds only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_definition(spec: dict) -> None:
    for key, listed in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        expect(declared == list(listed), f"BENCHMARK.json {key} matches the metrics the benchmark prints")
    expect(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads match the benchmark's",
    )


def check_outputs(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exits 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} prints the four keys")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label} attempts operations")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(got == want, f"{label} names every {key} metric with its unit")
            expect(
                all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                f"{label} values are numbers",
            )
            if trace:
                record = json.loads((HERE / "results" / f"{workload}-seed3-trace1.json").read_text())
                missing = [n for n, c in record["per_layer_calls"].items() if c == 0]
                expect(not missing, f"{label} times every layer (untimed: {missing})")


def check_checks() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from costnet import trainer
    from costnet.data import GeneratorConfig, gen_synthetic
    from costnet.models import scaled_dims

    train = gen_synthetic(GeneratorConfig("dga", 20, 4, seed=5, split="train"))
    text = gen_synthetic(GeneratorConfig("dga", 1, 1, seed=6, split="test")).texts[1]

    ckpt, _ = trainer.train(
        train, trainer.TrainConfig(epochs=1, gamma=1.0, preset="cnn", max_len=40, dims=scaled_dims())
    )
    stored = list(ckpt.hyperparameters["class_weights"])
    expect(checks.check_class_weights(stored, train.labels, 1.0) is None, "true class weights pass")
    corrupted = [stored[0], stored[1] * (1 + 1e-6)]
    expect(checks.check_class_weights(corrupted, train.labels, 1.0) is not None, "a corrupted class weight fails")

    nb = trainer.train_naive_bayes(train)
    prob = trainer.predict_probability(nb, text)
    reference = checks.ReferenceNB(train.texts, train.labels).probability(text)
    good = {"probability": prob, "label": int(prob >= 0.5)}
    expect(checks.check_prediction(good, prob, reference) is None, "the true naive bayes probability passes")
    shifted = {"probability": prob + 1e-5, "label": int(prob + 1e-5 >= 0.5)}
    expect(checks.check_prediction(shifted, prob, reference) is not None, "a corrupted probability fails")
    nudged = {"probability": prob + 1e-8, "label": int(prob + 1e-8 >= 0.5)}
    expect(checks.check_prediction(nudged, prob + 1e-8, reference) is not None,
           "a probability off the reference naive bayes by 1e-8 fails")
    flipped = {"probability": prob, "label": 1 - int(prob >= 0.5)}
    expect(checks.check_prediction(flipped, prob) is not None, "a label that disagrees with its probability fails")


def check_without_sources() -> None:
    bare = HERE / "work" / f"selftest-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "url-score", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the sources the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_definition(spec)
    check_checks()
    check_without_sources()
    check_outputs(spec)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
