"""Acceptance suite: one test per criterion, pinned tolerances.

Each test prints a PASS/FAIL line via the conftest hook. The heavy criteria
(3 and 9) train real models and are the bulk of the suite's runtime; their
budgets are asserted alongside their substance.
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from costnet import autodiff as ad
from costnet import trainer
from costnet.benchmark import BenchmarkSettings, run_benchmark
from costnet.data import GeneratorConfig, gen_synthetic
from costnet.errors import (
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from costnet.gradcheck import TOLERANCE, run_checks
from costnet.loss import ClassWeights, compute_class_weights
from costnet.metrics import ConfusionMatrix, scores
from costnet.models import scaled_dims
from costnet.naive_bayes import nb_positive_probability, nb_train
from costnet.reference_results import REPORTED_ROWS


def test_criterion_1_metric_arithmetic():
    email_nb = scores(ConfusionMatrix(tn=8122, fp=31, fn=5855, tp=4851))
    assert email_nb["accuracy"] == pytest.approx(68.8, abs=0.1)
    assert email_nb["precision"] == pytest.approx(99.4, abs=0.1)
    assert email_nb["recall"] == pytest.approx(45.3, abs=0.1)
    assert email_nb["f1"] == pytest.approx(62.2, abs=0.1)
    url_rf = scores(ConfusionMatrix(tn=1095, fp=47, fn=125, tp=453))
    assert url_rf["accuracy"] == pytest.approx(90.0, abs=0.1)
    assert url_rf["precision"] == pytest.approx(90.6, abs=0.1)
    assert url_rf["recall"] == pytest.approx(78.4, abs=0.1)
    assert url_rf["f1"] == pytest.approx(84.0, abs=0.1)


def test_criterion_2_reported_table_sweep():
    checked = 0
    for row in REPORTED_ROWS:
        if not row.consistent:
            continue  # the two rows whose printed values violate their counts
        s = scores(ConfusionMatrix(tn=row.tn, fp=row.fp, fn=row.fn, tp=row.tp))
        assert s["accuracy"] == pytest.approx(row.accuracy, abs=0.2), row
        assert s["precision"] == pytest.approx(row.precision, abs=0.2), row
        assert s["recall"] == pytest.approx(row.recall, abs=0.2), row
        checked += 1
    assert checked == len(REPORTED_ROWS) - 2


@pytest.mark.slow
def test_criterion_3_cost_sensitivity_lifts_recall():
    # the published headline numbers are not reproducible (private feeds);
    # this is the substituted property: 20:1 imbalance, 5 seeds, gamma=1
    # recall beats gamma=0 recall in >= 4 of 5 with positive median gap
    start = time.time()
    summary = run_benchmark(BenchmarkSettings())
    elapsed = time.time() - start
    assert summary["n_seeds"] == 5
    assert summary["wins"] >= 4, summary
    assert summary["median_difference"] > 0, summary
    assert elapsed < 900, f"benchmark took {elapsed:.0f}s, budget is 15 min"


def test_criterion_4_weight_equation_exactness():
    # gamma=0 collapses to unit weights and an identical loss history
    ds = gen_synthetic(GeneratorConfig("dga", 60, 30, seed=2))
    w0 = compute_class_weights([60, 30], gamma=0.0)
    assert w0.raw == (1.0, 1.0) and w0.normalized == (1.0, 1.0)
    cfg = trainer.TrainConfig(
        epochs=2, batch_size=16, seed=3, preset="cnn", max_len=24,
        dims=scaled_dims(), gamma=0.0,
    )
    _, hist_gamma0 = trainer.train(ds, cfg)
    unit = ClassWeights((1, 1), 0.0, (1.0, 1.0), (1.0, 1.0), True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "compute_class_weights", lambda *args, **kwargs: unit)
        _, hist_unit = trainer.train(ds, cfg)
    assert [h["loss"] for h in hist_gamma0] == [h["loss"] for h in hist_unit]

    # gamma=1 weight ratio is exactly the count ratio
    for counts in ((10_000, 500), (38_276, 53_052)):
        w1 = compute_class_weights(counts, gamma=1.0)
        assert w1.raw[1] / w1.raw[0] == counts[0] / counts[1]

    # normalized weights keep the total per-sample weight equal to N
    for gamma in (0.0, 0.3, 0.7, 1.0):
        w = compute_class_weights([38_276, 53_052], gamma=gamma)
        total = sum(c * nw for c, nw in zip(w.counts, w.normalized))
        n = sum(w.counts)
        assert abs(total - n) / n < 1e-9


def test_criterion_5_gradient_integrity():
    start = time.time()
    results = run_checks()
    elapsed = time.time() - start
    for preset in ("dnn", "cnn", "lstm", "cnn_lstm"):
        assert f"preset_{preset}" in results
    bad = {k: v for k, v in results.items() if not v < TOLERANCE}
    assert not bad, f"checks over tolerance: {bad}"
    assert elapsed < 120, f"gradient checks took {elapsed:.0f}s, budget is 2 min"


def _brute_force_posterior(documents, labels, alpha, query):
    vocab = sorted(set(itertools.chain.from_iterable(d.keys() for d in documents)))
    joint = []
    for cls in (0, 1):
        docs = [d for d, l in zip(documents, labels) if l == cls]
        total = sum(sum(d.values()) for d in docs)
        p = len(docs) / len(documents)
        for tok, c in query.items():
            if tok not in vocab:
                continue
            tok_count = sum(d.get(tok, 0) for d in docs)
            p *= ((tok_count + alpha) / (total + alpha * len(vocab))) ** c
        joint.append(p)
    return joint[1] / sum(joint)


def test_criterion_6_naive_bayes_oracle_equivalence():
    rng = np.random.default_rng(99)
    tokens = ["t0", "t1", "t2", "t3", "t4"]
    cases = 0
    while cases < 50:
        n_docs = int(rng.integers(2, 4))
        docs = []
        for _ in range(n_docs):
            ks = rng.choice(tokens, size=rng.integers(1, 4), replace=False)
            docs.append({k: int(rng.integers(1, 4)) for k in ks})
        labels = list(rng.integers(0, 2, n_docs))
        if len(set(labels)) < 2:
            continue
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        model = nb_train(docs, labels, alpha=alpha)
        qks = rng.choice(tokens, size=rng.integers(0, 4), replace=False)
        query = {k: int(rng.integers(1, 3)) for k in qks}
        expected = _brute_force_posterior(docs, labels, alpha, query)
        got = nb_positive_probability(model, [query])[0]
        assert abs(got - expected) <= 1e-12, (docs, labels, alpha, query)
        cases += 1


def test_criterion_7_adam_first_step_and_descent():
    p = {"theta": ad.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
    state = trainer.AdamState()
    trainer.adam_step(p, {"theta": np.array([1.0])}, state, lr=0.01)
    assert abs(p["theta"].data[0] - 0.99) < 1e-6

    p = {"theta": ad.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
    state = trainer.AdamState()
    for _ in range(200):
        trainer.adam_step(p, {"theta": p["theta"].data.copy()}, state, lr=0.01)
    assert abs(p["theta"].data[0]) < 0.05


def test_criterion_8_determinism_and_persistence(tmp_path):
    ds = gen_synthetic(GeneratorConfig("dga", 40, 40, seed=8))
    cfg = trainer.TrainConfig(
        epochs=2, batch_size=16, seed=7, preset="cnn_lstm", max_len=24,
        dims=scaled_dims(), gamma=1.0,
    )
    paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for path in paths:
        ckpt, _ = trainer.train(ds, cfg)
        trainer.save(ckpt, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    ckpt = trainer.load(paths[0])
    before = [trainer.predict_probability(ckpt, t) for t in ds.texts[:4]]
    round_trip = tmp_path / "c.ckpt"
    trainer.save(ckpt, round_trip)
    again = trainer.load(round_trip)
    assert [trainer.predict_probability(again, t) for t in ds.texts[:4]] == before

    raw = paths[0].read_bytes()
    truncated = tmp_path / "t.ckpt"
    truncated.write_bytes(raw[:-3])
    with pytest.raises(CheckpointTruncatedError):
        trainer.load(truncated)
    versioned = tmp_path / "v.ckpt"
    versioned.write_bytes(raw.replace(b'"format_version":1', b'"format_version":3', 1))
    with pytest.raises(CheckpointVersionError):
        trainer.load(versioned)
    renamed = tmp_path / "r.ckpt"
    renamed.write_bytes(raw.replace(b"00.embedding.table", b"00.embedding.tabel", 1))
    with pytest.raises(CheckpointShapeError):
        trainer.load(renamed)


def test_criterion_9_end_to_end_cli_smoke(tmp_path):
    start = time.time()
    env_cmd = [sys.executable, "-m", "costnet"]
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    model = tmp_path / "model.ckpt"

    def run(*argv):
        proc = subprocess.run(
            env_cmd + list(argv), capture_output=True, text=True, timeout=600
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    run("gen-data", "--use-case", "dga", "--legit", "2000", "--malicious", "2000",
        "--seed", "101", "--split", "train", "--out", str(train_csv))
    run("gen-data", "--use-case", "dga", "--legit", "500", "--malicious", "500",
        "--seed", "102", "--split", "test", "--out", str(test_csv))
    proc = run("train", "--train", str(train_csv), "--preset", "cnn",
               "--gamma", "0", "--epochs", "5", "--lr", "0.01", "--seed", "0",
               "--max-len", "40", "--out", str(model))
    losses = [
        float(line.split()[-1])
        for line in proc.stderr.splitlines()
        if line.startswith("epoch ")
    ]
    assert len(losses) == 5
    assert losses[-1] < losses[0]

    proc = run("evaluate", "--model", str(model), "--test", str(test_csv))
    report = json.loads(proc.stdout)
    assert report["f1"] >= 95.0, report
    elapsed = time.time() - start
    assert elapsed < 600, f"pipeline took {elapsed:.0f}s, budget is 10 min"
