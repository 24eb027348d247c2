import dataclasses
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from costnet import autodiff as ad
from costnet import models, trainer as train
from costnet.data import GeneratorConfig, LabeledDataset, gen_synthetic
from costnet.errors import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    DataError,
)
from costnet.loss import ClassWeights

TINY = models.scaled_dims()


def tiny_config(**kw):
    base = dict(
        learning_rate=0.01, epochs=2, batch_size=8, seed=0,
        preset="cnn", max_len=24, dims=TINY,
    )
    base.update(kw)
    return train.TrainConfig(**base)


def small_dga(n=40, seed=3, split="train", **kw):
    return gen_synthetic(GeneratorConfig("dga", n, n, seed=seed, split=split, **kw))


class TestAdam:
    def test_first_step_closed_form(self):
        p = {"theta": ad.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
        state = train.AdamState()
        train.adam_step(p, {"theta": np.array([1.0])}, state, lr=0.01)
        assert p["theta"].data[0] == pytest.approx(1 - 0.01 / (1 + 1e-8), abs=1e-9)
        assert state.t == 1

    def test_zero_gradient_leaves_params(self):
        p = {"w": ad.Tensor(np.array([2.0, -1.0]), requires_grad=True, dtype=np.float64)}
        state = train.AdamState()
        train.adam_step(p, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(p["w"].data, [2.0, -1.0])
        assert state.t == 1

    def test_missing_gradient_treated_as_zero(self):
        p = {"w": ad.Tensor(np.array([5.0]), requires_grad=True, dtype=np.float64)}
        train.adam_step(p, {}, train.AdamState(), lr=0.1)
        np.testing.assert_array_equal(p["w"].data, [5.0])

    def test_quadratic_descent(self):
        p = {"theta": ad.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
        state = train.AdamState()
        for _ in range(200):
            g = p["theta"].data.copy()  # d/dx of x^2/2
            train.adam_step(p, {"theta": g}, state, lr=0.01)
        assert abs(p["theta"].data[0]) < 0.05

    def test_shape_mismatch_rejected(self):
        p = {"w": ad.Tensor(np.zeros(3), requires_grad=True)}
        with pytest.raises(ContractError):
            train.adam_step(p, {"w": np.zeros(4)}, train.AdamState(), lr=0.1)


def reference_adam_step(params, grads, state, lr):
    """Adam evaluated whole-array, one temporary per operation."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)


class TestBlockedAdam:
    B = train._ADAM_BLOCK

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_whole_array_formula(self, dtype):
        rng = np.random.default_rng(11)
        sizes = {"one": (1,), "under": (7, (self.B - 1) // 7), "block": (self.B,),
                 "over": (3 * self.B + 7,)}
        init = {k: rng.standard_normal(s).astype(dtype) for k, s in sizes.items()}
        ours = {k: ad.Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        ref = {k: ad.Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        s_ours, s_ref = train.AdamState(), train.AdamState()
        for _ in range(5):
            # gradients over many scales; "under" never gets one
            grads = {k: (rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3, s)).astype(dtype)
                     for k, s in sizes.items() if k != "under"}
            train.adam_step(ours, grads, s_ours, lr=0.003)
            reference_adam_step(ref, grads, s_ref, lr=0.003)
        for k in sizes:
            assert ours[k].data.dtype == dtype
            assert ours[k].data.tobytes() == ref[k].data.tobytes(), k
            assert s_ours.m[k].tobytes() == s_ref.m[k].tobytes(), k
            assert s_ours.v[k].tobytes() == s_ref.v[k].tobytes(), k

    def test_warm_step_allocates_nothing_parameter_sized(self):
        n = 1 << 20
        p = {"w": ad.Tensor(np.ones(n, dtype=np.float32), requires_grad=True)}
        g = {"w": np.full(n, 0.5, dtype=np.float32)}
        state = train.AdamState()
        train.adam_step(p, g, state, lr=0.01)  # allocates m, v and the scratch
        tracemalloc.start()
        try:
            train.adam_step(p, g, state, lr=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the parameter alone is 4 MB

    @pytest.mark.parametrize("preset", ["dnn", "lstm"])
    def test_checkpoint_bytes_match_whole_array_formula(self, monkeypatch, tmp_path, preset):
        ds = small_dga()
        cfg = tiny_config(preset=preset, epochs=2, gamma=1.0)
        ckpt, _ = train.train(ds, cfg)
        train.save(ckpt, tmp_path / "blocked.ckpt")
        monkeypatch.setattr(train, "adam_step", reference_adam_step)
        ckpt, _ = train.train(ds, cfg)
        train.save(ckpt, tmp_path / "whole.ckpt")
        assert (tmp_path / "blocked.ckpt").read_bytes() == (tmp_path / "whole.ckpt").read_bytes()


class TestEpochBatches:
    @pytest.mark.parametrize("n,bs", [(10, 4), (64, 64), (65, 64), (7, 2), (129, 64)])
    def test_every_sample_once(self, n, bs):
        batches = train.epoch_batches(n, bs, np.random.default_rng(0))
        flat = np.concatenate(batches)
        assert sorted(flat) == list(range(n))

    def test_no_trailing_singleton(self):
        batches = train.epoch_batches(65, 64, np.random.default_rng(0))
        assert all(len(b) >= 2 for b in batches)

    def test_shuffle_changes_between_epochs(self):
        rng = np.random.default_rng(1)
        a = np.concatenate(train.epoch_batches(50, 16, rng))
        b = np.concatenate(train.epoch_batches(50, 16, rng))
        assert not np.array_equal(a, b)


class TestTrainLoop:
    def test_deterministic_given_seed(self):
        ds = small_dga()
        a, _ = train.train(ds, tiny_config(seed=5))
        b, _ = train.train(ds, tiny_config(seed=5))
        assert a.history == b.history
        for name in a.weights:
            np.testing.assert_array_equal(a.weights[name], b.weights[name])

    def test_gamma_zero_matches_hardcoded_unit_weights(self):
        ds = small_dga()
        unit = ClassWeights((1, 1), 0.0, (1.0, 1.0), (1.0, 1.0), True)
        a, hist_a = train.train(ds, tiny_config(gamma=0.0))
        b, hist_b = train.train(ds, tiny_config(gamma=0.0), weights_override=unit)
        assert [h["loss"] for h in hist_a] == [h["loss"] for h in hist_b]

    def test_loss_decreases_on_separable_data(self):
        ds = small_dga(n=150)
        _, hist = train.train(ds, tiny_config(epochs=5))
        assert hist[-1]["loss"] < hist[0]["loss"]

    def test_single_class_rejected(self):
        ds = LabeledDataset(texts=("aa.com", "bb.com"), labels=(0, 0))
        with pytest.raises(DataError):
            train.train(ds, tiny_config())

    def test_on_epoch_callback_streams(self):
        seen = []
        train.train(small_dga(), tiny_config(), on_epoch=lambda e, l: seen.append((e, l)))
        assert [e for e, _ in seen] == [1, 2]

    def test_eval_every_records_train_metrics(self):
        _, hist = train.train(small_dga(), tiny_config(epochs=2, eval_every=2))
        assert "train_metrics" not in hist[0]
        assert "accuracy" in hist[1]["train_metrics"]

    def test_bad_config_values(self):
        with pytest.raises(ConfigError):
            tiny_config(learning_rate=0.0)
        with pytest.raises(ConfigError):
            tiny_config(epochs=0)
        with pytest.raises(ConfigError):
            tiny_config(batch_size=1)
        with pytest.raises(ConfigError):
            tiny_config(gamma=2.0)


class TestEvaluatePredict:
    def test_overfit_memorizable_corpus(self):
        ds = small_dga(n=10, seed=9)  # 20 samples total
        cfg = tiny_config(epochs=200, batch_size=20, learning_rate=0.01)
        ckpt, _ = train.train(ds, cfg)
        report = train.evaluate(ckpt, ds)
        assert report["accuracy"] == 100.0

    def test_evaluate_deterministic(self):
        ds = small_dga()
        test = small_dga(n=15, seed=30, split="test")
        ckpt, _ = train.train(ds, tiny_config())
        assert train.evaluate(ckpt, test) == train.evaluate(ckpt, test)

    def test_empty_dataset_rejected(self):
        ckpt, _ = train.train(small_dga(), tiny_config())
        empty = LabeledDataset(texts=(), labels=())
        with pytest.raises(ContractError):
            train.evaluate(ckpt, empty)

    def test_oov_mismatch_warns(self, caplog):
        ckpt, _ = train.train(small_dga(), tiny_config())
        weird = LabeledDataset(texts=("ΩΩΩΩΩ", "ΨΨΨΨΨ"), labels=(0, 1))
        with caplog.at_level(logging.WARNING, logger="costnet"):
            train.evaluate(ckpt, weird)
        assert any("out-of-vocabulary" in r.message for r in caplog.records)

    def test_predict_probability_matches_evaluate_path(self):
        ds = small_dga()
        ckpt, _ = train.train(ds, tiny_config())
        p = train.predict_probability(ckpt, ds.texts[0])
        assert 0.0 < p < 1.0


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        ckpt, _ = train.train(small_dga(), tiny_config())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        train.save(ckpt, p1)
        loaded = train.load(p1)
        train.save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predict_identical_after_reload(self, tmp_path):
        ds = small_dga()
        ckpt, _ = train.train(ds, tiny_config())
        before = [train.predict_probability(ckpt, t) for t in ds.texts[:5]]
        path = tmp_path / "m.ckpt"
        train.save(ckpt, path)
        loaded = train.load(path)
        after = [train.predict_probability(loaded, t) for t in ds.texts[:5]]
        assert before == after

    def test_identical_runs_produce_identical_files(self, tmp_path):
        ds = small_dga()
        for i, name in enumerate(("x.ckpt", "y.ckpt")):
            ckpt, _ = train.train(ds, tiny_config(seed=4))
            train.save(ckpt, tmp_path / name)
        assert (tmp_path / "x.ckpt").read_bytes() == (tmp_path / "y.ckpt").read_bytes()

    def test_truncated_blob_rejected(self, tmp_path):
        ckpt, _ = train.train(small_dga(), tiny_config())
        path = tmp_path / "m.ckpt"
        train.save(ckpt, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(CheckpointTruncatedError):
            train.load(path)

    def test_unknown_version_rejected(self, tmp_path):
        ckpt, _ = train.train(small_dga(), tiny_config())
        path = tmp_path / "m.ckpt"
        train.save(ckpt, path)
        raw = path.read_bytes()
        patched = raw.replace(b'"format_version":1', b'"format_version":9', 1)
        path.write_bytes(patched)
        with pytest.raises(CheckpointVersionError):
            train.load(path)

    def test_shape_tamper_rejected(self, tmp_path):
        ckpt, _ = train.train(small_dga(), tiny_config())
        bias = ckpt.weights["01.conv1d.bias"]
        ckpt.weights["01.conv1d.bias"] = np.concatenate([bias, [0.0]]).astype(bias.dtype)
        path = tmp_path / "m.ckpt"
        train.save(ckpt, path)
        with pytest.raises(CheckpointShapeError):
            train.load(path)

    def test_nb_checkpoint_round_trip(self, tmp_path):
        ds = small_dga()
        ckpt = train.train_naive_bayes(ds)
        assert ckpt.preset == "naive_bayes"
        path = tmp_path / "nb.ckpt"
        train.save(ckpt, path)
        loaded = train.load(path)
        texts = ("maplecanyon.com", "xk29qpz71w.net")
        before = [train.predict_probability(ckpt, t) for t in texts]
        after = [train.predict_probability(loaded, t) for t in texts]
        assert before == after
        train.save(loaded, tmp_path / "nb2.ckpt")
        assert path.read_bytes() == (tmp_path / "nb2.ckpt").read_bytes()

    @pytest.mark.parametrize("n_range", [[3, 1], [0, 2], [1], "1,2"])
    def test_nb_bad_ngram_range_rejected(self, tmp_path, n_range):
        ckpt = train.train_naive_bayes(small_dga())
        ckpt.hyperparameters["n_range"] = n_range
        path = tmp_path / "nb.ckpt"
        train.save(ckpt, path)
        with pytest.raises(CheckpointError, match="n_range"):
            train.load(path)

    def test_nb_on_imbalanced_synthetic_shows_precision_over_recall(self):
        tr = gen_synthetic(GeneratorConfig("dga", 2000, 100, seed=21, split="train",
                                           malicious_range=(4, 8)))
        te = gen_synthetic(GeneratorConfig("dga", 300, 300, seed=22, split="test",
                                           malicious_range=(4, 8)))
        ckpt = train.train_naive_bayes(tr)
        report = train.evaluate(ckpt, te)
        assert report["precision"] > report["recall"]


def _refuse_init(*args, **kwargs):
    raise AssertionError("weight init ran while rebuilding a checkpoint")


@pytest.fixture(scope="module")
def saved_presets(tmp_path_factory):
    """One trained checkpoint per neural preset, in memory and on disk."""
    root = tmp_path_factory.mktemp("rebuild")
    saved = {}
    for preset in models.PRESETS:
        ckpt, _ = train.train(small_dga(), tiny_config(preset=preset, epochs=1))
        path = root / f"{preset}.ckpt"
        train.save(ckpt, path)
        saved[preset] = (ckpt, path)
    return saved


class TestInitFreeRebuild:
    @pytest.mark.parametrize("preset", models.PRESETS)
    def test_load_predict_evaluate_draw_no_init(self, saved_presets, monkeypatch, preset):
        ckpt, path = saved_presets[preset]
        test = small_dga(n=10, seed=30, split="test")
        expected = [train.predict_probability(ckpt, t) for t in test.texts]
        report = train.evaluate(ckpt, test)
        monkeypatch.setattr(models, "_glorot", _refuse_init)
        loaded = train.load(path)
        got = [train.predict_probability(loaded, t) for t in test.texts]
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert train.evaluate(loaded, test) == report

    @pytest.mark.parametrize("preset", models.PRESETS)
    @pytest.mark.parametrize("fault", ["shape", "unknown", "missing"])
    def test_tampered_manifest_rejected(self, saved_presets, monkeypatch, tmp_path, preset, fault):
        ckpt, _ = saved_presets[preset]
        weights = dict(ckpt.weights)
        name = sorted(weights)[-1]
        if fault == "shape":
            weights[name] = np.concatenate([weights[name], weights[name][:1]])
        elif fault == "unknown":
            weights["99.dense.w"] = np.zeros((2, 1), dtype=np.float32)
        else:
            del weights[name]
        path = tmp_path / "m.ckpt"
        train.save(dataclasses.replace(ckpt, weights=weights), path)
        monkeypatch.setattr(models, "_glorot", _refuse_init)
        message = {"shape": "has shape", "unknown": "unexpected", "missing": "missing"}[fault]
        with pytest.raises(CheckpointShapeError, match=message):
            train.load(path)


# Widths are raised above the scaled dims so that the lstm's batched GEMMs
# (32 x 768 by 768 x 128) pass OpenBLAS's size threshold for threading.
_TRAIN_LSTM = """
import dataclasses, sys
from costnet import models, trainer
from costnet.data import GeneratorConfig, gen_synthetic
ds = gen_synthetic(GeneratorConfig("dga", 48, 48, seed=3, split="train"))
dims = dataclasses.replace(models.scaled_dims(), embed_dim=32, lstm_units=32)
cfg = trainer.TrainConfig(
    learning_rate=0.01, epochs=2, batch_size=32, seed=0, gamma=1.0,
    preset="lstm", max_len=24, dims=dims,
)
ckpt, _ = trainer.train(ds, cfg)
trainer.save(ckpt, sys.argv[1])
"""


def test_lstm_checkpoint_bytes_equal_under_one_and_two_blas_threads(tmp_path):
    paths = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(train.__file__).parents[1]),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        path = tmp_path / f"threads{threads}.ckpt"
        subprocess.run([sys.executable, "-c", _TRAIN_LSTM, str(path)], env=env, check=True, timeout=300)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
