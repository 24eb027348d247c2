import dataclasses
import logging
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costnet import autodiff as ad
from costnet import cli, models, trainer as train
from costnet.data import GeneratorConfig, LabeledDataset, gen_synthetic, save_csv
from costnet.errors import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    DataError,
)
from costnet.loss import ClassWeights, compute_class_weights
from costnet.text import PAD_ID

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

    def test_first_moments_hold_no_subnormal_after_a_flush_step(self):
        # one gradient, then none: each m decays by beta1 a step into float32
        # subnormals (~810 steps from 0.1) and stops at a subnormal fixed point
        g = np.array([1.0, -1.0, 0.5, 2.0], dtype=np.float32)
        ours = {"w": ad.Tensor(np.ones(4, dtype=np.float32), requires_grad=True)}
        ref = {"w": ad.Tensor(np.ones(4, dtype=np.float32), requires_grad=True)}
        s_ours, s_ref = train.AdamState(), train.AdamState()
        tiny = np.finfo(np.float32).tiny
        flush_at = 13 * train._ADAM_FLUSH_EVERY
        for step in range(1, flush_at + 9):
            grads = {"w": g if step == 1 else np.zeros(4, dtype=np.float32)}
            train.adam_step(ours, grads, s_ours, lr=0.01)
            reference_adam_step(ref, grads, s_ref, lr=0.01)
            m = s_ours.m["w"]
            subnormal = (m != 0) & (np.abs(m) < tiny)
            if step == flush_at - 1:
                assert subnormal.all()
            if step == flush_at:
                assert not subnormal.any() and not m.any()
        # the moments a flush zeroes move no weight
        assert ours["w"].data.tobytes() == ref["w"].data.tobytes()


def reference_adam_step(params, grads, state, lr):
    """Adam evaluated whole-array, one temporary per operation."""
    state.t += 1
    b1, b2 = train._ADAM_BETA1, train._ADAM_BETA2
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
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + train._ADAM_EPS)).astype(p.data.dtype)


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

    @settings(max_examples=40, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        block=st.integers(0, 3),
        kinds=st.lists(st.sampled_from(["zero", "neg_zero", "nan", "value", "none"]),
                       min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dtype=np.float32, block=1, kinds=["zero"] * 3 + ["value"] + ["zero"] * 3, seed=0)
    @example(dtype=np.float64, block=3, kinds=["neg_zero", "value", "neg_zero", "none"], seed=1)
    @example(dtype=np.float32, block=0, kinds=["zero", "nan", "zero", "value"], seed=2)
    @example(dtype=np.float64, block=2, kinds=["none", "value", "none", "zero"], seed=3)
    def test_skipped_blocks_keep_the_whole_array_formula_bytes(self, dtype, block, kinds, seed):
        # "w" spans four blocks, the last one short; the chosen block's gradient
        # follows `kinds` while the others get values. "none" leaves w out of
        # the gradients for that step, and "absent" never gets one.
        rng = np.random.default_rng(seed)
        sizes = {"w": (3 * self.B + 7,), "absent": (2 * self.B + 3,)}
        init = {k: rng.standard_normal(s).astype(dtype) for k, s in sizes.items()}
        chosen = slice(block * self.B, (block + 1) * self.B)
        init["w"][chosen][::5] = -0.0
        ours = {k: ad.Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        ref = {k: ad.Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        s_ours, s_ref = train.AdamState(), train.AdamState()
        for kind in kinds:
            grads = {}
            if kind != "none":
                g = rng.standard_normal(sizes["w"]).astype(dtype)
                part = g[chosen]
                if kind != "value":
                    part[:] = 0.0
                if kind in ("neg_zero", "value"):
                    part[::3] = -0.0
                if kind == "nan":
                    part[rng.integers(part.size)] = np.nan
                grads["w"] = g
            train.adam_step(ours, grads, s_ours, lr=0.003)
            reference_adam_step(ref, grads, s_ref, lr=0.003)
        for k in sizes:
            assert ours[k].data.tobytes() == ref[k].data.tobytes(), k
            assert s_ours.m[k].tobytes() == s_ref.m[k].tobytes(), k
            assert s_ours.v[k].tobytes() == s_ref.v[k].tobytes(), k
        # the chosen block was skipped until a nonzero or NaN entry reached it
        reached = any(kind in ("nan", "value") for kind in kinds)
        others = any(kind != "none" for kind in kinds)
        expected = [reached if b == block else others for b in range(4)]
        assert s_ours.touched["w"].tolist() == expected
        assert not s_ours.touched["absent"].any()

    # a dnn whose first dense weight spans four blocks, two of them holding
    # only positions past small_dga's longest text (24 characters)
    WIDE = dataclasses.replace(TINY, embed_dim=16, dnn_widths=(128, 24, 16, 8))

    @pytest.mark.parametrize(
        "preset,max_len,dims",
        [("dnn", 24, TINY), ("lstm", 24, TINY), ("dnn", 64, WIDE)],
        ids=["dnn", "lstm", "dnn-never-reached-positions"],
    )
    def test_checkpoint_bytes_match_whole_array_formula(
        self, monkeypatch, tmp_path, preset, max_len, dims
    ):
        ds = small_dga()
        cfg = tiny_config(preset=preset, max_len=max_len, dims=dims, epochs=2, gamma=1.0)
        ckpt, _ = train.train(ds, cfg)
        if dims is self.WIDE:  # Adam skips the blocks no position reaches
            assert max_len > max(map(len, ds.texts))
            first = min(k for k in ckpt.weights if k.endswith("dense.w"))
            assert ckpt.weights[first].size >= 3 * self.B
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

    def test_gamma_zero_matches_hardcoded_unit_weights(self, monkeypatch):
        ds = small_dga()
        _, hist_a = train.train(ds, tiny_config(gamma=0.0))
        unit = ClassWeights((1, 1), 0.0, (1.0, 1.0), (1.0, 1.0), True)
        monkeypatch.setattr(train, "compute_class_weights", lambda *args, **kwargs: unit)
        _, hist_b = train.train(ds, tiny_config(gamma=0.0))
        assert [h["loss"] for h in hist_a] == [h["loss"] for h in hist_b]

    def test_gamma_one_records_split_counts_and_weights(self):
        ds = gen_synthetic(GeneratorConfig("dga", 60, 10, seed=3, split="train"))
        weights = compute_class_weights([60, 10], 1.0)
        ckpt, _ = train.train(ds, tiny_config(gamma=1.0))
        hyper = ckpt.hyperparameters
        assert hyper["gamma"] == 1.0 and hyper["normalize_weights"] is True
        assert hyper["class_counts"] == [60, 10]
        assert hyper["class_weights"] == list(weights.normalized)
        raw, _ = train.train(ds, tiny_config(gamma=1.0, normalize_weights=False))
        assert raw.hyperparameters["normalize_weights"] is False
        assert raw.hyperparameters["class_weights"] == list(weights.raw)

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
        for lr in (0.0, float("nan"), float("inf"), 10**400):
            with pytest.raises(ConfigError):
                tiny_config(learning_rate=lr)
        for max_len in (0, 10**400):
            with pytest.raises(ConfigError):
                tiny_config(max_len=max_len)
        with pytest.raises(ConfigError):
            tiny_config(epochs=0)
        with pytest.raises(ConfigError):
            tiny_config(batch_size=1)
        with pytest.raises(ConfigError):
            tiny_config(gamma=2.0)
        with pytest.raises(ConfigError):
            tiny_config(seed=-1)
        with pytest.raises(ConfigError):
            tiny_config(eval_every=-1)


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
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="costnet"):
            train.predict_probability(ckpt, "ΩΩΩΩΩ")
        assert any("out-of-vocabulary" in r.message for r in caplog.records)

    def test_predict_probability_matches_evaluate_path(self, saved_presets):
        test = small_dga(n=15, seed=30, split="test")
        labels = np.array(test.labels)
        ckpts = [ckpt for ckpt, _ in saved_presets.values()]
        ckpts.append(train.train_naive_bayes(small_dga()))
        for ckpt in ckpts:
            probs = train.predict_probabilities(ckpt, test.texts)
            single = np.array([train.predict_probability(ckpt, t) for t in test.texts])
            assert probs.shape == (len(test),)
            if ckpt.preset == "naive_bayes":
                assert single.tobytes() == probs.tobytes()
            else:
                np.testing.assert_allclose(single, probs, rtol=0, atol=1e-6)
            pred = probs >= 0.5
            report = train.evaluate(ckpt, test)
            assert [report[k] for k in ("tp", "fp", "fn", "tn")] == [
                int(np.count_nonzero(pred & (labels == 1))),
                int(np.count_nonzero(pred & (labels == 0))),
                int(np.count_nonzero(~pred & (labels == 1))),
                int(np.count_nonzero(~pred & (labels == 0))),
            ]
            with pytest.raises(ContractError):
                train.predict_probabilities(ckpt, [])


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_layers_are_called_through_replaceable_module_names(monkeypatch):
    """Every layer a tracer times by replacing a module attribute is reached by that name.

    A local alias of one of these functions would hide its calls from such a
    tracer, and from the per-layer metrics it reports.
    """
    calls = {}
    for module, name in [
        (train, "encode_batch"),
        (train, "ngram_counts"),
        (train, "nb_train"),
        (train, "nb_positive_probability"),
        (train, "weighted_bce"),
        (train, "adam_step"),
        (models, "build_model"),
        (models, "forward"),
    ]:
        calls[name] = 0
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))

    def called(step) -> set[str]:
        for name in calls:
            calls[name] = 0
        step()
        return {name for name, n in calls.items() if n}

    ds = small_dga(n=10)
    neural = []
    assert called(lambda: neural.append(train.train(ds, tiny_config(epochs=1))[0])) == {
        "encode_batch", "build_model", "forward", "weighted_bce", "adam_step",
    }
    assert called(lambda: train.evaluate(neural[0], ds)) == {"encode_batch", "forward"}
    assert called(lambda: train.predict_probability(neural[0], "abc.com")) == {
        "encode_batch", "forward",
    }
    nb = []
    assert called(lambda: nb.append(train.train_naive_bayes(ds))) == {"ngram_counts", "nb_train"}
    assert called(lambda: train.evaluate(nb[0], ds)) == {"ngram_counts", "nb_positive_probability"}
    assert called(lambda: train.predict_probability(nb[0], "abc.com")) == {
        "ngram_counts", "nb_positive_probability",
    }


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

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_nb_non_finite_alpha_rejected(self, tmp_path, alpha):
        ckpt = train.train_naive_bayes(small_dga())
        ckpt.hyperparameters["alpha"] = alpha
        path = tmp_path / "nb.ckpt"
        train.save(ckpt, path)
        with pytest.raises(CheckpointError, match="alpha"):
            train.load(path)

    def test_nb_huge_int_alpha_rejected(self, tmp_path):
        # beyond float range, so nb_train could not have fitted it
        ckpt = train.train_naive_bayes(small_dga())
        ckpt.hyperparameters["alpha"] = 10**400
        path = tmp_path / "nb.ckpt"
        train.save(ckpt, path)
        with pytest.raises(CheckpointError, match="alpha"):
            train.load(path)

    def test_nb_n_range_past_the_text_scores_at_once(self, tmp_path):
        ckpt = train.train_naive_bayes(small_dga(), n_range=(1, 3))
        expected = train.predict_probability(ckpt, "abc")  # no n-gram of "abc" is longer than 3
        ckpt.hyperparameters["n_range"] = [1, 10**400]
        path = tmp_path / "nb.ckpt"
        train.save(ckpt, path)
        assert train.predict_probability(train.load(path), "abc") == expected

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["class_log_prior", "token_log_prob"])
    def test_nb_non_finite_table_rejected(self, tmp_path, name, value):
        ckpt = train.train_naive_bayes(small_dga())
        ckpt.weights[name] = ckpt.weights[name].copy()
        ckpt.weights[name].flat[-1] = value
        path = tmp_path / "nb.ckpt"
        train.save(ckpt, path)
        with pytest.raises(CheckpointError, match="NaN or Inf"):
            train.load(path)

    def test_nb_on_imbalanced_synthetic_shows_precision_over_recall(self):
        tr = gen_synthetic(GeneratorConfig("dga", 2000, 100, seed=21, split="train",
                                           malicious_range=(4, 8)))
        te = gen_synthetic(GeneratorConfig("dga", 300, 300, seed=22, split="test",
                                           malicious_range=(4, 8)))
        ckpt = train.train_naive_bayes(tr)
        report = train.evaluate(ckpt, te)
        assert report["precision"] > report["recall"]


# checkpoints saved by an earlier version of costnet: cnn and lstm at scaled_dims, trained
# on dga_tiny.csv (gamma 1, max_len 24, 2 epochs), and naive bayes; with the
# probabilities that version gave these texts
_SAVED_PROBABILITIES = {
    "cnn": [0.4328072667121887, 0.4943998157978058, 0.5208806991577148],
    "lstm": [0.49914678931236267, 0.5236455798149109, 0.5179261565208435],
    "naive_bayes": [8.870981698866633e-09, 0.9985692206452961, 0.7969705725831095],
}


@pytest.mark.parametrize("preset", sorted(_SAVED_PROBABILITIES))
def test_saved_fixture_loads_scores_and_resaves_byte_identical(tmp_path, preset):
    path = Path(__file__).parent / "fixtures" / f"dga_tiny_{preset}.ckpt"
    ckpt = train.load(path)
    texts = ["maplecanyon.com", "xkqzvbwpt.net", "Zz9-unknown!"]
    assert [train.predict_probability(ckpt, t) for t in texts] == _SAVED_PROBABILITIES[preset]
    train.save(ckpt, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


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


def _scoring_threads(monkeypatch, cpus, blas):
    """Make scoring see ``cpus`` usable CPUs and a BLAS reporting ``blas`` threads."""
    monkeypatch.setattr(train, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(train, "_blas_threads", lambda: blas)


def _fail_off_the_calling_thread(monkeypatch) -> DataError:
    """Make ``models.forward`` raise in any thread but this one; returns the error.

    The first two calls wait for each other, so two chunks are scored at once
    and one of them is not on this thread.
    """
    err = DataError("chunk went bad")
    caller, forward = threading.current_thread(), models.forward
    meet, calls = threading.Barrier(2, timeout=30), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) <= 2:
            meet.wait()
        if threading.current_thread() is not caller:
            raise err
        return forward(*args, **kwargs)

    monkeypatch.setattr(models, "forward", failing)
    return err


@pytest.fixture(scope="module")
def many():
    """600 held-out rows: three scoring chunks of 200."""
    return small_dga(n=300, seed=30, split="test")


class TestThreadedScoring:
    @pytest.mark.parametrize("preset", models.PRESETS)
    def test_threaded_and_serial_probabilities_are_byte_identical(
        self, saved_presets, monkeypatch, many, preset
    ):
        ckpt, _ = saved_presets[preset]
        for texts in (many.texts, many.texts[:200]):  # three chunks of 200, two of 100
            _scoring_threads(monkeypatch, 2, 1)
            threaded = train.predict_probabilities(ckpt, texts)
            _scoring_threads(monkeypatch, 2, None)
            serial = train.predict_probabilities(ckpt, texts)
            assert threaded.shape == (len(texts),)
            assert threaded.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("rows, bounds", [
        (1, [0, 1]),
        (199, [0, 199]),
        (200, [0, 100, 200]),  # two chunks of _MIN_CHUNK rows
        (256, [0, 128, 256]),
        (257, [0, 128, 257]),
        (512, [0, 256, 512]),
        (513, [0, 171, 342, 513]),
    ])
    def test_chunk_bounds_follow_the_row_count(self, monkeypatch, rows, bounds):
        _scoring_threads(monkeypatch, 1, 1)
        seen = []

        def record_rows(spec, params, chunk, mode):
            seen.append((int(chunk[0, 0]), int(chunk[-1, 0]) + 1))
            return ad.Tensor(np.zeros(len(chunk), dtype=np.float32))

        monkeypatch.setattr(models, "forward", record_rows)
        probs = train._forward_all(None, None, np.arange(rows).reshape(rows, 1))
        assert probs.shape == (rows,)
        assert seen == list(zip(bounds, bounds[1:]))

    def test_chunks_run_at_once_when_blas_runs_one_thread(self, saved_presets, monkeypatch, many):
        ckpt, _ = saved_presets["cnn"]
        _scoring_threads(monkeypatch, 2, 1)
        # two chunks each time; each waits until the other is in flight too
        meet = threading.Barrier(2, timeout=30)
        forward = models.forward

        def meeting(*args, **kwargs):
            meet.wait()
            return forward(*args, **kwargs)

        monkeypatch.setattr(models, "forward", meeting)
        for rows in (300, 200):
            assert train.predict_probabilities(ckpt, many.texts[:rows]).shape == (rows,)

    def test_many_threads_score_every_chunk_once(self, saved_presets, monkeypatch, many):
        # more threads than cores, a thread switch every microsecond, 3-row chunks
        ckpt, _ = saved_presets["lstm"]
        monkeypatch.setattr(train, "_EVAL_BATCH", 3)
        _scoring_threads(monkeypatch, 1, 1)
        serial = train.predict_probabilities(ckpt, many.texts[:100])
        _scoring_threads(monkeypatch, 8, 1)
        forward, calls = models.forward, []

        def counting(*args, **kwargs):
            calls.append(None)
            return forward(*args, **kwargs)

        monkeypatch.setattr(models, "forward", counting)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: got.append(train.predict_probabilities(ckpt, many.texts[:100]))
            )
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert len(calls) == 34  # ceil(100 / 3) chunks
        assert got[0].tobytes() == serial.tobytes()

    @pytest.mark.parametrize("cpus, blas, rows", [
        (1, 1, 600),  # one usable CPU
        (2, 2, 600),  # BLAS runs threads of its own
        (2, None, 600),  # BLAS thread count unknown
        (2, 1, 199),  # one chunk
    ])
    def test_scores_on_the_calling_thread_otherwise(
        self, saved_presets, monkeypatch, many, cpus, blas, rows
    ):
        ckpt, _ = saved_presets["cnn"]
        _scoring_threads(monkeypatch, cpus, blas)

        def refuse(*args, **kwargs):
            raise AssertionError("scoring started a thread")

        forward, scorers = models.forward, set()

        def recording(*args, **kwargs):
            scorers.add(threading.get_ident())
            return forward(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", refuse)
        monkeypatch.setattr(models, "forward", recording)
        assert train.predict_probabilities(ckpt, many.texts[:rows]).shape == (rows,)
        # a scoring thread kept from an earlier call is not used either
        assert scorers == {threading.get_ident()}

    def test_each_chunk_set_keeps_its_thread_from_call_to_call(self, monkeypatch):
        _scoring_threads(monkeypatch, 2, 1)
        seen = []

        def record_thread(spec, params, chunk, mode):
            seen.append((int(chunk[0, 0]), threading.get_ident()))
            return ad.Tensor(np.zeros(len(chunk), dtype=np.float32))

        monkeypatch.setattr(models, "forward", record_thread)
        calls = []
        for _ in range(3):
            seen.clear()
            assert train._forward_all(None, None, np.arange(600).reshape(600, 1)).shape == (600,)
            calls.append(dict(seen))
        caller = threading.get_ident()
        assert calls[0][0] == calls[0][400] == caller  # chunks 0 and 2
        assert calls[0][200] != caller  # chunk 1
        assert calls[1] == calls[2] == calls[0]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_scores_on_threads_of_its_own(self, monkeypatch):
        _scoring_threads(monkeypatch, 2, 1)
        monkeypatch.setattr(
            models, "forward", lambda spec, params, chunk, mode: ad.Tensor(np.zeros(len(chunk), dtype=np.float32))
        )
        ids = np.arange(200).reshape(200, 1)
        train._forward_all(None, None, ids)  # the parent's scoring thread now exists
        pid = os.fork()
        if pid == 0:  # the child never returns into pytest
            code = 1
            try:
                code = 0 if train._forward_all(None, None, ids).shape == (200,) else 1
            finally:
                os._exit(code)
        for _ in range(300):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.1)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's scoring did not finish within 30 s")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_a_worker_threads_error_reaches_the_caller(self, saved_presets, monkeypatch, many):
        ckpt, _ = saved_presets["cnn"]
        _scoring_threads(monkeypatch, 2, 1)
        err = _fail_off_the_calling_thread(monkeypatch)
        with pytest.raises(DataError) as caught:
            train.evaluate(ckpt, many)
        assert caught.value is err

    def test_cli_reports_a_worker_threads_error_on_one_line(
        self, saved_presets, monkeypatch, many, tmp_path, capsys
    ):
        _, path = saved_presets["cnn"]
        test_csv = tmp_path / "many.csv"
        save_csv(many, test_csv)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        _scoring_threads(monkeypatch, 2, 1)
        _fail_off_the_calling_thread(monkeypatch)
        code = cli.main(["evaluate", "--model", str(path), "--test", str(test_csv)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and hooked == []
        assert captured.err.splitlines() == ["error: chunk went bad"]


def _glibc_mallinfo2():
    """glibc's ``mallinfo2`` through a handle of its own, or None before glibc 2.33 or off glibc."""
    if train._glibc() is None:
        return None
    import ctypes

    fn = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if fn is None:
        return None

    class MallInfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
        )]

    fn.restype = MallInfo2
    return fn


@pytest.mark.skipif(_glibc_mallinfo2() is None, reason="needs glibc 2.33 or later")
def test_mmap_threshold_stays_pinned_after_a_large_block_is_freed():
    mallinfo2 = _glibc_mallinfo2()
    # glibc's own rule would lift its mmap threshold to 30 MiB on this free
    block = np.ones(30 << 20, dtype=np.uint8)
    del block
    before = mallinfo2().hblkhd
    block = np.ones(20 << 20, dtype=np.uint8)
    mapped = mallinfo2().hblkhd - before
    del block
    assert train._MMAP_THRESHOLD <= 20 << 20 <= mapped


def test_training_first_hands_free_heap_pages_back(monkeypatch):
    events = []
    monkeypatch.setattr(train, "_release_free_heap", lambda: events.append("release"))
    build = models.build_model

    def building(*args, **kwargs):
        events.append("build")
        return build(*args, **kwargs)

    monkeypatch.setattr(models, "build_model", building)
    train.train(small_dga(), tiny_config(epochs=1))
    assert events == ["release", "build"]


@pytest.mark.parametrize("preset", models.PRESETS)
def test_pad_row_stays_zero_through_training(preset):
    ckpt, _ = train.train(small_dga(), tiny_config(preset=preset))
    pad_row = ckpt.weights["00.embedding.table"][PAD_ID]
    assert pad_row.tobytes() == np.zeros_like(pad_row).tobytes()
    assert np.abs(ckpt.weights["00.embedding.table"][PAD_ID + 1 :]).max() > 0


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


# The cnn keeps its default widths: there the folded conv's GEMMs (dP is
# 120 x 2432 by 2432 x 64 at batch 64) and the dense layer pass that threshold.
_TRAIN_CNN = """
import sys
from costnet import autodiff as ad, trainer
from costnet.data import GeneratorConfig, gen_synthetic
conv, lookups = ad.conv1d_valid, []
ad.conv1d_valid = lambda x, *args: lookups.append(isinstance(x, ad.Lookup)) or conv(x, *args)
ds = gen_synthetic(GeneratorConfig("dga", 64, 64, seed=3, split="train"))
cfg = trainer.TrainConfig(
    learning_rate=0.01, epochs=2, batch_size=64, seed=0, gamma=1.0,
    preset="cnn", max_len=40,
)
ckpt, _ = trainer.train(ds, cfg)
assert lookups and all(lookups), "the cnn's conv did not read an embedding lookup"
trainer.save(ckpt, sys.argv[1])
"""


# cnn_lstm keeps its default widths. Its recurrent layer reads relu output,
# so it trains the general lstm path, whose input projection over all 19 steps
# (1216 x 64 by 64 x 200 at batch 64) passes that threshold, as do the folded
# conv's GEMMs.
_TRAIN_CNN_LSTM = """
import sys
from costnet import autodiff as ad, trainer
from costnet.data import GeneratorConfig, gen_synthetic
lstm, lookups = ad.lstm, []
ad.lstm = lambda x, *args: lookups.append(isinstance(x, ad.Lookup)) or lstm(x, *args)
ds = gen_synthetic(GeneratorConfig("dga", 64, 64, seed=3, split="train"))
cfg = trainer.TrainConfig(
    learning_rate=0.01, epochs=2, batch_size=64, seed=0, gamma=1.0,
    preset="cnn_lstm", max_len=40,
)
ckpt, _ = trainer.train(ds, cfg)
assert lookups and not any(lookups), "cnn_lstm's lstm read an embedding lookup"
trainer.save(ckpt, sys.argv[1])
"""


# The dnn keeps its default widths: its flattened 40 x 128 input makes the
# first dense layer a 64 x 5120 by 5120 x 512 GEMM at batch 64.
_TRAIN_DNN = """
import sys
from costnet import trainer
from costnet.data import GeneratorConfig, gen_synthetic
ds = gen_synthetic(GeneratorConfig("dga", 64, 64, seed=3, split="train"))
cfg = trainer.TrainConfig(
    learning_rate=0.01, epochs=2, batch_size=64, seed=0, gamma=1.0,
    preset="dnn", max_len=40,
)
ckpt, _ = trainer.train(ds, cfg)
trainer.save(ckpt, sys.argv[1])
"""


def _checkpoint_bytes_under_blas_threads(tmp_path, script) -> list[bytes]:
    """The checkpoint ``script`` writes when run under 1 and under 2 BLAS threads."""
    written = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(train.__file__).parents[1]),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        path = tmp_path / f"threads{threads}.ckpt"
        subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True, timeout=300)
        written.append(path.read_bytes())
    return written


def test_lstm_checkpoint_bytes_equal_under_one_and_two_blas_threads(tmp_path):
    one, two = _checkpoint_bytes_under_blas_threads(tmp_path, _TRAIN_LSTM)
    assert one == two


def test_cnn_checkpoint_bytes_equal_under_one_and_two_blas_threads(tmp_path):
    one, two = _checkpoint_bytes_under_blas_threads(tmp_path, _TRAIN_CNN)
    assert one == two


def test_cnn_lstm_checkpoint_bytes_equal_under_one_and_two_blas_threads(tmp_path):
    one, two = _checkpoint_bytes_under_blas_threads(tmp_path, _TRAIN_CNN_LSTM)
    assert one == two


def test_dnn_checkpoint_bytes_equal_under_one_and_two_blas_threads(tmp_path):
    one, two = _checkpoint_bytes_under_blas_threads(tmp_path, _TRAIN_DNN)
    assert one == two
