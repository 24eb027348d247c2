import ast
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from costnet import autodiff as ad
from costnet import models
from costnet.errors import ConfigError, DataError, EncodingError
from costnet.loss import compute_class_weights, weighted_bce
from costnet.text import PAD_ID, encode_batch, fit_vocab

TINY = models.scaled_dims()


def random_ids(rng, n, max_len, vocab_size, pad_tail=0):
    ids = rng.integers(2, vocab_size, size=(n, max_len))
    if pad_tail:
        ids[:, -pad_tail:] = PAD_ID
    return ids


class TestBuildModel:
    def test_cnn_kernel_shape(self):
        spec, params = models.build_model("cnn", 40, 100, seed=0)
        assert params["01.conv1d.kernels"].shape == (3, 128, 64)

    def test_lstm_parameter_count(self):
        spec, params = models.build_model("lstm", 40, 100, seed=0)
        n = sum(t.size for k, t in params.items() if ".lstm." in k)
        assert n == 4 * (128 * (128 + 128) + 128) == 131_584

    def test_dnn_hidden_widths(self):
        spec, _ = models.build_model("dnn", 40, 100, seed=0)
        widths = [l.units for l in spec.layers if l.kind == "dense"]
        assert widths == [512, 384, 256, 128, 1]

    def test_presets_start_with_embedding_end_with_sigmoid_head(self):
        for preset in models.PRESETS:
            spec, _ = models.build_model(preset, 30, 50, seed=1)
            assert spec.layers[0].kind == "embedding" and spec.layers[0].dim == 128
            assert spec.layers[-1].kind == "dense" and spec.layers[-1].units == 1
        # the sigmoid head is applied by infer mode to the train-mode logit
        dims = replace(TINY, head_dropout=0.0)
        spec, params = models.build_model("cnn", 20, 12, seed=1, dims=dims)
        ids = random_ids(np.random.default_rng(5), 4, 12, 20)
        logits = models.forward(spec, params, ids, mode="train", rng=np.random.default_rng(0))
        probs = models.forward(spec, params, ids, mode="infer")
        assert ad.sigmoid(logits).data.tobytes() == probs.data.tobytes()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            models.build_model("transformer", 40, 100, seed=0)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            models.build_model("cnn", 1, 100, seed=0)
        with pytest.raises(ConfigError):
            models.build_model("cnn", 40, 2, seed=0)

    @pytest.mark.parametrize("preset", models.PRESETS)
    def test_max_len_past_the_limit_refused(self, preset):
        # model_spec only computes shapes, so no size here allocates anything
        models.model_spec(preset, 40, models.MAX_LEN_LIMIT)
        for max_len in (models.MAX_LEN_LIMIT + 1, 10**20):
            with pytest.raises(ConfigError, match="max_len"):
                models.model_spec(preset, 40, max_len)

    def test_same_seed_same_weights(self):
        _, a = models.build_model("cnn", 40, 30, seed=9)
        _, b = models.build_model("cnn", 40, 30, seed=9)
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)

    # sha256 of each preset's initial arrays, in name order, at default dims:
    # pins the init draw order and the glorot fans that come from each shape
    INITIAL_DIGESTS = {
        "dnn": "7e55607892d0f8cba7506dcda1841d2eb5ba2ef747d1b42b7abb807e54e7b7c4",
        "cnn": "a2b78daab5085388870c77e18767b5fe588aba2af669815a1b8367dbfcf4685f",
        "lstm": "5e6a1ec74162389710da6977099371ae841648cb8244d3e1ec02e9cee2b0ae1b",
        "cnn_lstm": "722f5cdb994fb62319a904edd113b7fb610dd1e30142018456b690ab5d62e149",
    }

    @pytest.mark.parametrize("preset", models.PRESETS)
    def test_initial_weights_are_pinned(self, preset):
        _, params = models.build_model(preset, 40, 100, seed=0)
        digest = hashlib.sha256()
        for name in sorted(params):
            digest.update(params[name].data.tobytes())
        assert digest.hexdigest() == self.INITIAL_DIGESTS[preset]

    def test_pad_row_zero_at_init(self):
        _, params = models.build_model("cnn", 40, 30, seed=3)
        np.testing.assert_array_equal(params["00.embedding.table"].data[PAD_ID], 0.0)

    def test_forget_gate_bias_starts_at_one(self):
        _, params = models.build_model("lstm", 40, 30, seed=3)
        b = params["01.lstm.b"].data
        h = 128
        np.testing.assert_array_equal(b[h : 2 * h], 1.0)
        np.testing.assert_array_equal(b[:h], 0.0)


class TestShapeChain:
    def test_cnn_lstm_length_arithmetic(self):
        spec, _ = models.build_model("cnn_lstm", 40, 100, seed=0)
        shapes = models.output_shapes(spec)
        by_kind = {l.kind: s for l, s in zip(spec.layers, shapes)}
        assert by_kind["conv1d"][0] == 98
        assert by_kind["maxpool1d"][0] == 49

    def test_rejects_conv_without_room(self):
        with pytest.raises(ConfigError):
            models.build_model("cnn", 40, 3, seed=0)  # conv ok but pool of 1 fails

    def test_dnn_flatten_width(self):
        spec, _ = models.build_model("dnn", 40, 20, seed=0)
        shapes = models.output_shapes(spec)
        flat = shapes[[l.kind for l in spec.layers].index("flatten")]
        assert flat == (20 * 128,)


class TestLstmLayer:
    def test_zero_weights_zero_output(self):
        _, params = models.build_model("lstm", 10, 5, seed=0, dims=TINY)
        for key in list(params):
            if ".lstm." in key:
                params[key].data[:] = 0.0
        rng = np.random.default_rng(0)
        ids = random_ids(rng, 3, 5, 10)
        x = ad.embedding(params["00.embedding.table"], ids)
        out = ad.lstm(
            x,
            params["01.lstm.w_x"],
            params["01.lstm.w_h"],
            params["01.lstm.b"],
        )
        np.testing.assert_array_equal(out.data, 0.0)


class TestForward:
    def test_cnn_probabilities_in_open_interval(self):
        spec, params = models.build_model("cnn", 40, 100, seed=0)
        ids = random_ids(np.random.default_rng(1), 32, 100, 40)
        probs = models.forward(spec, params, ids, mode="infer")
        assert probs.shape == (32,)
        assert (probs.data > 0).all() and (probs.data < 1).all()

    def test_infer_mode_deterministic(self):
        spec, params = models.build_model("cnn_lstm", 30, 40, seed=2, dims=TINY)
        ids = random_ids(np.random.default_rng(5), 8, 40, 30)
        a = models.forward(spec, params, ids, mode="infer")
        b = models.forward(spec, params, ids, mode="infer")
        np.testing.assert_array_equal(a.data, b.data)

    def test_train_mode_dropout_needs_rng(self):
        spec, params = models.build_model("cnn", 20, 12, seed=0, dims=TINY)
        ids = random_ids(np.random.default_rng(3), 4, 12, 20)
        with pytest.raises(ConfigError):
            models.forward(spec, params, ids, mode="train", rng=None)

    def test_out_of_vocab_ids_rejected(self):
        spec, params = models.build_model("cnn", 20, 12, seed=0, dims=TINY)
        ids = np.full((2, 12), 25)
        with pytest.raises(EncodingError):
            models.forward(spec, params, ids, mode="infer")

    def test_bad_mode(self):
        spec, params = models.build_model("cnn", 20, 12, seed=0, dims=TINY)
        ids = random_ids(np.random.default_rng(3), 4, 12, 20)
        with pytest.raises(ConfigError):
            models.forward(spec, params, ids, mode="test")

    def test_pad_positions_leave_embedding_row_untouched(self):
        spec, params = models.build_model("cnn", 20, 12, seed=4, dims=TINY)
        ids = random_ids(np.random.default_rng(7), 6, 12, 20, pad_tail=5)
        w = compute_class_weights([1, 1], gamma=0.0)
        with ad.Tape() as tape:
            logits = models.forward(spec, params, ids, mode="train", rng=np.random.default_rng(0))
            out = weighted_bce(logits, np.ones(6, dtype=int), w)
        table = params["00.embedding.table"]
        g = tape.gradients(out)[table]
        np.testing.assert_array_equal(g[PAD_ID], 0.0)
        assert np.abs(g[2:]).sum() > 0

    def test_dnn_first_dense_layer_reads_the_filled_positions_of_the_lookup(self):
        spec, params = models.build_model("dnn", 20, 12, seed=4, dims=TINY)
        ids = random_ids(np.random.default_rng(7), 6, 12, 20, pad_tail=5)
        w = compute_class_weights([1, 1], gamma=0.0)
        table, dense_w = params["00.embedding.table"], params["02.dense.w"]
        with ad.Tape() as tape:
            logits = models.forward(spec, params, ids, mode="train", rng=np.random.default_rng(0))
            out = weighted_bce(logits, np.ones(6, dtype=int), w)
        assert tape._nodes[0].inputs == (table, dense_w)  # no gather node before it
        grads = tape.gradients(out)
        live = 7 * TINY.embed_dim
        assert not grads[dense_w][live:].any() and np.abs(grads[dense_w][:live]).max() > 0
        assert not grads[table][PAD_ID].any()

    @pytest.mark.parametrize("mode", ["infer", "train"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("preset", models.PRESETS)
    def test_non_finite_embedding_table_rejected(self, preset, value, mode):
        spec, params = models.build_model(preset, 20, 12, seed=0, dims=TINY)
        ids = random_ids(np.random.default_rng(2), 4, 12, 20)
        # a row the batch reads, in place, as a diverged optimizer step would
        params["00.embedding.table"].data[ids[0, 0], 0] = value
        with pytest.raises(DataError):
            models.forward(spec, params, ids, mode=mode, rng=np.random.default_rng(0))

    def test_forward_on_real_encoded_text(self):
        vocab = fit_vocab(["abc.com", "xyz.net"])
        spec, params = models.build_model("lstm", vocab.size, 10, seed=0, dims=TINY)
        ids = encode_batch(["abc.com", "zz.net"], vocab, 10)
        probs = models.forward(spec, params, ids, mode="infer")
        assert probs.shape == (2,)


#: the ops a tracer times by replacing ``costnet.autodiff`` attributes
TRACED_OPS = ("embedding", "conv1d_valid", "maxpool1d", "lstm", "matmul", "batchnorm")
PRESET_OP_CALLS = {
    "dnn": {"embedding": 1, "matmul": 5, "batchnorm": 3},
    "cnn": {"embedding": 1, "conv1d_valid": 1, "maxpool1d": 1, "matmul": 2},
    "lstm": {"embedding": 1, "lstm": 1, "matmul": 1},
    "cnn_lstm": {"embedding": 1, "conv1d_valid": 1, "maxpool1d": 1, "lstm": 1, "matmul": 1},
}


def _perfbench_constant(module: str, name: str):
    """The literal a perfbench module assigns to ``name``, read without importing it."""
    path = Path(__file__).parents[1] / "perfbench" / f"{module}.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{module}.py assigns no {name}")


def test_op_tables_agree_with_perfbench():
    # perfbench times exactly these ops per preset; a preset that stops
    # calling one leaves a layer untimed there
    assert _perfbench_constant("tracing", "AD_OPS") == TRACED_OPS
    preset_ops = _perfbench_constant("workloads", "PRESET_OPS")
    assert set(preset_ops) == set(PRESET_OP_CALLS) == set(models.PRESETS)
    for preset, calls in PRESET_OP_CALLS.items():
        assert set(preset_ops[preset]) == {op for op, n in calls.items() if n > 0}


def _counting(calls, op, fn):
    def counted(*args, **kwargs):
        calls[op] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("mode", ["infer", "train"])
@pytest.mark.parametrize("preset", models.PRESETS)
def test_forward_looks_ops_up_on_the_module_at_call_time(monkeypatch, preset, mode):
    spec, params = models.build_model(preset, 20, 12, seed=0, dims=TINY)
    calls = dict.fromkeys(TRACED_OPS, 0)
    for op in TRACED_OPS:
        monkeypatch.setattr(ad, op, _counting(calls, op, getattr(ad, op)))
    ids = random_ids(np.random.default_rng(2), 4, 12, 20)
    models.forward(spec, params, ids, mode=mode, rng=np.random.default_rng(0))
    assert calls == {**dict.fromkeys(TRACED_OPS, 0), **PRESET_OP_CALLS[preset]}


class TestEndToEndGradients:
    @pytest.mark.parametrize("preset", models.PRESETS)
    def test_preset_gradcheck(self, preset):
        rng = np.random.default_rng(123)
        spec, params = models.build_model(
            preset, 13, 8, seed=11, dims=TINY, dtype=np.float64
        )
        # pad-free batch: the frozen pad row is a constrained constant, so it
        # is not a free coordinate for the finite-difference probe
        ids = random_ids(rng, 3, 8, 13)
        labels = np.array([0, 1, 1])
        weights = compute_class_weights([2, 1], gamma=1.0)
        names = sorted(name for name, t in params.items() if t.requires_grad)
        tensors = [params[n] for n in names]

        def f(*leaves):
            for name, leaf in zip(names, leaves):
                params[name] = leaf
            # fresh generator per call keeps train-mode dropout fixed for
            # the finite-difference probes
            logits = models.forward(
                spec, params, ids, mode="train", rng=np.random.default_rng(99)
            )
            return weighted_bce(logits, labels, weights)

        assert ad.grad_check(f, tensors) < 1e-4
