import numpy as np
import pytest

from costnet import autodiff as ad
from costnet import models
from costnet.errors import ConfigError, EncodingError
from costnet.loss import compute_class_weights, weighted_bce
from costnet.text import PAD_ID, EncodedBatch, encode_batch, fit_vocab

TINY = models.scaled_dims()


def random_batch(rng, n, max_len, vocab_size, pad_tail=0):
    ids = rng.integers(2, vocab_size, size=(n, max_len))
    if pad_tail:
        ids[:, -pad_tail:] = PAD_ID
    lengths = np.full(n, max_len - pad_tail)
    return EncodedBatch(ids=ids, lengths=lengths)


class TestBuildModel:
    def test_cnn_kernel_shape(self):
        spec, params = models.build_model("cnn", 40, 100, seed=0)
        assert params.tensors["01.conv1d.kernels"].shape == (3, 128, 64)

    def test_lstm_parameter_count(self):
        spec, params = models.build_model("lstm", 40, 100, seed=0)
        n = sum(
            params.tensors[k].size
            for k in params.tensors
            if ".lstm." in k
        )
        assert n == 4 * (128 * (128 + 128) + 128) == 131_584

    def test_dnn_hidden_widths(self):
        spec, _ = models.build_model("dnn", 40, 100, seed=0)
        widths = [l.units for l in spec.layers if l.kind == "dense"]
        assert widths == [512, 384, 256, 128, 1]

    def test_presets_start_with_embedding_end_with_sigmoid_head(self):
        for preset in models.PRESETS:
            spec, _ = models.build_model(preset, 30, 50, seed=1)
            assert spec.layers[0].kind == "embedding" and spec.layers[0].dim == 128
            assert spec.layers[-2].kind == "dense" and spec.layers[-2].units == 1
            assert spec.layers[-1].kind == "sigmoid"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            models.build_model("transformer", 40, 100, seed=0)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            models.build_model("cnn", 1, 100, seed=0)
        with pytest.raises(ConfigError):
            models.build_model("cnn", 40, 2, seed=0)

    def test_same_seed_same_weights(self):
        _, a = models.build_model("cnn", 40, 30, seed=9)
        _, b = models.build_model("cnn", 40, 30, seed=9)
        for k in a.tensors:
            np.testing.assert_array_equal(a.tensors[k].data, b.tensors[k].data)

    def test_pad_row_zero_at_init(self):
        _, params = models.build_model("cnn", 40, 30, seed=3)
        np.testing.assert_array_equal(params.tensors["00.embedding.table"].data[PAD_ID], 0.0)

    def test_forget_gate_bias_starts_at_one(self):
        _, params = models.build_model("lstm", 40, 30, seed=3)
        b = params.tensors["01.lstm.b"].data
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
        for key in list(params.tensors):
            if ".lstm." in key:
                params.tensors[key].data[:] = 0.0
        rng = np.random.default_rng(0)
        batch = random_batch(rng, 3, 5, 10)
        x = ad.embedding(params.tensors["00.embedding.table"], batch.ids)
        out = ad.lstm(
            x,
            params.tensors["01.lstm.w_x"],
            params.tensors["01.lstm.w_h"],
            params.tensors["01.lstm.b"],
        )
        np.testing.assert_array_equal(out.data, 0.0)


class TestForward:
    def test_cnn_probabilities_in_open_interval(self):
        spec, params = models.build_model("cnn", 40, 100, seed=0)
        batch = random_batch(np.random.default_rng(1), 32, 100, 40)
        probs = models.forward(spec, params, batch, mode="infer")
        assert probs.shape == (32,)
        assert (probs.data > 0).all() and (probs.data < 1).all()

    def test_infer_mode_deterministic(self):
        spec, params = models.build_model("cnn_lstm", 30, 40, seed=2, dims=TINY)
        batch = random_batch(np.random.default_rng(5), 8, 40, 30)
        a = models.forward(spec, params, batch, mode="infer")
        b = models.forward(spec, params, batch, mode="infer")
        np.testing.assert_array_equal(a.data, b.data)

    def test_train_mode_dropout_needs_rng(self):
        spec, params = models.build_model("cnn", 20, 12, seed=0, dims=TINY)
        batch = random_batch(np.random.default_rng(3), 4, 12, 20)
        with pytest.raises(ConfigError):
            models.forward(spec, params, batch, mode="train", rng=None)

    def test_out_of_vocab_ids_rejected(self):
        spec, params = models.build_model("cnn", 20, 12, seed=0, dims=TINY)
        ids = np.full((2, 12), 25)
        with pytest.raises(EncodingError):
            models.forward(spec, params, EncodedBatch(ids, np.full(2, 12)), mode="infer")

    def test_bad_mode(self):
        spec, params = models.build_model("cnn", 20, 12, seed=0, dims=TINY)
        batch = random_batch(np.random.default_rng(3), 4, 12, 20)
        with pytest.raises(ConfigError):
            models.forward(spec, params, batch, mode="test")

    def test_pad_positions_leave_embedding_row_untouched(self):
        spec, params = models.build_model("cnn", 20, 12, seed=4, dims=TINY)
        batch = random_batch(np.random.default_rng(7), 6, 12, 20, pad_tail=5)
        w = compute_class_weights([1, 1], gamma=0.0)
        with ad.Tape() as tape:
            probs = models.forward(spec, params, batch, mode="infer")
            out = weighted_bce(probs, np.ones(6, dtype=int), w)
        table = params.tensors["00.embedding.table"]
        g = tape.gradients(out)[table]
        np.testing.assert_array_equal(g[PAD_ID], 0.0)
        assert np.abs(g[2:]).sum() > 0

    def test_forward_on_real_encoded_text(self):
        vocab = fit_vocab(["abc.com", "xyz.net"])
        spec, params = models.build_model("lstm", vocab.size, 10, seed=0, dims=TINY)
        batch = encode_batch(["abc.com", "zz.net"], vocab, 10)
        probs = models.forward(spec, params, batch, mode="infer")
        assert probs.shape == (2,)


class TestEndToEndGradients:
    @pytest.mark.parametrize("preset", models.PRESETS)
    def test_preset_gradcheck(self, preset):
        rng = np.random.default_rng(123)
        spec, params = models.build_model(
            preset, 13, 8, seed=11, dims=TINY, dtype=np.float64
        )
        # pad-free batch: the frozen pad row is a constrained constant, so it
        # is not a free coordinate for the finite-difference probe
        batch = random_batch(rng, 3, 8, 13)
        labels = np.array([0, 1, 1])
        weights = compute_class_weights([2, 1], gamma=1.0)
        names = sorted(params.tensors)
        tensors = [params.tensors[n] for n in names]

        def f(*leaves):
            for name, leaf in zip(names, leaves):
                params.tensors[name] = leaf
            # fresh generator per call keeps train-mode dropout fixed for
            # the finite-difference probes
            probs = models.forward(
                spec, params, batch, mode="train", rng=np.random.default_rng(99)
            )
            return weighted_bce(probs, labels, weights)

        assert ad.grad_check(f, tensors) < 1e-4
