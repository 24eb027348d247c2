import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costnet import autodiff as ad
from costnet import loss
from costnet.errors import ConfigError, DataError, ShapeError


class TestComputeClassWeights:
    def test_published_dga_counts_gamma_one(self):
        w = loss.compute_class_weights([38276, 53052], gamma=1.0)
        assert w.raw == (1 / 38276, 1 / 53052)

    def test_gamma_zero_is_cost_insensitive(self):
        w = loss.compute_class_weights([123, 45678], gamma=0.0)
        assert w.raw == (1.0, 1.0)
        assert w.normalized == (1.0, 1.0)

    def test_hand_arithmetic_nine_one(self):
        w = loss.compute_class_weights([9, 1], gamma=1.0)
        assert w.raw == (1 / 9, 1.0)
        assert w.normalized == pytest.approx((5 / 9, 5.0), rel=1e-12)

    def test_normalization_preserves_total_weight(self):
        w = loss.compute_class_weights([10000, 500], gamma=0.7)
        total = sum(c * nw for c, nw in zip(w.counts, w.normalized))
        assert total == pytest.approx(10500, rel=1e-9)

    def test_gamma_one_ratio_is_count_ratio(self):
        w = loss.compute_class_weights([10000, 500], gamma=1.0)
        assert w.raw[1] / w.raw[0] == 10000 / 500
        assert w.normalized[1] / w.normalized[0] == pytest.approx(20.0, rel=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(DataError):
            loss.compute_class_weights([0, 5], gamma=1.0)
        with pytest.raises(ConfigError):
            loss.compute_class_weights([1, 5], gamma=1.5)

    @given(
        n0=st.integers(1, 10**6),
        n1=st.integers(1, 10**6),
        # strictness needs gamma bounded away from 0: below ~1e-16 the raw
        # weights of nearby counts round to the same float
        gamma=st.floats(1e-3, 1.0, allow_nan=False),
    )
    def test_minority_weight_dominates(self, n0, n1, gamma):
        if n0 == n1:
            return
        w = loss.compute_class_weights([n0, n1], gamma)
        minority = 0 if n0 < n1 else 1
        assert w.raw[minority] > w.raw[1 - minority]
        assert w.normalized[minority] > w.normalized[1 - minority]

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("factor", [2, 7, 100])
    def test_normalized_invariant_under_count_scaling(self, gamma, factor):
        a = loss.compute_class_weights([900, 60], gamma)
        b = loss.compute_class_weights([900 * factor, 60 * factor], gamma)
        assert a.normalized == pytest.approx(b.normalized, rel=1e-12)

    def test_gamma_continuity(self):
        gammas = np.linspace(0, 1, 21)
        ws = [loss.compute_class_weights([1000, 10], g).raw for g in gammas]
        ratios = [w[1] / w[0] for w in ws]
        assert ratios[0] == 1.0 and ratios[-1] == 100.0
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))


def closed_form(z, y, w):
    """Float64 reference: w * (max(z, 0) - y z + ln(1 + e^-|z|)) and its z-derivative."""
    z, y, w = (np.asarray(v, dtype=np.float64) for v in (z, y, w))
    value = w * (np.maximum(z, 0) - y * z + np.log1p(np.exp(-np.abs(z))))
    e = np.exp(-np.abs(z))
    sigmoid = np.where(z >= 0, 1 / (1 + e), e / (1 + e))
    return value, w * (sigmoid - y)


def loss_and_grad(logits, labels, weights):
    z = ad.Tensor(logits, requires_grad=True)
    with ad.Tape() as tape:
        out = loss.weighted_bce(z, labels, weights)
    return out, tape.gradients(out)[z]


class TestWeightedBce:
    def test_half_probability_gives_ln2(self):
        w = loss.compute_class_weights([1, 1], gamma=0.0)
        out = loss.weighted_bce(ad.Tensor([0.0], dtype=np.float64), [1], w)
        assert out.item() == pytest.approx(math.log(2), rel=1e-12)

    def test_confident_correct_prediction_near_zero(self):
        # ln(1 + e^-13.8155) = 1e-6 to five digits: a probability of 1 - 1e-6
        w = loss.compute_class_weights([1, 1], gamma=1.0)
        out = loss.weighted_bce(ad.Tensor([13.8155], dtype=np.float64), [1], w)
        assert out.item() == pytest.approx(1e-6, rel=1e-4)

    def test_hand_arithmetic_weighted_pair(self):
        w = loss.compute_class_weights([9, 1], gamma=1.0)
        out = loss.weighted_bce(ad.Tensor([0.0, 0.0], dtype=np.float64), [0, 1], w)
        assert out.item() == pytest.approx((25 / 9) * math.log(2), rel=1e-10)

    def test_raw_weights_when_not_normalized(self):
        w = loss.compute_class_weights([9, 1], gamma=1.0, normalize=False)
        out = loss.weighted_bce(ad.Tensor([0.0, 0.0], dtype=np.float64), [0, 1], w)
        assert out.item() == pytest.approx((5 / 9) * math.log(2), rel=1e-10)

    def test_gamma_zero_bitwise_equal_to_unit_weights(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(0.0, 3.0, 32)
        labels = rng.integers(0, 2, 32)
        w0 = loss.compute_class_weights([300, 20], gamma=0.0)
        unit = loss.ClassWeights((1, 1), 0.0, (1.0, 1.0), (1.0, 1.0), True)
        a = loss.weighted_bce(ad.Tensor(logits), labels, w0)
        b = loss.weighted_bce(ad.Tensor(logits), labels, unit)
        assert a.item() == b.item()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("z", [17.0, 20.0, 30.0, 100.0])
    def test_confidently_wrong_rows_keep_their_full_gradient(self, z, dtype):
        # a clamp at p = 1e-7 passed these rows no gradient at all
        w = loss.compute_class_weights([200, 10], gamma=1.0)
        _, g = loss_and_grad(np.array([z, -z], dtype=dtype), [0, 1], w)
        assert g.dtype == dtype
        np.testing.assert_allclose(g, [w.normalized[0] / 2, -w.normalized[1] / 2], rtol=1e-6)

    def test_float32_finite_at_extreme_logits(self):
        w = loss.compute_class_weights([200, 10], gamma=1.0)
        logits = np.array([100.0, -100.0, 100.0, -100.0])
        labels = np.array([0, 1, 1, 0])
        out, g = loss_and_grad(logits.astype(np.float32), labels, w)
        value, grad = closed_form(logits, labels, np.asarray(w.normalized)[labels])
        assert np.isfinite(out.item()) and np.isfinite(g).all()
        assert out.item() == pytest.approx(value.mean(), rel=1e-6)
        np.testing.assert_allclose(g, grad / 4, rtol=1e-6, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = ad.Tensor(rng.uniform(-4.0, 4.0, 16), dtype=np.float64)
        labels = rng.integers(0, 2, 16)
        w = loss.compute_class_weights([40, 8], gamma=1.0)

        def f(z):
            return loss.weighted_bce(z, labels, w)

        assert ad.grad_check(f, logits) < 1e-6

    def test_loss_differentiable_through_tape(self):
        logits = ad.Tensor([0.3, 0.8], requires_grad=True, dtype=np.float64)
        w = loss.compute_class_weights([3, 1], gamma=1.0)
        with ad.Tape() as tape:
            out = loss.weighted_bce(logits, [0, 1], w)
        g = tape.gradients(out)[logits]
        assert g.shape == (2,)
        # raising a label-0 logit raises the loss; raising a label-1 one lowers it
        assert g[0] > 0 and g[1] < 0

    def test_mismatched_shapes_rejected(self):
        w = loss.compute_class_weights([1, 1], gamma=0.0)
        with pytest.raises(Exception):
            loss.weighted_bce(ad.Tensor([0.5, 0.5]), [1], w)

    def test_bad_labels_rejected(self):
        w = loss.compute_class_weights([1, 1], gamma=0.0)
        with pytest.raises(DataError):
            loss.weighted_bce(ad.Tensor([0.5]), [2], w)


def test_bce_with_logits_rejects_misaligned_weights():
    with pytest.raises(ShapeError):
        ad.bce_with_logits(ad.Tensor([0.0, 1.0]), np.array([0, 1]), np.ones(3))


rows = st.lists(
    st.tuples(
        st.floats(-80.0, 80.0, allow_nan=False),
        st.integers(0, 1),
        st.floats(1e-3, 50.0, allow_nan=False),
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=200, deadline=None)
@given(rows=rows)
def test_bce_with_logits_matches_closed_form(rows):
    z, y, w = (np.array(col) for col in zip(*rows))
    logits = ad.Tensor(z, requires_grad=True)
    with ad.Tape() as tape:
        out = ad.bce_with_logits(logits, y, w)
    g = tape.gradients(out)[logits]
    value, grad = closed_form(z, y, w)
    scale = 1.0 + np.abs(value).mean()
    assert abs(out.item() - value.mean()) <= 1e-12 * scale
    np.testing.assert_allclose(g, grad / len(z), rtol=1e-12, atol=1e-15)
