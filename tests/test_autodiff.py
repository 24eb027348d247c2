import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costnet import autodiff as ad
from costnet.errors import ConfigError, ContractError, DataError, ShapeError


def t64(data, grad=True):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, ad.Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_column_selection(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, ad.Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        a = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal((4, 2)))
        r = ad.Tensor(rng.standard_normal((3, 2)))

        def f(a_, b_):
            return ad.tsum(ad.mul(ad.matmul(a_, b_), r))

        assert ad.grad_check(f, [a, b]) < 1e-6


class TestConv1d:
    def test_hand_computed(self):
        x = ad.Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1))
        k = ad.Tensor(np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1))
        out = ad.conv1d_valid(x, k, ad.Tensor([0.0]))
        np.testing.assert_allclose(out.data.reshape(-1), [-2.0, -2.0])

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((2, 5, 3)))
        k = np.zeros((1, 3, 3))
        k[0] = np.eye(3)
        out = ad.conv1d_valid(x, ad.Tensor(k), ad.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x.data, rtol=1e-6)

    def test_too_short_sequence(self):
        x = ad.Tensor(np.ones((1, 2, 1)))
        k = ad.Tensor(np.ones((3, 1, 1)))
        with pytest.raises(ShapeError, match="too short"):
            ad.conv1d_valid(x, k, ad.Tensor([0.0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal((2, 7, 3)))
        k = t64(rng.standard_normal((3, 3, 4)))
        b = t64(rng.standard_normal(4))
        r = ad.Tensor(rng.standard_normal((2, 5, 4)))

        def f(x_, k_, b_):
            return ad.tsum(ad.mul(ad.conv1d_valid(x_, k_, b_), r))

        assert ad.grad_check(f, [x, k, b]) < 1e-4


class TestMaxpool:
    def test_hand_computed(self):
        x = ad.Tensor(np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1))
        out = ad.maxpool1d(x, 2)
        np.testing.assert_array_equal(out.data.reshape(-1), [3.0, 5.0])

    def test_tie_gradient_goes_to_first(self):
        x = ad.Tensor(np.full((1, 4, 1), 7.0), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.maxpool1d(x, 2)
            loss = ad.tsum(out)
        np.testing.assert_array_equal(out.data.reshape(-1), [7.0, 7.0])
        g = tape.gradients(loss)[x]
        np.testing.assert_array_equal(g.reshape(-1), [1.0, 0.0, 1.0, 0.0])

    def test_remainder_dropped(self):
        x = ad.Tensor(np.arange(5, dtype=float).reshape(1, 5, 1))
        assert ad.maxpool1d(x, 2).shape == (1, 2, 1)

    def test_bad_pool_length(self):
        with pytest.raises(ConfigError):
            ad.maxpool1d(ad.Tensor(np.ones((1, 4, 1))), 0)
        with pytest.raises(ShapeError):
            ad.maxpool1d(ad.Tensor(np.ones((1, 2, 1))), 3)

    @given(length=st.integers(1, 40), pool=st.integers(1, 10))
    def test_output_length_is_floor(self, length, pool):
        if length < pool:
            return
        x = ad.Tensor(np.zeros((1, length, 1)))
        assert ad.maxpool1d(x, pool).shape[1] == length // pool

    def test_gradient_matches_finite_differences_away_from_ties(self):
        rng = np.random.default_rng(5)
        # spread values out so no two entries in a window are within 2h of a tie
        x = t64(rng.permutation(24).reshape(2, 6, 2) * 0.5)
        r = ad.Tensor(rng.standard_normal((2, 3, 2)))

        def f(x_):
            return ad.tsum(ad.mul(ad.maxpool1d(x_, 2), r))

        assert ad.grad_check(f, x) < 1e-6


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.Tensor([0.0])).item() == pytest.approx(0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_saturates_exactly_without_warnings(self, dtype):
        x = ad.Tensor(np.array([-1e4, -1e4, 1e4, 1e4], dtype=dtype))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.sigmoid(x)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_float64_closed_form(self, dtype):
        x = np.concatenate([np.linspace(-30.0, 30.0, 601), [-80.0, -17.3, 17.3, 80.0]]).astype(dtype)
        expected = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        np.testing.assert_allclose(ad.sigmoid(ad.Tensor(x)).data, expected, rtol=1e-6)

    def test_relu(self):
        out = ad.relu(ad.Tensor([-3.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 3.0])

    def test_tanh_gradient_at_zero(self):
        x = t64([0.0])
        with ad.Tape() as tape:
            loss = ad.tsum(ad.tanh(x))
        assert tape.gradients(loss)[x][0] == 1.0

    def test_broadcast_add_and_backward(self):
        a = t64(np.ones((3, 2)))
        b = t64(np.array([1.0, 2.0]))
        with ad.Tape() as tape:
            loss = ad.tsum(ad.add(a, b))
        g = tape.gradients(loss)
        assert g[a].shape == (3, 2)
        np.testing.assert_array_equal(g[b], [3.0, 3.0])

    def test_incompatible_broadcast(self):
        with pytest.raises(ShapeError):
            ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones(4)))

    def test_smooth_ops_gradients(self):
        rng = np.random.default_rng(7)
        x = t64(rng.uniform(0.2, 0.8, size=6))
        for op in (ad.sigmoid, ad.tanh, ad.log):
            assert ad.grad_check(lambda v: ad.tsum(op(v)), x) < 1e-8
        tails = t64([-12.0, -3.0, -0.5, 0.0, 0.5, 3.0, 12.0])
        assert ad.grad_check(lambda v: ad.tsum(ad.sigmoid(v)), tails) < 1e-8


class TestBatchnorm:
    def test_already_normalized(self):
        x = ad.Tensor(np.array([[-1.0], [1.0]]))
        out = ad.batchnorm(
            x, ad.Tensor([1.0]), ad.Tensor([0.0]),
            np.zeros(1), np.ones(1), training=True, eps=1e-12,
        )
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-6)

    def test_zero_scale_gives_shift(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.standard_normal((4, 3)))
        out = ad.batchnorm(
            x, ad.Tensor(np.zeros(3)), ad.Tensor(np.full(3, 5.0)),
            np.zeros(3), np.ones(3), training=True,
        )
        np.testing.assert_allclose(out.data, 5.0)

    def test_batch_too_small(self):
        x = ad.Tensor(np.ones((1, 3)))
        with pytest.raises(ShapeError, match="batch"):
            ad.batchnorm(x, ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)),
                         np.zeros(3), np.ones(3), training=True)

    def test_infer_uses_running_stats(self):
        x = ad.Tensor(np.array([[2.0, 4.0]]))
        out = ad.batchnorm(
            x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
            np.array([2.0, 4.0]), np.ones(2), training=False, eps=0.0,
        )
        np.testing.assert_allclose(out.data, 0.0, atol=1e-7)

    def test_running_stats_update(self):
        x = ad.Tensor(np.array([[0.0], [2.0]]))
        rm, rv = np.zeros(1), np.ones(1)
        ad.batchnorm(x, ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)),
                     rm, rv, training=True, momentum=0.5)
        assert rm[0] == pytest.approx(0.5)  # 0.5*0 + 0.5*1
        assert rv[0] == pytest.approx(1.0)  # 0.5*1 + 0.5*1

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = t64(rng.standard_normal((5, 4)))
        scale = t64(rng.uniform(0.5, 1.5, 4))
        shift = t64(rng.standard_normal(4))
        r = ad.Tensor(rng.standard_normal((5, 4)))

        def f(x_, sc, sh):
            out = ad.batchnorm(x_, sc, sh, np.zeros(4), np.ones(4), training=True)
            return ad.tsum(ad.mul(out, r))

        assert ad.grad_check(f, [x, scale, shift]) < 1e-4


class TestDropout:
    def test_rate_zero_is_all_ones(self):
        mask = ad.dropout_mask((5, 5), 0.0)
        np.testing.assert_array_equal(mask.data, 1.0)

    def test_large_sample_mean_near_one(self):
        mask = ad.dropout_mask((1_000_000,), 0.5, np.random.default_rng(42))
        assert 0.995 <= mask.data.mean() <= 1.005

    def test_seed_determinism(self):
        a = ad.dropout_mask((100,), 0.3, np.random.default_rng(7))
        b = ad.dropout_mask((100,), 0.3, np.random.default_rng(7))
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.8])
    def test_inverted_scaling_keeps_expectation(self, rate):
        mask = ad.dropout_mask((200_000,), rate, np.random.default_rng(3))
        assert mask.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            ad.dropout_mask((3,), 1.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            ad.dropout_mask((3,), -0.1, np.random.default_rng(0))


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.arange(6, dtype=float).reshape(2, 3))
        with ad.Tape() as tape:
            loss = ad.tsum(x)
        np.testing.assert_array_equal(tape.gradients(loss)[x], np.ones((2, 3)))

    def test_square_at_three(self):
        x = t64([3.0])
        with ad.Tape() as tape:
            loss = ad.tsum(ad.mul(x, x))
        assert tape.gradients(loss)[x][0] == 6.0

    def test_non_scalar_loss_rejected(self):
        x = t64(np.ones(3))
        with ad.Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ContractError):
            tape.gradients(y)

    def test_gradient_shapes_match_leaves(self):
        rng = np.random.default_rng(2)
        a = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal((4, 2)))
        with ad.Tape() as tape:
            loss = ad.tsum(ad.relu(ad.matmul(a, b)))
        g = tape.gradients(loss)
        assert g[a].shape == a.shape and g[b].shape == b.shape

    def test_fanout_accumulates(self):
        x = t64([2.0])
        with ad.Tape() as tape:
            y = ad.mul(x, x)  # x^2
            loss = ad.tsum(ad.add(y, ad.mul(x, ad.Tensor([3.0]))))  # x^2 + 3x
        assert tape.gradients(loss)[x][0] == pytest.approx(7.0)

    def test_no_tape_is_pure_forward(self):
        x = t64([1.0])
        y = ad.mul(x, x)
        assert not y.requires_grad


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(13)
        q = ad.Tensor(rng.standard_normal((4, 4)))
        x = t64(rng.standard_normal((4, 1)))

        def f(v):
            return ad.tsum(ad.mul(v, ad.matmul(q, v)))

        assert ad.grad_check(f, x) < 1e-8

    def test_relu_away_from_kink(self):
        x = t64([0.5, -0.7, 1.2, -2.0])
        assert ad.grad_check(lambda v: ad.tsum(ad.relu(v)), x) < 1e-6

    def test_constant_function(self):
        x = t64(np.ones(3))
        c = ad.Tensor([4.0])
        assert ad.grad_check(lambda v: ad.tsum(ad.mul(c, c)), x) == 0.0


class TestInvariantsAndHygiene:
    def test_nan_rejected(self):
        with pytest.raises(DataError):
            ad.Tensor([1.0, float("nan")])
        with pytest.raises(DataError):
            ad.Tensor([float("inf")])

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(77)
            x = ad.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            w = ad.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
            with ad.Tape() as tape:
                loss = ad.tsum(ad.sigmoid(ad.matmul(x, w)))
            g = tape.gradients(loss)
            return loss.item(), g[x].copy(), g[w].copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_smooth_graphs_pass_grad_check(self, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng.uniform(-2.0, 2.0, size=(3, 3)))
        w = t64(rng.uniform(-1.0, 1.0, size=(3, 2)))

        def f(x_, w_):
            return ad.tmean(ad.tanh(ad.matmul(ad.sigmoid(x_), w_)))

        assert ad.grad_check(f, [x, w]) < 1e-4

    def test_mean_with_axis(self):
        x = t64(np.arange(12, dtype=float).reshape(2, 3, 2))
        with ad.Tape() as tape:
            m = ad.tmean(x, axis=1)
            loss = ad.tsum(m)
        assert m.shape == (2, 2)
        np.testing.assert_allclose(tape.gradients(loss)[x], 1 / 3)

    def test_reshape_round_trip(self):
        x = t64(np.arange(6, dtype=float))
        with ad.Tape() as tape:
            loss = ad.tsum(ad.mul(ad.reshape(x, (2, 3)), ad.Tensor(np.ones((2, 3)))))
        assert tape.gradients(loss)[x].shape == (6,)


def per_step_lstm(x, w_x, w_h, b):
    """Reference: the step-by-step lstm op, one set of small GEMMs per step."""
    def logistic(v):
        with np.errstate(over="ignore"):
            return 1 / (1 + np.exp(-v))

    batch, steps, dim = x.shape
    hidden = w_h.shape[0]
    h = np.zeros((batch, hidden), dtype=x.dtype)
    c = np.zeros((batch, hidden), dtype=x.dtype)
    z_in = (x.data.reshape(batch * steps, dim) @ w_x.data).reshape(batch, steps, 4 * hidden)
    cache = []
    for t in range(steps):
        z = z_in[:, t, :] + h @ w_h.data + b.data
        i = logistic(z[:, :hidden])
        f = logistic(z[:, hidden : 2 * hidden])
        cand = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = logistic(z[:, 3 * hidden :])
        c_prev, h_prev = c, h
        c = f * c_prev + i * cand
        tc = np.tanh(c)
        h = o * tc
        cache.append((i, f, cand, o, c_prev, h_prev, tc))

    def back(g):
        dwx = np.zeros_like(w_x.data) if w_x.requires_grad else None
        dwh = np.zeros_like(w_h.data) if w_h.requires_grad else None
        db = np.zeros_like(b.data) if b.requires_grad else None
        dx = np.zeros_like(x.data) if x.requires_grad else None
        dh = g
        dc = np.zeros_like(g)
        for t in range(steps - 1, -1, -1):
            i, f, cand, o, c_prev, h_prev, tc = cache[t]
            do = dh * tc
            dc = dc + dh * o * (1 - tc * tc)
            dz = np.concatenate(
                [
                    dc * cand * i * (1 - i),
                    dc * c_prev * f * (1 - f),
                    dc * i * (1 - cand * cand),
                    do * o * (1 - o),
                ],
                axis=1,
            )
            if dwx is not None:
                dwx += x.data[:, t, :].T @ dz
            if dwh is not None:
                dwh += h_prev.T @ dz
            if db is not None:
                db += dz.sum(axis=0)
            if dx is not None:
                dx[:, t, :] = dz @ w_x.data.T
            dh = dz @ w_h.data.T
            dc = dc * f
        return dx, dwx, dwh, db

    return ad._emit(h, (x, w_x, w_h, b), back)


def lstm_inputs(rng, batch, steps, dim, hidden, dtype=np.float64, gain=1.0):
    return [
        (rng.standard_normal((batch, steps, dim)) * gain).astype(dtype),
        (rng.standard_normal((dim, 4 * hidden)) * 0.4 * gain).astype(dtype),
        (rng.standard_normal((hidden, 4 * hidden)) * 0.4 * gain).astype(dtype),
        (rng.standard_normal(4 * hidden) * 0.1 * gain).astype(dtype),
    ]


def lstm_run(op, arrays, grad=(True, True, True, True)):
    """Output and backward pieces of ``op`` for a fixed random output weighting."""
    tensors = [ad.Tensor(a, requires_grad=r) for a, r in zip(arrays, grad)]
    with ad.Tape() as tape:
        h = op(*tensors)
    weight = np.random.default_rng(99).standard_normal(h.shape).astype(h.dtype)
    (node,) = tape._nodes
    return h.data, node.backward_fn(weight)


class TestLstmOp:
    @pytest.mark.parametrize("batch,steps,dim,hidden", [(1, 1, 4, 4), (3, 9, 5, 6), (2, 7, 3, 11)])
    @pytest.mark.parametrize("gain", [1.0, 4.0])
    def test_matches_per_step_reference_in_float64(self, batch, steps, dim, hidden, gain):
        arrays = lstm_inputs(np.random.default_rng(steps), batch, steps, dim, hidden, gain=gain)
        h_ref, grads_ref = lstm_run(per_step_lstm, arrays)
        h, grads = lstm_run(ad.lstm, arrays)
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
        for piece, ref in zip(grads, grads_ref):
            assert piece.shape == ref.shape and piece.dtype == ref.dtype
            np.testing.assert_allclose(piece, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mask", range(1, 16))
    def test_inputs_without_grad_get_none(self, mask):
        grad = tuple(bool(mask >> k & 1) for k in range(4))
        arrays = lstm_inputs(np.random.default_rng(3), 2, 5, 3, 4)
        _, full = lstm_run(ad.lstm, arrays)
        _, part = lstm_run(ad.lstm, arrays, grad)
        for wanted, piece, ref in zip(grad, part, full):
            if wanted:
                np.testing.assert_array_equal(piece, ref)
            else:
                assert piece is None

    @pytest.mark.parametrize("batch,steps,dim,hidden", [(1, 1, 1, 1), (3, 9, 5, 6), (32, 40, 16, 20), (5, 13, 7, 3)])
    def test_float32_forward_bit_identical_to_per_step_reference(self, batch, steps, dim, hidden):
        arrays = lstm_inputs(np.random.default_rng(batch), batch, steps, dim, hidden, np.float32, 2.0)
        h_ref, _ = lstm_run(per_step_lstm, arrays)
        h, _ = lstm_run(ad.lstm, arrays)
        infer = ad.lstm(*(ad.Tensor(a) for a in arrays))  # no tape: no per-step history
        assert h.dtype == infer.dtype == np.float32
        np.testing.assert_array_equal(h, h_ref)
        np.testing.assert_array_equal(infer.data, h_ref)

    def test_zero_weights_give_zero_output(self):
        x = ad.Tensor(np.random.default_rng(0).standard_normal((2, 4, 3)))
        h = ad.lstm(x, ad.Tensor(np.zeros((3, 8))), ad.Tensor(np.zeros((2, 8))),
                    ad.Tensor(np.zeros(8)))
        np.testing.assert_array_equal(h.data, 0.0)

    def test_single_step_matches_hand_recurrence(self):
        # 1 unit, 1 input, 1 step: every gate is a scalar sigmoid/tanh
        xv, wx, wh, bv = 0.7, np.array([0.3, -0.2, 0.5, 0.1]), np.zeros(4), np.array([0.05, 1.0, -0.1, 0.2])
        z = xv * wx + bv
        sig = lambda v: 1 / (1 + np.exp(-v))
        i, f, g, o = sig(z[0]), sig(z[1]), np.tanh(z[2]), sig(z[3])
        c = i * g  # zero initial cell
        expected = o * np.tanh(c)
        out = ad.lstm(
            ad.Tensor(np.array(xv).reshape(1, 1, 1), dtype=np.float64),
            ad.Tensor(wx.reshape(1, 4)),
            ad.Tensor(wh.reshape(1, 4)),
            ad.Tensor(bv),
        )
        assert out.item() == pytest.approx(expected, rel=1e-12)

    def test_gradients_through_five_steps(self):
        def f(x_, wx_, wh_, b_):
            return ad.tsum(ad.mul(ad.lstm(x_, wx_, wh_, b_), r))

        for gain in (1.0, 4.0):  # 4.0 drives the gates deep into saturation
            rng = np.random.default_rng(21)
            x = t64(rng.standard_normal((2, 5, 3)) * 0.5 * gain)
            wx = t64(rng.standard_normal((3, 16)) * 0.4 * gain)
            wh = t64(rng.standard_normal((4, 16)) * 0.4 * gain)
            b = t64(rng.standard_normal(16) * 0.1 * gain)
            r = ad.Tensor(rng.standard_normal((2, 4)))
            assert ad.grad_check(f, [x, wx, wh, b]) < 1e-4

    def test_gradients_through_twelve_steps(self):
        def f(*args):
            return ad.tsum(ad.mul(ad.lstm(*args), r))

        rng = np.random.default_rng(12)
        point = [t64(a) for a in lstm_inputs(rng, 2, 12, 3, 3)]
        r = ad.Tensor(rng.standard_normal((2, 3)))
        assert ad.grad_check(f, point) < 1e-4


class TestEmbeddingOp:
    def test_lookup_and_scatter(self):
        table = t64(np.arange(12, dtype=float).reshape(4, 3))
        ids = np.array([[1, 1, 0]])
        with ad.Tape() as tape:
            out = ad.embedding(table, ids, pad_id=0)
            loss = ad.tsum(out)
        np.testing.assert_array_equal(out.data[0, 0], [3.0, 4.0, 5.0])
        g = tape.gradients(loss)[table]
        np.testing.assert_array_equal(g[1], [2.0, 2.0, 2.0])  # id 1 used twice
        np.testing.assert_array_equal(g[0], 0.0)  # pad row frozen

    def test_out_of_range_ids(self):
        table = ad.Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            ad.embedding(table, np.array([[5]]))

    def test_table_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        table = t64(rng.standard_normal((5, 3)))
        ids = np.array([[2, 4, 2], [1, 3, 3]])
        r = ad.Tensor(rng.standard_normal((2, 3, 3)))

        def f(tb):
            return ad.tsum(ad.mul(ad.embedding(tb, ids, pad_id=0), r))

        assert ad.grad_check(f, table) < 1e-6

    def test_gradient_with_pad_ids_unfrozen(self):
        rng = np.random.default_rng(32)
        table = t64(rng.standard_normal((4, 3)))
        ids = np.array([[0, 2, 0], [2, 0, 1]])
        r = ad.Tensor(rng.standard_normal((2, 3, 3)))

        def f(tb):
            return ad.tsum(ad.mul(ad.embedding(tb, ids, pad_id=None), r))

        assert ad.grad_check(f, table) < 1e-6

    @pytest.mark.parametrize("case", ["repeated", "all-pad", "no-pad-id"])
    def test_scatter_bit_identical_to_dense_scatter(self, case):
        rng = np.random.default_rng(33)
        table = ad.Tensor(rng.standard_normal((6, 5)).astype(np.float32), requires_grad=True)
        ids = rng.integers(0, 3, size=(32, 40))  # few rows, many repeats, ~1/3 pad
        pad_id = None if case == "no-pad-id" else 0
        if case == "all-pad":
            ids[:] = 0
        r = ad.Tensor(rng.standard_normal((32, 40, 5)).astype(np.float32))
        with ad.Tape() as tape:
            loss = ad.tsum(ad.mul(ad.embedding(table, ids, pad_id=pad_id), r))
        got = tape.gradients(loss)[table]
        # the scatter of every position into a dense table, pad row zeroed after
        want = np.zeros_like(table.data)
        np.add.at(want, ids.reshape(-1), r.data.reshape(-1, 5))
        if pad_id is not None:
            want[pad_id] = 0
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
