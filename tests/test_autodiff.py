import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from costnet import autodiff as ad
from costnet.errors import (
    ConfigError, ContractError, CostnetError, DataError, EncodingError, ShapeError,
)


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
        # row v of the table is the value v, so the ids spell x = 1, 2, 3, 4
        x = ad.embedding(ad.Tensor(np.arange(5.0).reshape(5, 1)), np.array([[1, 2, 3, 4]]))
        k = ad.Tensor(np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1))
        out = ad.conv1d_valid(x, k, ad.Tensor([0.0]))
        np.testing.assert_allclose(out.data.reshape(-1), [-2.0, -2.0])

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        table = ad.Tensor(rng.standard_normal((7, 3)))
        ids = rng.integers(0, 7, size=(2, 5))
        k = np.zeros((1, 3, 3))
        k[0] = np.eye(3)
        out = ad.conv1d_valid(ad.embedding(table, ids), ad.Tensor(k), ad.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, table.data[ids], rtol=1e-6)

    def test_too_short_sequence(self):
        x = ad.embedding(ad.Tensor(np.ones((3, 1))), np.ones((1, 2), dtype=int))
        k = ad.Tensor(np.ones((3, 1, 1)))
        with pytest.raises(ShapeError, match="too short"):
            ad.conv1d_valid(x, k, ad.Tensor([0.0]))

    def test_tensor_input_rejected(self):
        with pytest.raises(ContractError, match="lookup"):
            ad.conv1d_valid(ad.Tensor(np.ones((1, 4, 1))), ad.Tensor(np.ones((3, 1, 1))), ad.Tensor([0.0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        table = t64(rng.standard_normal((6, 3)))
        ids = rng.integers(1, 6, size=(2, 7))  # keep the frozen pad row 0 unused
        k = t64(rng.standard_normal((3, 3, 4)))
        b = t64(rng.standard_normal(4))
        r = ad.Tensor(rng.standard_normal((2, 5, 4)))

        def f(t_, k_, b_):
            return ad.tsum(ad.mul(ad.conv1d_valid(ad.embedding(t_, ids, pad_id=0), k_, b_), r))

        assert ad.grad_check(f, [table, k, b]) < 1e-4


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool,length", [(2, 12), (2, 13), (3, 12), (3, 14)])
    def test_bytes_equal_argmax_formula(self, pool, length, dtype):
        rng = np.random.default_rng(pool * length)
        # relu output: about half the entries tie at 0, some whole windows too
        x = ad.Tensor(np.maximum(rng.standard_normal((5, length, 7)), 0).astype(dtype), requires_grad=True)
        x.data[0, :pool] = 0.0
        with ad.Tape() as tape:
            out = ad.maxpool1d(x, pool)
        (node,) = tape._nodes
        g = rng.standard_normal(out.shape).astype(dtype)
        (dx,) = node.backward_fn(g)
        # the argmax / take_along_axis / put_along_axis formula
        n = length // pool
        win = x.data[:, : n * pool].reshape(5, n, pool, 7)
        arg = win.argmax(axis=2)[:, :, None, :]
        want = np.ascontiguousarray(np.take_along_axis(win, arg, axis=2)[:, :, 0, :])
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, arg, g[:, :, None, :], axis=2)
        want_dx = np.zeros_like(x.data)
        want_dx[:, : n * pool] = dwin.reshape(5, n * pool, 7)
        assert out.data.dtype == dx.dtype == dtype
        assert out.data.tobytes() == want.tobytes()
        assert dx.tobytes() == want_dx.tobytes()


def _through(ops, x, g):
    """Output and input gradient of ``ops`` applied in turn to ``x``, for output weights ``g``."""
    x = ad.Tensor(x, requires_grad=True)
    with ad.Tape() as tape:
        out = x
        for op in ops:
            out = op(out)
        loss = ad.tsum(ad.mul(out, ad.Tensor(g)))
    return out.data, tape.gradients(loss)[x]


_EDGE_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]) | st.floats(-8, 8, width=32)


@st.composite
def _pool_cases(draw):
    """A pool length, an input of at least that many steps, and weights for maxpool's output."""
    pool = draw(st.integers(1, 4))
    batch, length, ch = draw(st.integers(1, 2)), draw(st.integers(pool, 13)), draw(st.integers(1, 3))
    x = draw(hnp.arrays(np.float32, (batch, length, ch), elements=_EDGE_VALUES))
    g = draw(hnp.arrays(np.float32, (batch, length // pool, ch), elements=_EDGE_VALUES))
    return pool, x, g


def _column(*values):
    return np.array(values, dtype=np.float32).reshape(1, -1, 1)


class TestReluMaxpoolOrder:
    @settings(max_examples=200, deadline=None)
    @given(case=_pool_cases())
    # odd lengths: an all-negative window, ties at +-0 and above 0, a dropped tail
    @example(case=(2, _column(-1.0, -2.0, -0.0, 0.0, 3.0, 3.0, 5.0), _column(-1.5, -0.0, 2.0)))
    @example(case=(
        3, _column(-0.0, -0.0, -3.0, 0.0, -0.0, 0.0, 2.0, 2.0, -1.0, 4.0), _column(-1.0, -2.0, -0.0),
    ))
    def test_relu_then_maxpool_equals_maxpool_then_relu_bit_for_bit(self, case):
        pool, x, g = case
        relu_first = _through([ad.relu, lambda h: ad.maxpool1d(h, pool)], x, g)
        pool_first = _through([lambda h: ad.maxpool1d(h, pool), ad.relu], x, g)
        for got, want in zip(pool_first, relu_first):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
        assert ad.grad_check(lambda v: ad.tsum(ad.sigmoid(v)), x) < 1e-8
        tails = t64([-12.0, -3.0, -0.5, 0.0, 0.5, 3.0, 12.0])
        assert ad.grad_check(lambda v: ad.tsum(ad.sigmoid(v)), tails) < 1e-8


class TestBatchnorm:
    def test_already_normalized(self):
        x = ad.Tensor(np.array([[-1.0], [1.0]]))
        out = ad.batchnorm(
            x, ad.Tensor([1.0]), ad.Tensor([0.0]),
            np.zeros(1), np.ones(1), training=True,
        )
        want = np.array([-1.0, 1.0]) / np.sqrt(1.0 + ad._BN_EPS)
        np.testing.assert_allclose(out.data.reshape(-1), want, atol=1e-6)

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
            np.array([2.0, 4.0]), np.ones(2), training=False,
        )
        np.testing.assert_allclose(out.data, 0.0, atol=1e-7)

    def test_running_stats_update(self):
        x = ad.Tensor(np.array([[0.0], [2.0]]))
        rm, rv = np.zeros(1), np.ones(1)
        ad.batchnorm(x, ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)),
                     rm, rv, training=True)
        assert rm[0] == pytest.approx(0.1)  # 0.9*0 + 0.1*1
        assert rv[0] == pytest.approx(1.0)  # 0.9*1 + 0.1*1

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
        mask = ad.dropout_mask((5, 5), 0.0, np.random.default_rng(0))
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

    def test_ops_in_another_thread_record_nothing_on_an_open_tape(self):
        x = t64([1.0])
        seen = []
        with ad.Tape() as tape:
            worker = threading.Thread(target=lambda: seen.append(ad.mul(x, x)))
            worker.start()
            worker.join()
            assert len(tape) == 0 and not seen[0].requires_grad
            ad.mul(x, x)
        assert len(tape) == 1


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
            return ad.tsum(ad.sigmoid(ad.matmul(ad.sigmoid(x_), w_)))

        assert ad.grad_check(f, [x, w]) < 1e-4

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


def gathered(table, ids, pad_id=0):
    """Reference: the rows of ``table`` at ``ids`` as a tensor, scattered back.

    The scatter accumulates over repeated ids and skips pad positions, so the
    pad row gets no gradient.
    """
    rows = table.data[ids]

    def back(g):
        dt = np.zeros_like(table.data)
        flat_ids, g_rows = ids.reshape(-1), g.reshape(-1, table.shape[1])
        keep = flat_ids != pad_id
        np.add.at(dt, flat_ids[keep], g_rows[keep])
        return (dt,)

    return ad._emit(rows, (table,), back)


def lookup_matmul(table, ids, w, pad_id=0):
    return ad.matmul(ad.embedding(table, ids, pad_id=pad_id), w)


class TestEmbeddingOp:
    def test_lookup_records_nothing(self):
        table = t64(np.ones((4, 3)))
        ids = np.array([[1, 2]])
        with ad.Tape() as tape:
            lookup = ad.embedding(table, ids, pad_id=0)
        assert isinstance(lookup, ad.Lookup) and len(tape) == 0
        assert lookup.table is table and lookup.ids is ids and lookup.pad_id == 0

    def test_non_finite_table_rejected(self):
        table = ad.Tensor(np.ones((4, 3)))
        table.data[3, 1] = np.inf  # an optimizer writes the table in place
        with pytest.raises(DataError, match="embedding"):
            ad.embedding(table, np.array([[1, 2]]))

    def test_lookup_and_scatter(self):
        table = t64(np.arange(12, dtype=float).reshape(4, 3))
        ids = np.array([[1, 1, 0]])
        with ad.Tape() as tape:
            out = lookup_matmul(table, ids, ad.Tensor(np.eye(9)))  # the flattened rows
            loss = ad.tsum(out)
        np.testing.assert_array_equal(out.data[0], [3.0, 4.0, 5.0, 3.0, 4.0, 5.0, 0.0, 1.0, 2.0])
        g = tape.gradients(loss)[table]
        np.testing.assert_array_equal(g[1], [2.0, 2.0, 2.0])  # id 1 used twice
        np.testing.assert_array_equal(g[0], 0.0)  # pad row frozen

    def test_out_of_range_ids(self):
        table = ad.Tensor(np.zeros((3, 2)))
        with pytest.raises(EncodingError):
            ad.embedding(table, np.array([[5]]))

    def test_table_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        table = t64(rng.standard_normal((5, 3)))
        ids = np.array([[2, 4, 2], [1, 3, 3]])
        w = ad.Tensor(rng.standard_normal((9, 4)))
        r = ad.Tensor(rng.standard_normal((2, 4)))

        def f(tb):
            return ad.tsum(ad.mul(lookup_matmul(tb, ids, w), r))

        assert ad.grad_check(f, table) < 1e-6

    def test_gradient_with_pad_ids_unfrozen(self):
        # id 0 is an ordinary row when the lookup's pad row is another one
        rng = np.random.default_rng(32)
        table = t64(rng.standard_normal((4, 3)))
        ids = np.array([[0, 2, 0], [2, 0, 1]])
        w = ad.Tensor(rng.standard_normal((9, 4)))
        r = ad.Tensor(rng.standard_normal((2, 4)))

        def f(tb):
            return ad.tsum(ad.mul(lookup_matmul(tb, ids, w, pad_id=3), r))

        assert ad.grad_check(f, table) < 1e-6

    @pytest.mark.parametrize("case", ["repeated", "all-pad", "no-pad-id"])
    def test_scatter_bit_identical_to_dense_scatter(self, case):
        rng = np.random.default_rng(33)
        table = ad.Tensor(rng.standard_normal((6, 5)).astype(np.float32), requires_grad=True)
        ids = rng.integers(0, 3, size=(32, 40))  # few rows, many repeats, ~1/3 pad
        pad_id = 5 if case == "no-pad-id" else 0  # row 5: no id reads it
        if case == "all-pad":
            ids[:] = 0
        w = ad.Tensor(rng.standard_normal((200, 7)).astype(np.float32))
        r = ad.Tensor(rng.standard_normal((32, 7)).astype(np.float32))
        with ad.Tape() as tape:
            loss = ad.tsum(ad.mul(lookup_matmul(table, ids, w, pad_id), r))
        got = tape.gradients(loss)[table]
        # the scatter of every position into a dense table, pad row zeroed after
        want = np.zeros_like(table.data)
        np.add.at(want, ids.reshape(-1), (r.data @ w.data.T).reshape(-1, 5))
        want[pad_id] = 0
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def matmul_inputs(case, dtype):
    """A table with a zero pad row, ``[4, 11]`` ids and ``[55, 6]`` weights.

    ``case`` places the pads: trailing columns of unequal length, interior
    pads as well, every position, or trailing pads under a nonzero pad row.
    """
    rng = np.random.default_rng(41)
    table = rng.standard_normal((9, 5))
    table[0] = 1.5 if case == "nonzero-pad-row" else 0.0
    ids = rng.integers(1, 9, size=(4, 11))
    ids[np.arange(11) >= np.array([[5], [8], [3], [7]])] = 0  # live width 8
    if case == "interior":
        ids[:, 2] = 0
        ids[1, [0, 6]] = 0
    elif case == "all-pad":
        ids[:] = 0
    w = rng.standard_normal((55, 6))
    return table.astype(dtype), ids, w.astype(dtype)


def matmul_run(table, ids, w, gather_first=False):
    """Output, table gradient and weight gradient of the lookup matmul.

    With ``gather_first`` the reference gathers every position and multiplies
    the full width: the ``gathered`` node, a reshape and a tensor matmul.
    """
    tb, wt = ad.Tensor(table, requires_grad=True), ad.Tensor(w, requires_grad=True)
    with ad.Tape() as tape:
        if gather_first:
            out = ad.matmul(ad.reshape(gathered(tb, ids), (len(ids), -1)), wt)
        else:
            out = lookup_matmul(tb, ids, wt)
        r = ad.Tensor(np.random.default_rng(97).standard_normal(out.shape).astype(out.dtype))
        loss = ad.tsum(ad.mul(out, r))
    grads = tape.gradients(loss)
    return out.data, grads[tb], grads[wt]


MATMUL_CASES = ["trailing", "interior", "all-pad", "nonzero-pad-row"]


class TestLookupMatmul:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", MATMUL_CASES)
    def test_matches_gather_then_matmul(self, case, dtype):
        table, ids, w = matmul_inputs(case, dtype)
        out, d_table, d_w = matmul_run(table, ids, w)
        ref_out, ref_table, ref_w = matmul_run(table, ids, w, gather_first=True)
        assert out.dtype == d_table.dtype == d_w.dtype == dtype
        # fewer zero terms may regroup the sums, so the output can move by a
        # rounding of each term's size; the gradients' sums keep their length
        terms = np.abs(table[ids]).reshape(len(ids), -1) @ np.abs(w)
        bound = {np.float64: 1e-12, np.float32: 8 * np.finfo(np.float32).eps}[dtype]
        assert (np.abs(out - ref_out) <= bound * terms).all()
        assert d_table.tobytes() == ref_table.tobytes()
        assert d_w.tobytes() == ref_w.tobytes()

    def test_full_width_under_a_nonzero_pad_row_is_the_reference(self):
        table, ids, w = matmul_inputs("nonzero-pad-row", np.float32)
        out, _, d_w = matmul_run(table, ids, w)
        ref_out, _, _ = matmul_run(table, ids, w, gather_first=True)
        assert out.tobytes() == ref_out.tobytes()
        assert np.abs(d_w[40:]).min() > 0  # every position's rows are trained

    @pytest.mark.parametrize("case", ["trailing", "interior", "all-pad"])
    def test_weight_rows_past_the_live_width_are_positive_zero(self, case):
        table, ids, w = matmul_inputs(case, np.float32)
        live = 0 if case == "all-pad" else 8
        _, _, d_w = matmul_run(table, ids, w)
        past = d_w[live * 5 :]
        assert past.tobytes() == np.zeros_like(past).tobytes()
        assert case == "all-pad" or np.abs(d_w[: live * 5]).max() > 0

    def test_all_pad_output_is_zero(self):
        table, ids, w = matmul_inputs("all-pad", np.float64)
        out, d_table, d_w = matmul_run(table, ids, w)
        assert out.shape == (4, 6) and not out.any() and not d_table.any() and not d_w.any()

    def test_infer_output_equals_tape_output(self):
        table, ids, w = matmul_inputs("interior", np.float32)
        out, _, _ = matmul_run(table, ids, w)
        infer = lookup_matmul(ad.Tensor(table), ids, ad.Tensor(w))
        assert infer.data.tobytes() == out.tobytes()

    def test_width_mismatch_rejected(self):
        table, ids, w = matmul_inputs("trailing", np.float64)
        with pytest.raises(ShapeError, match="matmul"):
            lookup_matmul(ad.Tensor(table), ids, ad.Tensor(w[:50]))


def im2col_conv1d(x, kernels, bias):
    """Reference: valid conv1d of a [batch, len, in_ch] tensor as one im2col GEMM."""
    batch, length, in_ch = x.shape
    k, _, out_ch = kernels.shape
    out_len = length - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=1)
    flat = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(batch * out_len, k * in_ch)
    kflat = kernels.data.reshape(k * in_ch, out_ch)
    out = (flat @ kflat).reshape(batch, out_len, out_ch) + bias.data

    def back(g):
        gflat = g.reshape(batch * out_len, out_ch)
        dwin = (gflat @ kflat.T).reshape(batch, out_len, k, in_ch)
        dx = np.zeros_like(x.data)
        for j in range(k):
            dx[:, j : j + out_len, :] += dwin[:, :, j, :]
        return dx, (flat.T @ gflat).reshape(k, in_ch, out_ch), g.sum(axis=(0, 1))

    return ad._emit(out, (x, kernels, bias), back)


def fold_run(op, arrays, ids, pad_id=0, fold=True, table_grad=True):
    """Output and gradients of ``op`` applied to an embedding of ``ids``.

    ``arrays`` is the table followed by the op's weights. With ``fold`` the
    op reads the lookup itself; otherwise ``reshape`` gathers the rows and
    the reference takes them as a tensor: the im2col oracle for conv1d, the
    tensor path for lstm. The gather's scatter then gives the table's
    gradient.
    """
    table = ad.Tensor(arrays[0], requires_grad=table_grad)
    weights = [ad.Tensor(a, requires_grad=True) for a in arrays[1:]]
    with ad.Tape() as tape:
        if fold:
            x = ad.embedding(table, ids, pad_id=pad_id)
        else:
            x = gathered(table, ids, pad_id)
            op = im2col_conv1d if op is ad.conv1d_valid else op
        out = op(x, *weights)
        r = ad.Tensor(np.random.default_rng(98).standard_normal(out.shape).astype(out.dtype))
        loss = ad.tsum(ad.mul(out, r))
    grads = tape.gradients(loss)
    return out.data, [grads.get(t) for t in [table, *weights]], tape


def fold_inputs(op, dtype, rng=None):
    rng = rng or np.random.default_rng(7)
    table = rng.standard_normal((9, 5))
    table[0] = 0  # the pad row, as models initialise it
    ids = rng.integers(0, 9, size=(4, 11))
    ids[:, 8:] = 0  # trailing padding, as text.encode writes it
    if op is ad.conv1d_valid:
        weights = [rng.standard_normal((3, 5, 6)), rng.standard_normal(6)]
    else:
        weights = [rng.standard_normal((5, 16)) * 0.4, rng.standard_normal((4, 16)) * 0.4,
                   rng.standard_normal(16) * 0.1]
    return [a.astype(dtype) for a in [table, *weights]], ids


FOLDED_OPS = [ad.conv1d_valid, ad.lstm]


class TestEmbeddingFold:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("op", FOLDED_OPS, ids=["conv1d", "lstm"])
    def test_folded_path_matches_general_path(self, op, dtype, tol):
        arrays, ids = fold_inputs(op, dtype)
        out, grads, _ = fold_run(op, arrays, ids)
        ref_out, ref_grads, _ = fold_run(op, arrays, ids, fold=False)
        for got, want in zip([out, *grads], [ref_out, *ref_grads]):
            assert got.shape == want.shape and got.dtype == want.dtype == dtype
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("op", FOLDED_OPS, ids=["conv1d", "lstm"])
    def test_folded_node_differentiates_the_table(self, op):
        arrays, ids = fold_inputs(op, np.float64)
        table, *weights = (ad.Tensor(a, requires_grad=True) for a in arrays)
        with ad.Tape() as tape:
            op(ad.embedding(table, ids), *weights)
        (folded,) = tape._nodes  # no gather node, so no scatter runs
        assert folded.inputs[0] is table

    @pytest.mark.parametrize("op", FOLDED_OPS, ids=["conv1d", "lstm"])
    def test_pad_row_gradient_is_exactly_zero(self, op):
        arrays, ids = fold_inputs(op, np.float32)
        arrays[0][0] = 1.5  # even a nonzero pad row is not trained
        _, (d_table, *_), _ = fold_run(op, arrays, ids)
        assert (ids == 0).any() and d_table[0].tobytes() == np.zeros_like(d_table[0]).tobytes()
        assert np.abs(d_table[1:]).max() > 0

    @pytest.mark.parametrize("op", FOLDED_OPS, ids=["conv1d", "lstm"])
    def test_row_0_trains_when_another_row_is_pad(self, op):
        arrays, ids = fold_inputs(op, np.float64)
        _, (d_table, *_), _ = fold_run(op, arrays, ids, pad_id=8)
        _, (ref, *_), _ = fold_run(op, arrays, ids, pad_id=8, fold=False)
        assert (ids == 8).any() and not d_table[8].any()
        assert np.abs(d_table[0]).max() > 0
        np.testing.assert_allclose(d_table, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("op", FOLDED_OPS, ids=["conv1d", "lstm"])
    def test_table_without_grad_gets_no_gradient(self, op):
        arrays, ids = fold_inputs(op, np.float64)
        _, (d_table, *d_weights), tape = fold_run(op, arrays, ids, table_grad=False)
        _, (_, *ref), _ = fold_run(op, arrays, ids)
        assert d_table is None
        for got, want in zip(d_weights, ref):
            np.testing.assert_array_equal(got, want)
        folded = tape._nodes[0]
        assert folded.inputs[0].shape == arrays[0].shape
        assert folded.backward_fn(np.ones(folded.output.shape))[0] is None

    def test_folded_lstm_holds_no_input_block(self):
        # numpy reports its buffers to tracemalloc
        rng = np.random.default_rng(4)
        batch, steps, vocab, dim, hidden = 64, 400, 40, 8, 16
        table, w_x, w_h = (
            ad.Tensor((rng.standard_normal(shape) * 0.3).astype(np.float32))
            for shape in [(vocab, dim), (dim, 4 * hidden), (hidden, 4 * hidden)]
        )
        b = ad.Tensor(np.zeros(4 * hidden, dtype=np.float32))
        lookup = ad.embedding(table, rng.integers(0, vocab, size=(batch, steps)))
        tracemalloc.start()
        try:
            ad.lstm(lookup, w_x, w_h, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < steps * batch * 4 * hidden * 4  # one [steps, batch, 4h] float32 block

    @pytest.mark.parametrize("record", [False, True], ids=["infer", "tape"])
    def test_folded_lstm_refuses_ids_past_a_hand_built_lookups_table(self, record):
        arrays, ids = fold_inputs(ad.lstm, np.float32)
        table, *weights = (ad.Tensor(a, requires_grad=record) for a in arrays)
        ids[2, 5] = table.shape[0]
        with ad.Tape(), pytest.raises(EncodingError):
            ad.lstm(ad.Lookup(table, ids, 0), *weights)

    @pytest.mark.parametrize("op", FOLDED_OPS, ids=["conv1d", "lstm"])
    def test_infer_output_equals_tape_output(self, op):
        arrays, ids = fold_inputs(op, np.float32)
        out, _, _ = fold_run(op, arrays, ids)
        table, *weights = (ad.Tensor(a) for a in arrays)
        infer = op(ad.embedding(table, ids), *weights)
        assert infer.data.tobytes() == out.tobytes()


def bad_lookup(case):
    """The arguments of a hand-built ``ad.Lookup`` that breaks its contract, and its error."""
    table = np.random.default_rng(8).standard_normal((5, 3))
    ids, pad_id, error = np.array([[1, 2, 3, 4]]), 0, ShapeError
    if case == "conv1d-id-past-rows":  # a 2-tap conv1d would read tap 1's row 1
        ids, error = np.array([[6, 1, 2]]), EncodingError
    elif case == "lstm-negative-id":  # the lstm would read the last row
        ids, error = np.array([[2, -1, 3]]), EncodingError
    elif case == "pad-minus-one":
        pad_id = -1
    elif case == "pad-equals-rows":
        pad_id = 5
    elif case == "float-ids":
        ids, error = ids.astype(np.float64), EncodingError
    elif case == "1-d-ids":
        ids, error = ids[0], EncodingError
    elif case == "1-d-table":
        table = table[:, 0]
    elif case == "infinite-table":
        table[4, 2], error = np.inf, DataError
    return table, ids, pad_id, error


BAD_LOOKUPS = ["conv1d-id-past-rows", "lstm-negative-id", "pad-minus-one", "pad-equals-rows",
               "float-ids", "1-d-ids", "1-d-table", "infinite-table"]


class TestLookupContract:
    @pytest.mark.parametrize("case", BAD_LOOKUPS)
    def test_bad_lookup_is_refused_when_made(self, case):
        table, ids, pad_id, error = bad_lookup(case)
        tensor = ad.Tensor(np.ones_like(table))
        tensor.data[...] = table  # as an optimizer writes, unchecked
        with pytest.raises(error, match="embedding"):
            ad.Lookup(tensor, ids, pad_id)
        with pytest.raises(error, match="embedding"):
            ad.embedding(tensor, ids, pad_id)

    @pytest.mark.parametrize("op", FOLDED_OPS, ids=["conv1d", "lstm"])
    def test_reader_gets_no_bad_lookup(self, op):
        case = "conv1d-id-past-rows" if op is ad.conv1d_valid else "lstm-negative-id"
        table, ids, pad_id, error = bad_lookup(case)
        weights = ([np.ones((2, 3, 4)), np.zeros(4)] if op is ad.conv1d_valid
                   else [np.ones((3, 8)), np.ones((2, 8)), np.zeros(8)])
        with pytest.raises(error):
            op(ad.Lookup(ad.Tensor(table), ids, pad_id), *(ad.Tensor(w) for w in weights))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 6),
        batch=st.integers(1, 3),
        length=st.integers(2, 6),
        dtype=st.sampled_from([np.int64, np.int32, np.int8, np.uint8, np.uint32,
                               np.float64, np.float32, np.bool_]),
        data=st.data(),
    )
    def test_lookup_is_refused_or_read_as_its_gather(self, rows, batch, length, dtype, data):
        raw = data.draw(hnp.arrays(np.int64, (batch, length), elements=st.integers(-3, rows + 3)))
        pad_id = data.draw(st.integers(-2, rows + 1))
        ids = raw.astype(dtype)  # negative ids wrap to large ones in unsigned dtypes
        valid = (np.dtype(dtype).kind in "iu" and 0 <= pad_id < rows
                 and ((ids >= 0) & (ids < rows)).all())
        rng = np.random.default_rng(rows * 100 + length)
        table = rng.standard_normal((rows, 5))
        try:
            ad.Lookup(ad.Tensor(table), ids, pad_id)
        except CostnetError:
            assert not valid
            return
        assert valid
        conv = [table, rng.standard_normal((2, 5, 6)), rng.standard_normal(6)]
        recur = [table, rng.standard_normal((5, 16)) * 0.4, rng.standard_normal((4, 16)) * 0.4,
                 rng.standard_normal(16) * 0.1]
        for op, arrays in [(ad.conv1d_valid, conv), (ad.lstm, recur)]:
            out, grads, _ = fold_run(op, arrays, ids, pad_id)
            ref_out, ref_grads, _ = fold_run(op, arrays, ids, pad_id, fold=False)
            for got, want in zip([out, *grads], [ref_out, *ref_grads]):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
