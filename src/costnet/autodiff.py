"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a C-contiguous numpy array plus a ``requires_grad`` flag.
Operations are plain functions. When a Tape is active (``with Tape() as t:``)
and any input of an op requires a gradient, the op records a node holding the
backward rule; ``t.gradients(loss)`` replays the nodes in reverse and returns
a map from leaf tensors to gradient arrays.

``embedding`` is the one op that returns no Tensor. Its ``Lookup`` record
hands ``(table, ids, pad_id)`` to the op that reads it, and that op gathers
only what it needs: ``conv1d_valid`` and ``lstm`` fold the lookup into their
first product, ``matmul`` gathers the rows up to the last filled position,
and each differentiates the table directly.

Numerics: float32 is the working precision, float64 is used for gradient
checking. All op outputs are validated to be finite, so a diverging training
run fails loudly instead of silently poisoning weights with NaN.

Thread model: tensors are treated as immutable values (only the optimizer
mutates parameter data, single-threaded); one tape belongs to one thread, and
ops run in another thread record nothing on it.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, ShapeError

DEFAULT_DTYPE = np.float32
# batchnorm's running statistics keep this share of their value each train step
_BN_MOMENTUM = 0.9
# added to batchnorm's variance before the square root
_BN_EPS = 1e-5
# central-difference half-width of grad_check
_FD_STEP = 1e-5


class Tensor:
    """N-dimensional array of finite reals, optionally tracked for gradients.

    Hashed by identity, since tapes key gradients by tensor; so no ``__eq__``.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64) or (
            dtype is None and not isinstance(data, (np.ndarray, np.generic))
        ):
            # plain python containers default to the 32-bit working precision
            arr = arr.astype(DEFAULT_DTYPE)
        arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise DataError("tensor contains NaN or Inf values")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class _ThreadTape(threading.local):
    """The innermost tape open in the calling thread; each thread sees its own."""

    tape: "Tape | None" = None


_ACTIVE_TAPE = _ThreadTape()


class Tape:
    """Records ops in execution order; execution order is topological."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._outer: Tape | None = None

    def __enter__(self) -> "Tape":
        self._outer = _ACTIVE_TAPE.tape
        _ACTIVE_TAPE.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.tape = self._outer
        self._outer = None

    def __len__(self) -> int:
        return len(self._nodes)

    def gradients(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Accumulate d(loss)/d(leaf) for every recorded leaf that feeds loss.

        The loss must be scalar. Intermediate gradients are freed as soon as
        their producing node has been processed, so only leaf gradients
        survive in the returned map.
        """
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
        for node in reversed(self._nodes):
            g = grads.pop(node.output, None)
            if g is None:
                continue
            for tensor, piece in zip(node.inputs, node.backward_fn(g)):
                if piece is None or not tensor.requires_grad:
                    continue
                held = grads.get(tensor)
                grads[tensor] = piece if held is None else held + piece
        grads.pop(loss, None)
        return grads


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on these inputs would be recorded on the active tape."""
    return _ACTIVE_TAPE.tape is not None and any(t.requires_grad for t in inputs)


def _emit(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result, recording a node if a tape is listening."""
    track = _recording(inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        _ACTIVE_TAPE.tape._nodes.append(_Node(tuple(inputs), out, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _emit(out, (a, b), back)


def relu(x: Tensor) -> Tensor:
    """max(x, 0). Every zero of the output and of its gradient is +0.

    So the zeros do not depend on the order of relu and ``maxpool1d``: both
    orders give the same bits, forward and backward.
    """
    out = np.maximum(x.data, 0)
    mask = x.data > 0

    def back(g):
        dx = g * mask
        dx += 0  # a negative g times a closed unit is -0
        return (dx,)

    return _emit(out, (x,), back)


def _logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) in the dtype of x; exactly 0 or 1 far out in the tails.

    ``out`` may be ``x`` itself. exp(-x) overflows to inf where the exact 0
    is wanted, so callers run this under ``np.errstate(over="ignore")``.
    """
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1
    return np.divide(1, out, out=out)


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        s = _logistic(x.data)

    def back(g):
        return (g * s * (1 - s),)

    return _emit(s, (x,), back)


# ---------------------------------------------------------------------------
# reductions, reshapes


def tsum(x: Tensor) -> Tensor:
    out = x.data.sum()

    def back(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=False),)

    return _emit(out, (x,), back)


def bce_with_logits(z: Tensor, y: np.ndarray, w: np.ndarray) -> Tensor:
    """mean(w * (ln(1 + e^z) - y z)): weighted cross-entropy of a logit vector.

    ``y`` holds the 0/1 labels and ``w`` the per-row weights, both aligned with
    ``z`` and cast to its dtype. The value is finite at every finite logit and
    the gradient, w (sigmoid(z) - y) / n, never vanishes on a wrong-side row.
    """
    y = np.asarray(y, dtype=z.dtype)
    w = np.asarray(w, dtype=z.dtype)
    if z.data.ndim != 1 or y.shape != z.shape or w.shape != z.shape:
        raise ShapeError(f"bce_with_logits: {z.shape}, {y.shape}, {w.shape} are not one vector")
    out = np.mean(w * (np.logaddexp(0, z.data) - y * z.data))

    def back(g):
        with np.errstate(over="ignore"):
            s = _logistic(z.data)
        return (g * w * (s - y) / z.size,)

    return _emit(out, (z,), back)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def back(g):
        return (g.reshape(x.shape),)

    return _emit(out, (x,), back)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor | Lookup, b: Tensor) -> Tensor:
    """``a @ b``; given a ``Lookup``, its gathered rows, flattened per row, times ``b``.

    A lookup of a ``[vocab, dim]`` table E by ``[batch, len]`` ids needs a
    ``[len * dim, units]`` ``b``. Positions past the last column that holds a
    non-pad id in any row read the pad row; when that row is all zero they add
    exact zeros, so only the ``live`` prefix is gathered and multiplied by
    ``b[:live * dim]``. Its backward fills rows ``[0, live * dim)`` of an
    otherwise zero ``db`` with one GEMM and scatters ``g @ b_live^T`` into E
    with accumulation over repeated ids, skipping pad positions so the pad row
    stays frozen. The node records E as its input.
    """
    if isinstance(a, Lookup):
        return _lookup_matmul(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g):
        da = g @ b.data.T if a.requires_grad else None
        db = a.data.T @ g if b.requires_grad else None
        return da, db

    return _emit(out, (a, b), back)


def _lookup_matmul(x: Lookup, w: Tensor) -> Tensor:
    table, ids, pad_id = x
    dim = table.shape[1]
    if ids.ndim != 2 or w.data.ndim != 2 or ids.shape[1] * dim != w.shape[0]:
        raise ShapeError(
            f"matmul: lookup of {ids.shape} ids into {table.shape} cannot multiply {w.shape}"
        )
    live = ids.shape[1]
    if not table.data[pad_id].any():
        filled = np.flatnonzero((ids != pad_id).any(axis=0))
        live = int(filled[-1]) + 1 if filled.size else 0
    live_ids = ids[:, :live]
    rows = table.data[live_ids].reshape(len(ids), live * dim)
    w_live = w.data[: live * dim]
    out = rows @ w_live

    def back(g):
        de = dw = None
        if w.requires_grad:
            dw = np.zeros_like(w.data)
            np.matmul(rows.T, g, out=dw[: live * dim])
        if table.requires_grad:
            de = np.zeros_like(table.data)
            flat_ids = live_ids.reshape(-1)
            # the kept positions stay in order, so each row's sum is unchanged
            keep = flat_ids != pad_id
            np.add.at(de, flat_ids[keep], (g @ w_live.T).reshape(-1, dim)[keep])
        return de, dw

    return _emit(out, (table, w), back)


class Lookup(NamedTuple):
    """Rows ``ids`` of a ``[vocab, dim]`` table, not yet gathered.

    ``pad_id`` names the row the lookup keeps frozen: it gets no gradient.
    ``conv1d_valid``, ``lstm`` and ``matmul`` read a lookup; ``matmul`` skips
    the trailing pad positions when the pad row is all zero.
    """

    table: Tensor
    ids: np.ndarray
    pad_id: int


def embedding(table: Tensor, ids: np.ndarray, pad_id: int = 0) -> Lookup:
    """Look rows of ``table`` up by integer id, leaving the gather to the reader.

    Checks the ids against the table and the table for NaN or Inf, and
    returns a ``Lookup``: no gather, no tensor and no tape node.
    ``conv1d_valid`` and ``lstm`` fold it into their first product; ``matmul``
    gathers its live prefix. The table is checked here because no output check
    can stand in for it: the lstm's gates saturate, so an infinite entry leaves
    its output finite.
    """
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding: ids out of range for table with {table.shape[0]} rows"
        )
    if not np.isfinite(table.data).all():
        raise DataError("embedding: table contains NaN or Inf values")
    return Lookup(table, ids, pad_id)


def _onehot(ids: np.ndarray, width: int, dtype) -> np.ndarray:
    """``[rows, width]`` indicator for a ``[rows, m]`` id array: a 1 at each id."""
    out = np.zeros((ids.shape[0], width), dtype=dtype)
    out[np.arange(ids.shape[0])[:, None], ids] = 1
    return out


# ---------------------------------------------------------------------------
# sequence ops


def conv1d_valid(x: Lookup, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid (unpadded) cross-correlation over the time axis of a lookup.

    x: ``Lookup`` of a [vocab, in_ch] table E by [batch, len] ids,
    kernels: [k, in_ch, out_ch], bias: [out_ch]
    returns [batch, len - k + 1, out_ch].

    The lookup is folded in: ``P_j = E @ K_j`` is a small ``[vocab, out_ch]``
    table per tap and the output is ``bias + sum_j P_j[ids[:, j:j+n]]``. The
    node records E as its input: ``dP = onehot_windows^T @ g`` is one GEMM,
    ``dK_j = E^T @ dP_j`` and ``dE = sum_j dP_j @ K_j^T`` with the pad row
    zeroed, so the ``[batch, len, in_ch]`` activation is never built.
    """
    if not isinstance(x, Lookup):
        raise ContractError(f"conv1d: expected an embedding lookup, got {type(x).__name__}")
    table, ids, pad_id = x
    if ids.ndim != 2 or kernels.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeError(
            f"conv1d: expected 2d ids, 3d kernels, 1d bias, got {ids.shape}, "
            f"{kernels.shape}, {bias.shape}"
        )
    batch, length = ids.shape
    vocab, in_ch = table.shape
    k, k_in, out_ch = kernels.shape
    if k_in != in_ch:
        raise ShapeError(f"conv1d: channel mismatch {in_ch} vs {k_in}")
    if bias.shape != (out_ch,):
        raise ShapeError(f"conv1d: bias shape {bias.shape} != ({out_ch},)")
    if length < k:
        raise ShapeError(f"conv1d: sequence too short, len {length} < kernel {k}")
    out_len = length - k + 1
    # row j * vocab + v of ptab is P_j[v]; window (b, t) reads rows cols[b, t]
    ptab = np.matmul(table.data, kernels.data).reshape(k * vocab, out_ch)
    cols = np.lib.stride_tricks.sliding_window_view(ids, k, axis=1) + np.arange(k) * vocab
    out = np.take(ptab, cols[:, :, 0], axis=0)
    for j in range(1, k):
        out += np.take(ptab, cols[:, :, j], axis=0)
    out += bias.data

    def back(g):
        db = g.sum(axis=(0, 1)) if bias.requires_grad else None
        if not (table.requires_grad or kernels.requires_grad):
            return None, None, db
        onehot = _onehot(cols.reshape(batch * out_len, k), k * vocab, g.dtype)
        dp = (onehot.T @ g.reshape(batch * out_len, out_ch)).reshape(k, vocab, out_ch)
        dk = table.data.T @ dp if kernels.requires_grad else None
        de = None
        if table.requires_grad:
            de = dp.transpose(1, 0, 2).reshape(vocab, k * out_ch) @ (
                kernels.data.transpose(0, 2, 1).reshape(k * out_ch, in_ch)
            )
            de[pad_id] = 0
        return de, dk, db

    return _emit(out, (table, kernels, bias), back)


def maxpool1d(x: Tensor, pool: int) -> Tensor:
    """Non-overlapping window maxima over the time axis; remainder dropped.

    Gradient routes to the first maximal element of each window.
    """
    if not isinstance(pool, int) or pool <= 0:
        raise ConfigError(f"maxpool1d: pool length must be a positive int, got {pool}")
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool1d: expected [batch, len, ch], got {x.shape}")
    length = x.shape[1]
    if length < pool:
        raise ShapeError(f"maxpool1d: len {length} < pool {pool}")
    m = length // pool * pool
    # the strided slice j holds element j of every window; a strict > keeps
    # the first maximum on ties, and arg records which slice won
    out = x.data[:, 0:m:pool].copy()
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(pool - 1))
    bits = out.view(f"i{out.itemsize}")
    for j in range(1, pool):
        s = x.data[:, j:m:pool]
        wins = s > out
        # out = where(wins, s, out) as a bitwise select: np.where branches per
        # element, which is several times slower on a maxpool's random masks
        bits ^= (bits ^ s.view(bits.dtype)) & -wins.astype(bits.dtype)
        arg += wins * (j - arg)

    def back(g):
        dx = np.zeros_like(x.data)
        for j in range(pool):
            np.multiply(g, arg == j, out=dx[:, j:m:pool])
        dx += 0  # a negative g times a lost slot is -0; keep every zero +0
        return (dx,)

    return _emit(out, (x,), back)


def lstm(x: Tensor | Lookup, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """Gated recurrence over [batch, len, dim]; returns the final hidden state.

    Gate layout along the 4h axis is (input, forget, candidate, output):
    i, f, o are sigmoid gates, the candidate is tanh, and
    c_t = f * c_{t-1} + i * cand, h_t = o * tanh(c_t), with zero initial
    states.

    Only the recurrent term is sequential, so everything else runs over all
    steps at once, as in Appleyard et al. 2016, "Optimizing Performance of
    Recurrent Neural Networks on GPUs" (arXiv:1604.01946). The forward pass
    works step-major: a tensor's inputs of every step are projected in one
    GEMM into ``[steps, batch, 4h]``, so each step's slice is contiguous, and
    each step adds ``h_{t-1} @ w_h`` and then ``b`` to its input slice. While
    a tape records, the gates (``[steps, 4, batch, hidden]``), ``tanh(c_t)``
    and the states ``c_t`` and ``h_t`` (``[steps(+1), batch, hidden]``) go
    into preallocated arrays; otherwise only the current step is kept. The
    backward rule is full BPTT: the reverse loop only fills the stacked gate
    gradients ``DZ`` (``[steps, batch, 4h]``) and carries
    ``dh = dz_t @ w_h^T`` and ``dc``.
    Then ``dw_x = X^T @ DZ``, ``dw_h = H_prev^T @ DZ``, ``db = sum(DZ)`` and
    ``dx = DZ @ w_x^T`` are one GEMM or one sum each over all steps.

    ``x`` is a [batch, len, dim] tensor or a ``Lookup`` of a [vocab, dim]
    table E by [batch, len] ids. A lookup is folded into the input projection:
    ``Q = E @ w_x`` is one ``[vocab, 4h]`` table, and step t reads its rows
    ``Q[ids[:, t]]`` when it runs, with or without a tape, so no
    ``[steps, batch, 4h]`` input block is built. An id past the table's rows
    raises ``IndexError``. The node records E as its input. Its x-side
    backward is ``dQ = onehot^T @ DZ``, ``dw_x = E^T @ dQ`` and
    ``dE = dQ @ w_x^T`` with the pad row zeroed, all over ``vocab`` rows; the
    recurrent loop is the same for both inputs.
    """
    folded = isinstance(x, Lookup)
    if folded:
        table, ids, pad_id = x
        shape = ids.shape + table.shape[1:]
    else:
        shape = x.shape
    if len(shape) != 3:
        raise ShapeError(f"lstm: expected [batch, len, dim], got {shape}")
    batch, steps, dim = shape
    if steps < 1:
        raise ShapeError("lstm: needs at least one time step")
    hidden = w_h.shape[0]
    if w_x.shape != (dim, 4 * hidden) or w_h.shape != (hidden, 4 * hidden) or b.shape != (4 * hidden,):
        raise ShapeError(
            f"lstm: weight shapes {w_x.shape}, {w_h.shape}, {b.shape} do not "
            f"match input dim {dim} and hidden {hidden}"
        )
    if folded:
        inputs = (table, w_x, w_h, b)
        step_ids = ids.T  # [steps, batch]
        z_tab = table.data @ w_x.data
    else:
        inputs = (x, w_x, w_h, b)
        xs = np.ascontiguousarray(x.data.transpose(1, 0, 2)).reshape(steps * batch, dim)
        z_in = (xs @ w_x.data).reshape(steps, batch, 4 * hidden)
    dtype = np.result_type(*(t.data for t in inputs))
    track = _recording(inputs)
    # without a tape one slot is overwritten every step; with one, slot t
    # holds step t and the states carry the zero initial state in slot 0
    kept = steps if track else 1
    # gates are stored gate-major, so each gate's [batch, hidden] block is
    # contiguous: numpy runs a ufunc on a strided block row by row, 2-3x slower
    gates = np.empty((kept, 4, batch, hidden), dtype=dtype)
    tcs = np.empty((kept, batch, hidden), dtype=dtype)
    cs = np.zeros((kept + track, batch, hidden), dtype=dtype)
    hs = np.zeros((kept + track, batch, hidden), dtype=dtype)
    z = np.empty((batch, 4 * hidden), dtype=dtype)
    z_gates = z.reshape(batch, 4, hidden).swapaxes(0, 1)
    ic = np.empty((batch, hidden), dtype=dtype)  # i * cand
    with np.errstate(over="ignore"):
        for t in range(steps):
            s = t if track else 0
            x_t = z_tab[step_ids[t]] if folded else z_in[t]
            np.add(x_t, hs[s] @ w_h.data, out=z)
            z += b.data
            i, f, cand, o = gates[s]
            _logistic(z_gates[:2], out=gates[s, :2])  # i and f
            np.tanh(z_gates[2], out=cand)
            _logistic(z_gates[3], out=o)
            c = np.multiply(f, cs[s], out=cs[s + track])
            c += np.multiply(i, cand, out=ic)
            np.tanh(c, out=tcs[s])
            np.multiply(o, tcs[s], out=hs[s + track])

    def back(g):
        dz = np.empty((steps, batch, 4 * hidden), dtype=dtype)
        dz_gates = dz.reshape(steps, batch, 4, hidden).swapaxes(1, 2)
        d = np.empty((4, batch, hidden), dtype=dtype)  # step t's dz, gate-major
        di, df, dcand, do = d
        tmp = np.empty((batch, hidden), dtype=dtype)
        dh = g
        dc = np.zeros_like(g)
        for t in range(steps - 1, -1, -1):
            i, f, cand, o = gates[t]
            # dc += dh * o * (1 - tanh(c_t)^2)
            np.multiply(tcs[t], tcs[t], out=tmp)
            np.subtract(1, tmp, out=tmp)
            tmp *= o
            tmp *= dh
            dc += tmp
            # The gate derivatives are taken per step, while the step's slice
            # is in cache: over all steps at once each pass streams the whole
            # history from memory, which is slower at batch 64 and 100 steps.
            np.subtract(1, gates[t], out=d)
            d *= gates[t]  # s * (1 - s), right for the sigmoid gates
            np.multiply(cand, cand, out=dcand)
            np.subtract(1, dcand, out=dcand)
            di *= cand
            df *= cs[t]
            dcand *= i
            do *= tcs[t]
            d[:3] *= dc
            do *= dh
            np.copyto(dz_gates[t], d)
            if t:  # step 0's carries would only reach the zero initial state
                dh = dz[t] @ w_h.data.T
                dc *= f
        dz_flat = dz.reshape(steps * batch, 4 * hidden)
        dwh = hs[:-1].reshape(steps * batch, hidden).T @ dz_flat if w_h.requires_grad else None
        db = dz_flat.sum(axis=0) if b.requires_grad else None
        dx = dwx = None
        if not folded:
            dwx = xs.T @ dz_flat if w_x.requires_grad else None
            if x.requires_grad:
                dx = np.ascontiguousarray(
                    (dz_flat @ w_x.data.T).reshape(steps, batch, dim).transpose(1, 0, 2)
                )
        elif table.requires_grad or w_x.requires_grad:
            dq = _onehot(step_ids.reshape(-1, 1), table.shape[0], dtype).T @ dz_flat
            dwx = table.data.T @ dq if w_x.requires_grad else None
            if table.requires_grad:
                dx = dq @ w_x.data.T  # the table's gradient
                dx[pad_id] = 0
        return dx, dwx, dwh, db

    return _emit(hs[-1], inputs, back)


def batchnorm(
    x: Tensor,
    scale: Tensor,
    shift: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Per-feature normalization on [batch, features].

    Train mode uses batch statistics (biased variance) and folds them into
    the running buffers in place at ``_BN_MOMENTUM``; infer mode reads the
    buffers. Scale and shift are learnable.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"batchnorm: expected [batch, features], got {x.shape}")
    batch, feat = x.shape
    if scale.shape != (feat,) or shift.shape != (feat,):
        raise ShapeError("batchnorm: scale/shift must be one value per feature")
    if training:
        if batch < 2:
            raise ShapeError(f"batchnorm: train mode needs batch >= 2, got {batch}")
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        running_mean *= _BN_MOMENTUM
        running_mean += (1 - _BN_MOMENTUM) * mean
        running_var *= _BN_MOMENTUM
        running_var += (1 - _BN_MOMENTUM) * var
    else:
        mean = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + _BN_EPS)
    xhat = (x.data - mean) * inv
    out = scale.data * xhat + shift.data

    def back(g):
        dscale = (g * xhat).sum(axis=0) if scale.requires_grad else None
        dshift = g.sum(axis=0) if shift.requires_grad else None
        dx = None
        if x.requires_grad:
            dxhat = g * scale.data
            if training:
                dx = (
                    inv
                    / batch
                    * (
                        batch * dxhat
                        - dxhat.sum(axis=0)
                        - xhat * (dxhat * xhat).sum(axis=0)
                    )
                )
            else:
                dx = dxhat * inv
        return dx, dscale, dshift

    return _emit(out, (x, scale, shift), back)


def dropout_mask(
    shape: tuple[int, ...],
    rate: float,
    rng: np.random.Generator | None,
    dtype=DEFAULT_DTYPE,
) -> Tensor:
    """Inverted-dropout mask: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ConfigError("dropout needs a random generator")
    keep = rng.random(shape) >= rate
    mask = keep.astype(dtype) / np.asarray(1.0 - rate, dtype=dtype)
    return Tensor(mask)


# ---------------------------------------------------------------------------
# finite-difference verification


def grad_check(f: Callable[..., Tensor], point: Tensor | Iterable[Tensor]) -> float:
    """Worst relative disagreement between tape gradients and central differences.

    ``f`` must be scalar-valued; ``point`` is evaluated at float64 regardless
    of input dtype. Per coordinate the error is
    |g_ad - g_fd| / max(1, |g_ad|, |g_fd|); the maximum over all coordinates
    of all point tensors is returned.
    """
    pts = [point] if isinstance(point, Tensor) else list(point)
    pts = [Tensor(p.data.astype(np.float64), requires_grad=True) for p in pts]

    with Tape() as tape:
        out = f(*pts)
    if out.size != 1:
        raise ContractError("grad_check: f must be scalar-valued")
    grads = tape.gradients(out)

    worst = 0.0
    for p in pts:
        ad = grads.get(p)
        if ad is None:
            ad = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + _FD_STEP
            hi = f(*pts).item()
            flat[idx] = orig - _FD_STEP
            lo = f(*pts).item()
            flat[idx] = orig
            fd = (hi - lo) / (2 * _FD_STEP)
            a = ad.reshape(-1)[idx]
            err = abs(a - fd) / max(1.0, abs(a), abs(fd))
            if err > worst:
                worst = err
    return worst
