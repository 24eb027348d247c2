"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a C-contiguous numpy array plus a ``requires_grad`` flag.
Operations are plain functions. When a Tape is active (``with Tape() as t:``)
and any input of an op requires a gradient, the op records a node holding the
backward rule; ``t.gradients(loss)`` replays the nodes in reverse and returns
a map from leaf tensors to gradient arrays.

Numerics: float32 is the working precision, float64 is used for gradient
checking. All op outputs are validated to be finite, so a diverging training
run fails loudly instead of silently poisoning weights with NaN.

Thread model: tensors are treated as immutable values (only the optimizer
mutates parameter data, single-threaded); one tape belongs to one thread.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, ShapeError

DEFAULT_DTYPE = np.float32


class Tensor:
    """N-dimensional array of finite reals, optionally tracked for gradients."""

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

    # convenience operators; note identity-based hashing must survive, so no __eq__
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


class _Node:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Records ops in execution order; execution order is topological."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._outer: Tape | None = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._outer = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._outer
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


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-topological gradient accumulation over a recorded tape."""
    return tape.gradients(loss)


def _emit(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result, recording a node if a tape is listening."""
    tape = _ACTIVE_TAPE
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape._nodes.append(_Node(tuple(inputs), out, backward_fn))
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


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

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
    out = np.maximum(x.data, 0)
    mask = x.data > 0

    def back(g):
        return (g * mask,)

    return _emit(out, (x,), back)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in the dtype of x; exactly 0 or 1 far out in the tails."""
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives the exact 0
        return 1 / (1 + np.exp(-x))


def sigmoid(x: Tensor) -> Tensor:
    s = _logistic(x.data)

    def back(g):
        return (g * s * (1 - s),)

    return _emit(s, (x,), back)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def back(g):
        return (g * (1 - t * t),)

    return _emit(t, (x,), back)


def log(x: Tensor) -> Tensor:
    if (x.data <= 0).any():
        raise DataError("log: input must be strictly positive")
    out = np.log(x.data)

    def back(g):
        return (g / x.data,)

    return _emit(out, (x,), back)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp into [lo, hi]; gradient passes through unclamped entries only."""
    out = np.clip(x.data, lo, hi)
    passthrough = (x.data >= lo) & (x.data <= hi)

    def back(g):
        return (g * passthrough,)

    return _emit(out, (x,), back)


# ---------------------------------------------------------------------------
# reductions, reshapes


def tsum(x: Tensor) -> Tensor:
    out = x.data.sum()

    def back(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=False),)

    return _emit(out, (x,), back)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    out = x.data.mean(axis=axis)
    if axis is None:
        count = x.size
    else:
        count = x.shape[axis]

    def back(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return ((np.broadcast_to(g, x.shape) / count).astype(x.dtype, copy=False),)

    return _emit(out, (x,), back)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def back(g):
        return (g.reshape(x.shape),)

    return _emit(out, (x,), back)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g):
        da = g @ b.data.T if a.requires_grad else None
        db = a.data.T @ g if b.requires_grad else None
        return da, db

    return _emit(out, (a, b), back)


def embedding(table: Tensor, ids: np.ndarray, pad_id: int | None = 0) -> Tensor:
    """Gather rows of ``table`` by integer id.

    Gradient scatters back with accumulation over repeated ids; the pad row
    (if given) is kept frozen by skipping its positions in the scatter.
    """
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding: ids out of range for table with {table.shape[0]} rows"
        )
    out = table.data[ids]

    def back(g):
        if not table.requires_grad:
            return (None,)
        dt = np.zeros_like(table.data)
        flat_ids, rows = ids.reshape(-1), g.reshape(-1, table.shape[1])
        if pad_id is not None:
            # the remaining rows keep their order, so each sum is unchanged
            keep = flat_ids != pad_id
            flat_ids, rows = flat_ids[keep], rows[keep]
        np.add.at(dt, flat_ids, rows)
        return (dt,)

    return _emit(out, (table,), back)


# ---------------------------------------------------------------------------
# sequence ops


def conv1d_valid(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid (unpadded) cross-correlation over the time axis.

    x: [batch, len, in_ch], kernels: [k, in_ch, out_ch], bias: [out_ch]
    returns [batch, len - k + 1, out_ch].
    """
    if x.data.ndim != 3 or kernels.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeError(
            f"conv1d: expected 3d x, 3d kernels, 1d bias, got {x.shape}, "
            f"{kernels.shape}, {bias.shape}"
        )
    batch, length, in_ch = x.shape
    k, k_in, out_ch = kernels.shape
    if k_in != in_ch:
        raise ShapeError(f"conv1d: channel mismatch {in_ch} vs {k_in}")
    if bias.shape != (out_ch,):
        raise ShapeError(f"conv1d: bias shape {bias.shape} != ({out_ch},)")
    if length < k:
        raise ShapeError(f"conv1d: sequence too short, len {length} < kernel {k}")
    out_len = length - k + 1
    # im2col: one large matmul instead of a python loop over positions
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=1)
    flat = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(
        batch * out_len, k * in_ch
    )
    kflat = kernels.data.reshape(k * in_ch, out_ch)
    out = (flat @ kflat).reshape(batch, out_len, out_ch) + bias.data

    def back(g):
        gflat = g.reshape(batch * out_len, out_ch)
        dk = (flat.T @ gflat).reshape(k, in_ch, out_ch) if kernels.requires_grad else None
        db = g.sum(axis=(0, 1)) if bias.requires_grad else None
        dx = None
        if x.requires_grad:
            dwin = (gflat @ kflat.T).reshape(batch, out_len, k, in_ch)
            dx = np.zeros_like(x.data)
            for j in range(k):
                dx[:, j : j + out_len, :] += dwin[:, :, j, :]
        return dx, dk, db

    return _emit(out, (x, kernels, bias), back)


def maxpool1d(x: Tensor, pool: int) -> Tensor:
    """Non-overlapping window maxima over the time axis; remainder dropped.

    Gradient routes to the first maximal element of each window.
    """
    if not isinstance(pool, int) or pool <= 0:
        raise ConfigError(f"maxpool1d: pool length must be a positive int, got {pool}")
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool1d: expected [batch, len, ch], got {x.shape}")
    batch, length, ch = x.shape
    if length < pool:
        raise ShapeError(f"maxpool1d: len {length} < pool {pool}")
    n = length // pool
    win = x.data[:, : n * pool, :].reshape(batch, n, pool, ch)
    arg = win.argmax(axis=2)  # argmax picks the first occurrence on ties
    out = np.take_along_axis(win, arg[:, :, None, :], axis=2)[:, :, 0, :]

    def back(g):
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, arg[:, :, None, :], g[:, :, None, :], axis=2)
        dx = np.zeros_like(x.data)
        dx[:, : n * pool, :] = dwin.reshape(batch, n * pool, ch)
        return (dx,)

    return _emit(out, (x,), back)


def lstm(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """Gated recurrence over [batch, len, dim]; returns the final hidden state.

    Gate layout along the 4h axis is (input, forget, candidate, output):
    i, f, o are sigmoid gates, the candidate is tanh, and
    c_t = f * c_{t-1} + i * cand, h_t = o * tanh(c_t), with zero initial
    states. The backward rule is hand-written truncated-free BPTT over the
    cached per-step activations.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"lstm: expected [batch, len, dim], got {x.shape}")
    batch, steps, dim = x.shape
    if steps < 1:
        raise ShapeError("lstm: needs at least one time step")
    hidden = w_h.shape[0]
    if w_x.shape != (dim, 4 * hidden) or w_h.shape != (hidden, 4 * hidden) or b.shape != (4 * hidden,):
        raise ShapeError(
            f"lstm: weight shapes {w_x.shape}, {w_h.shape}, {b.shape} do not "
            f"match input dim {dim} and hidden {hidden}"
        )
    h = np.zeros((batch, hidden), dtype=x.dtype)
    c = np.zeros((batch, hidden), dtype=x.dtype)
    # project all steps' inputs at once; the recurrent term stays per-step
    z_in = (x.data.reshape(batch * steps, dim) @ w_x.data).reshape(batch, steps, 4 * hidden)
    cache = []
    for t in range(steps):
        z = z_in[:, t, :] + h @ w_h.data + b.data
        i = _logistic(z[:, :hidden])
        f = _logistic(z[:, hidden : 2 * hidden])
        cand = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = _logistic(z[:, 3 * hidden :])
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

    return _emit(h, (x, w_x, w_h, b), back)


def batchnorm(
    x: Tensor,
    scale: Tensor,
    shift: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.9,
    eps: float = 1e-5,
) -> Tensor:
    """Per-feature normalization on [batch, features].

    Train mode uses batch statistics (biased variance) and folds them into
    the running buffers in place; infer mode reads the buffers. Scale and
    shift are learnable.
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
        running_mean *= momentum
        running_mean += (1 - momentum) * mean
        running_var *= momentum
        running_var += (1 - momentum) * var
    else:
        mean = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)
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
    rng: np.random.Generator | None = None,
    dtype=DEFAULT_DTYPE,
) -> Tensor:
    """Inverted-dropout mask: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return Tensor(np.ones(shape, dtype=dtype))
    if rng is None:
        raise ConfigError("dropout with rate > 0 needs a random generator")
    keep = rng.random(shape) >= rate
    mask = keep.astype(dtype) / np.asarray(1.0 - rate, dtype=dtype)
    return Tensor(mask)


# ---------------------------------------------------------------------------
# finite-difference verification


def grad_check(
    f: Callable[..., Tensor],
    point: Tensor | Iterable[Tensor],
    step: float = 1e-5,
) -> float:
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
            flat[idx] = orig + step
            hi = f(*pts).item()
            flat[idx] = orig - step
            lo = f(*pts).item()
            flat[idx] = orig
            fd = (hi - lo) / (2 * step)
            a = ad.reshape(-1)[idx]
            err = abs(a - fd) / max(1.0, abs(a), abs(fd))
            if err > worst:
                worst = err
    return worst
