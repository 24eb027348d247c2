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


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on these inputs would be recorded on the active tape."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def _emit(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result, recording a node if a tape is listening."""
    track = _recording(inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        _ACTIVE_TAPE._nodes.append(_Node(tuple(inputs), out, backward_fn))
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
    states.

    Only the recurrent term is sequential, so everything else runs over all
    steps at once, as in Appleyard et al. 2016, "Optimizing Performance of
    Recurrent Neural Networks on GPUs" (arXiv:1604.01946). The forward pass
    works step-major: it projects the inputs of every step in one GEMM into
    ``[steps, batch, 4h]``, so each step's slice is contiguous, and adds
    ``h_{t-1} @ w_h`` and ``b`` in that order per step. While a tape records,
    the gates (``[steps, 4, batch, hidden]``), ``tanh(c_t)`` and the states
    ``c_t`` and ``h_t`` (``[steps(+1), batch, hidden]``) go into preallocated
    arrays; otherwise only the current step is kept. The backward rule is
    full BPTT: the reverse loop only fills the stacked gate gradients ``DZ``
    (``[steps, batch, 4h]``) and carries ``dh = dz_t @ w_h^T`` and ``dc``.
    Then ``dw_x = X^T @ DZ``, ``dw_h = H_prev^T @ DZ``, ``db = sum(DZ)`` and
    ``dx = DZ @ w_x^T`` are one GEMM or one sum each over all steps.
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
    dtype = np.result_type(x.data, w_x.data, w_h.data, b.data)
    track = _recording((x, w_x, w_h, b))
    xs = np.ascontiguousarray(x.data.transpose(1, 0, 2)).reshape(steps * batch, dim)
    z_in = (xs @ w_x.data).reshape(steps, batch, 4 * hidden)
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
            np.add(z_in[t], hs[s] @ w_h.data, out=z)
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
        dwx = xs.T @ dz_flat if w_x.requires_grad else None
        dwh = hs[:-1].reshape(steps * batch, hidden).T @ dz_flat if w_h.requires_grad else None
        db = dz_flat.sum(axis=0) if b.requires_grad else None
        dx = None
        if x.requires_grad:
            dx = np.ascontiguousarray(
                (dz_flat @ w_x.data.T).reshape(steps, batch, dim).transpose(1, 0, 2)
            )
        return dx, dwx, dwh, db

    return _emit(hs[-1], (x, w_x, w_h, b), back)


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
