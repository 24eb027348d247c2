"""Layer stacks and the four fixed architectures for binary text classification.

Every preset starts with a 128-dim character embedding and ends in a
single-unit dense layer, producing one logit per sequence; ``forward`` returns
that logit for training and its sigmoid, the probability, for inference:

  dnn       flatten, then 512/384/256/128 relu layers with dropout 0.01 and
            batch normalization between the hidden layers
  cnn       64 conv filters of length 3, maxpool 2, relu, dense 128 + relu,
            dropout 0.3
  lstm      128 recurrent units, last state only, dropout 0.3
  cnn_lstm  the cnn front-end feeding a 50-unit recurrence

In the cnn front-end the relu follows the maxpool. relu is monotone, so this
gives the bits of relu-then-maxpool, forward and backward, with half the
relu work.

The table ``_KINDS`` is the one place that defines a layer kind: its
hyperparameter check, output shape, arrays and forward op. ``LayerSpec``,
``output_shapes``, ``parameter_table`` and ``forward`` only look kinds up there.

The embedding layer gathers nothing: ``ad.embedding`` checks the ids, the one
check they get, and hands an ``ad.Lookup`` to the next layer. ``ad.conv1d_valid``
(cnn, cnn_lstm) and ``ad.lstm`` (lstm) fold it into their first linear map; dnn's
flatten passes it on to the first dense layer's ``ad.matmul``, which gathers
rows only up to the last position any row fills. cnn_lstm's lstm reads the
front-end's output, a tensor; the input alone decides this.

Weight init is uniform Glorot; the recurrent forget-gate bias starts at 1,
the embedding pad row starts (and stays) at zero. ``parameter_table`` lists
every array of a model without drawing any random numbers, so a checkpoint
can be rebuilt without paying for an init it would overwrite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .text import PAD_ID

PRESETS = ("dnn", "cnn", "lstm", "cnn_lstm")
# longest sequence a model takes: the csv module's field size limit, so the
# longest text the CLI can read
MAX_LEN_LIMIT = 131_072


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a model: a kind tag plus its hyperparameters."""

    kind: str
    units: int = 0  # dense/lstm width
    filters: int = 0  # conv output channels
    kernel: int = 0  # conv window length
    rate: float = 0.0  # dropout
    pool: int = 0  # maxpool window
    dim: int = 0  # embedding width

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if not _KINDS[self.kind].valid(self):
            raise ConfigError(f"invalid hyperparameters for {self.kind}: {self}")


@dataclass(frozen=True)
class PresetDims:
    """Widths of the preset architectures; override for scaled-down copies."""

    embed_dim: int = 128
    conv_filters: int = 64
    conv_kernel: int = 3
    pool: int = 2
    lstm_units: int = 128
    cnn_lstm_units: int = 50
    dnn_widths: tuple[int, ...] = (512, 384, 256, 128)
    dnn_dropout: float = 0.01
    cnn_dense: int = 128
    head_dropout: float = 0.3


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple[LayerSpec, ...]
    vocab_size: int
    max_len: int
    preset: str


@dataclass(frozen=True)
class ParamEntry:
    """One named array of a model: its shape and how it starts.

    ``init`` is one of ``glorot`` (uniform over +-sqrt(6 / (fan_in + fan_out))),
    ``embedding`` (glorot with the PAD row zeroed), ``zeros``, ``ones`` or
    ``forget_bias`` (zeros with the forget-gate quarter at 1). The fans come
    from the shape alone, as in Glorot & Bengio (2010): the last axis holds
    the outputs, the next-to-last the inputs, and any leading axes (a conv
    kernel's taps) multiply both, so fan_in = prod(shape[:-1]) and fan_out =
    prod(shape[:-2]) * shape[-1].

    A buffer is a tensor with ``requires_grad=False``: it is not trained, and
    only batchnorm's train mode changes it, in place.
    """

    name: str
    shape: tuple[int, ...]
    init: str
    buffer: bool = False


#: what a forward pass hands every layer besides its input and its arrays
_Run = NamedTuple("_Run", [("ids", np.ndarray), ("training", bool), ("rng", object)])


class _Kind(NamedTuple):
    """One layer kind; ``_KINDS`` holds the only definition of each.

    ``valid(layer)`` checks the hyperparameters; ``out(layer, in_shape)`` is the
    output shape, raising ``ConfigError`` where the chain does not fit;
    ``arrays(layer, in_shape, vocab_size)`` lists the layer's parameters and
    buffers, named by suffix, in init draw order; ``apply(layer, h, get, run)``
    is the forward op, with ``get(suffix)`` giving the tensor of one of those
    arrays. It calls ops as ``ad.<op>`` at call time, so a replaced module
    attribute (a tracer's wrapper) takes effect.
    """

    apply: Callable
    valid: Callable = lambda layer: True
    out: Callable = lambda layer, shape: shape
    arrays: Callable = lambda layer, shape, vocab_size: ()


def _embedding_out(layer: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    if len(shape) != 1:
        raise ConfigError("embedding must be the first layer")
    return (shape[0], layer.dim)


def _conv1d_out(layer: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    out_len = shape[0] - layer.kernel + 1
    if out_len < 1:
        raise ConfigError(
            f"conv over {shape[0]} steps with kernel {layer.kernel} leaves no output"
        )
    return (out_len, layer.filters)


def _maxpool1d_out(layer: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    length, ch = shape
    if length < layer.pool:
        raise ConfigError(f"pool {layer.pool} wider than input {length}")
    return (length // layer.pool, ch)


def _dropout_apply(layer: LayerSpec, h: ad.Tensor, get, run: _Run) -> ad.Tensor:
    if not (run.training and layer.rate > 0.0):
        return h
    return ad.mul(h, ad.dropout_mask(h.shape, layer.rate, run.rng, dtype=h.dtype))


_KINDS: dict[str, _Kind] = {
    "embedding": _Kind(
        valid=lambda layer: layer.dim > 0,
        out=_embedding_out,
        arrays=lambda layer, shape, vocab_size: (
            ParamEntry("table", (vocab_size, layer.dim), "embedding"),
        ),
        apply=lambda layer, h, get, run: ad.embedding(get("table"), run.ids, pad_id=PAD_ID),
    ),
    "dense": _Kind(
        valid=lambda layer: layer.units > 0,
        out=lambda layer, shape: (layer.units,),
        arrays=lambda layer, shape, vocab_size: (
            ParamEntry("w", (shape[-1], layer.units), "glorot"),
            ParamEntry("b", (layer.units,), "zeros"),
        ),
        apply=lambda layer, h, get, run: ad.add(ad.matmul(h, get("w")), get("b")),
    ),
    "conv1d": _Kind(
        valid=lambda layer: layer.filters > 0 and layer.kernel > 0,
        out=_conv1d_out,
        arrays=lambda layer, shape, vocab_size: (
            ParamEntry("kernels", (layer.kernel, shape[-1], layer.filters), "glorot"),
            ParamEntry("bias", (layer.filters,), "zeros"),
        ),
        apply=lambda layer, h, get, run: ad.conv1d_valid(h, get("kernels"), get("bias")),
    ),
    "maxpool1d": _Kind(
        valid=lambda layer: layer.pool > 0,
        out=_maxpool1d_out,
        apply=lambda layer, h, get, run: ad.maxpool1d(h, layer.pool),
    ),
    "lstm": _Kind(
        valid=lambda layer: layer.units > 0,
        out=lambda layer, shape: (layer.units,),
        arrays=lambda layer, shape, vocab_size: (
            ParamEntry("w_x", (shape[-1], 4 * layer.units), "glorot"),
            ParamEntry("w_h", (layer.units, 4 * layer.units), "glorot"),
            ParamEntry("b", (4 * layer.units,), "forget_bias"),
        ),
        apply=lambda layer, h, get, run: ad.lstm(h, get("w_x"), get("w_h"), get("b")),
    ),
    "batchnorm": _Kind(
        arrays=lambda layer, shape, vocab_size: (
            ParamEntry("scale", shape[-1:], "ones"),
            ParamEntry("shift", shape[-1:], "zeros"),
            ParamEntry("running_mean", shape[-1:], "zeros", buffer=True),
            ParamEntry("running_var", shape[-1:], "ones", buffer=True),
        ),
        apply=lambda layer, h, get, run: ad.batchnorm(
            h, get("scale"), get("shift"), get("running_mean").data, get("running_var").data,
            training=run.training,
        ),
    ),
    "dropout": _Kind(valid=lambda layer: 0.0 <= layer.rate < 1.0, apply=_dropout_apply),
    "flatten": _Kind(
        out=lambda layer, shape: (math.prod(shape),),
        # a lookup stays ungathered for the dense layer's matmul
        apply=lambda layer, h, get, run: (
            h if isinstance(h, ad.Lookup) else ad.reshape(h, (len(run.ids), -1))
        ),
    ),
    "relu": _Kind(apply=lambda layer, h, get, run: ad.relu(h)),
}


def _preset_layers(preset: str, dims: PresetDims) -> tuple[LayerSpec, ...]:
    emb = LayerSpec("embedding", dim=dims.embed_dim)
    head = (LayerSpec("dense", units=1),)
    if preset == "dnn":
        layers = [emb, LayerSpec("flatten")]
        for i, width in enumerate(dims.dnn_widths):
            layers += [LayerSpec("dense", units=width), LayerSpec("relu")]
            if i < len(dims.dnn_widths) - 1:
                layers += [
                    LayerSpec("dropout", rate=dims.dnn_dropout),
                    LayerSpec("batchnorm"),
                ]
        return tuple(layers) + head
    if preset == "cnn":
        return (
            emb,
            LayerSpec("conv1d", filters=dims.conv_filters, kernel=dims.conv_kernel),
            LayerSpec("maxpool1d", pool=dims.pool),
            LayerSpec("relu"),
            LayerSpec("flatten"),
            LayerSpec("dense", units=dims.cnn_dense),
            LayerSpec("relu"),
            LayerSpec("dropout", rate=dims.head_dropout),
        ) + head
    if preset == "lstm":
        return (
            emb,
            LayerSpec("lstm", units=dims.lstm_units),
            LayerSpec("dropout", rate=dims.head_dropout),
        ) + head
    if preset == "cnn_lstm":
        return (
            emb,
            LayerSpec("conv1d", filters=dims.conv_filters, kernel=dims.conv_kernel),
            LayerSpec("maxpool1d", pool=dims.pool),
            LayerSpec("relu"),
            LayerSpec("lstm", units=dims.cnn_lstm_units),
        ) + head
    raise ConfigError(f"unknown preset {preset!r}, expected one of {PRESETS}")


def output_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """Per-layer output shapes (batch axis omitted); validates the chain."""
    shape: tuple[int, ...] = (spec.max_len,)
    shapes = []
    for layer in spec.layers:
        shape = _KINDS[layer.kind].out(layer, shape)
        shapes.append(shape)
    return shapes


def model_spec(
    preset: str, vocab_size: int, max_len: int, dims: PresetDims | None = None
) -> ModelSpec:
    """The layer stack of a preset, checked for a consistent chain; no weights."""
    if vocab_size < 2:
        raise ConfigError(f"vocab_size must be >= 2, got {vocab_size}")
    if not 3 <= max_len <= MAX_LEN_LIMIT:
        raise ConfigError(f"max_len must be in [3, {MAX_LEN_LIMIT}], got {max_len}")
    layers = _preset_layers(preset, dims or PresetDims())
    spec = ModelSpec(layers=layers, vocab_size=vocab_size, max_len=max_len, preset=preset)
    output_shapes(spec)  # raises on an inconsistent chain
    return spec


def parameter_table(spec: ModelSpec) -> tuple[ParamEntry, ...]:
    """Every parameter and buffer of a model, in init draw order; draws nothing."""
    entries: list[ParamEntry] = []
    in_shape: tuple[int, ...] = (spec.max_len,)
    for idx, (layer, out_shape) in enumerate(zip(spec.layers, output_shapes(spec))):
        for entry in _KINDS[layer.kind].arrays(layer, in_shape, spec.vocab_size):
            entries.append(replace(entry, name=f"{idx:02d}.{layer.kind}.{entry.name}"))
        in_shape = out_shape
    return tuple(entries)


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    fan_in = math.prod(shape[:-1])
    fan_out = math.prod(shape[:-2]) * shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _initial_value(entry: ParamEntry, rng: np.random.Generator, dtype) -> np.ndarray:
    if entry.init in ("glorot", "embedding"):
        arr = _glorot(rng, entry.shape, dtype)
        if entry.init == "embedding":
            arr[PAD_ID] = 0.0
        return arr
    arr = (np.ones if entry.init == "ones" else np.zeros)(entry.shape, dtype=dtype)
    if entry.init == "forget_bias":
        hidden = entry.shape[0] // 4
        arr[hidden : 2 * hidden] = 1.0  # forget gate starts open
    return arr


def assemble_parameters(spec: ModelSpec, arrays) -> dict[str, ad.Tensor]:
    """Wrap one array per ``parameter_table`` entry, uncopied, as a model's tensors.

    Keyed by layer path; every tensor but a buffer's requires a gradient.
    """
    return {
        entry.name: ad.Tensor(arrays[entry.name], requires_grad=not entry.buffer)
        for entry in parameter_table(spec)
    }


def build_model(
    preset: str,
    vocab_size: int,
    max_len: int,
    seed: int,
    dims: PresetDims | None = None,
    dtype=ad.DEFAULT_DTYPE,
) -> tuple[ModelSpec, dict[str, ad.Tensor]]:
    """Assemble a preset and initialize its weights from the given seed."""
    spec = model_spec(preset, vocab_size, max_len, dims)
    rng = np.random.default_rng(seed)
    initial = {entry.name: _initial_value(entry, rng, dtype) for entry in parameter_table(spec)}
    return spec, assemble_parameters(spec, initial)


def forward(
    spec: ModelSpec,
    params: dict[str, ad.Tensor],
    ids: np.ndarray,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
) -> ad.Tensor:
    """The positive-class logit per row of ``ids`` in ``train`` mode, its probability in ``infer``.

    ``ids`` is the ``[n, max_len]`` id matrix of ``text.encode_batch``.

    ``train`` mode draws dropout masks from ``rng`` and lets batchnorm use
    (and update) batch statistics; its logit feeds ``loss.weighted_bce``.
    ``infer`` mode is a pure function of the inputs and applies the sigmoid.
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    if ids.ndim != 2 or ids.shape[1] != spec.max_len:
        raise ShapeError(f"ids must be [n, {spec.max_len}], got {ids.shape}")
    run = _Run(ids, mode == "train", rng)
    h: ad.Tensor | None = None
    for idx, layer in enumerate(spec.layers):
        name = f"{idx:02d}.{layer.kind}"
        h = _KINDS[layer.kind].apply(layer, h, lambda suffix: params[f"{name}.{suffix}"], run)
    logit = ad.reshape(h, (ids.shape[0],))
    return logit if run.training else ad.sigmoid(logit)


def scaled_dims() -> PresetDims:
    """Small copies of the preset topology for fast gradient verification."""
    return replace(
        PresetDims(),
        embed_dim=8,
        conv_filters=4,
        lstm_units=6,
        cnn_lstm_units=6,
        dnn_widths=(32, 24, 16, 8),
        cnn_dense=8,
    )
