"""Layer stacks and the four fixed architectures for binary text classification.

Every preset starts with a 128-dim character embedding and ends in a
single-unit dense layer under a sigmoid, producing one probability per
sequence:

  dnn       flatten, then 512/384/256/128 relu layers with dropout 0.01 and
            batch normalization between the hidden layers
  cnn       64 conv filters of length 3, maxpool 2, dense 128 + relu,
            dropout 0.3
  lstm      128 recurrent units, last state only, dropout 0.3
  cnn_lstm  the cnn front-end feeding a 50-unit recurrence

Weight init is uniform Glorot; the recurrent forget-gate bias starts at 1,
the embedding pad row starts (and stays) at zero. ``parameter_table`` lists
every array of a model without drawing any random numbers, so a checkpoint
can be rebuilt without paying for an init it would overwrite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, EncodingError, ShapeError
from .text import PAD_ID, EncodedBatch

PRESETS = ("dnn", "cnn", "lstm", "cnn_lstm")


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
        checks = {
            "embedding": self.dim > 0,
            "dense": self.units > 0,
            "conv1d": self.filters > 0 and self.kernel > 0,
            "maxpool1d": self.pool > 0,
            "dropout": 0.0 <= self.rate < 1.0,
            "lstm": self.units > 0,
            "relu": True,
            "sigmoid": True,
            "batchnorm": True,
            "flatten": True,
            "mean_pool": True,
        }
        if self.kind not in checks:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if not checks[self.kind]:
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


@dataclass
class Parameters:
    """Trainable tensors plus non-trainable buffers, both keyed by layer path."""

    tensors: dict[str, ad.Tensor]
    buffers: dict[str, np.ndarray]
    seed: int

    def names(self) -> list[str]:
        return sorted(self.tensors) + sorted(self.buffers)


def _preset_layers(preset: str, dims: PresetDims) -> tuple[LayerSpec, ...]:
    emb = LayerSpec("embedding", dim=dims.embed_dim)
    head = (LayerSpec("dense", units=1), LayerSpec("sigmoid"))
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
            LayerSpec("relu"),
            LayerSpec("maxpool1d", pool=dims.pool),
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
            LayerSpec("relu"),
            LayerSpec("maxpool1d", pool=dims.pool),
            LayerSpec("lstm", units=dims.cnn_lstm_units),
        ) + head
    raise ConfigError(f"unknown preset {preset!r}, expected one of {PRESETS}")


def output_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """Per-layer output shapes (batch axis omitted); validates the chain."""
    shape: tuple[int, ...] = (spec.max_len,)
    shapes = []
    for layer in spec.layers:
        kind = layer.kind
        if kind == "embedding":
            if len(shape) != 1:
                raise ConfigError("embedding must be the first layer")
            shape = (shape[0], layer.dim)
        elif kind == "conv1d":
            length, ch = shape
            out_len = length - layer.kernel + 1
            if out_len < 1:
                raise ConfigError(
                    f"conv over {length} steps with kernel {layer.kernel} "
                    "leaves no output"
                )
            shape = (out_len, layer.filters)
        elif kind == "maxpool1d":
            length, ch = shape
            if length < layer.pool:
                raise ConfigError(f"pool {layer.pool} wider than input {length}")
            shape = (length // layer.pool, ch)
        elif kind == "lstm":
            shape = (layer.units,)
        elif kind == "flatten":
            n = 1
            for d in shape:
                n *= d
            shape = (n,)
        elif kind == "mean_pool":
            shape = (shape[1],)
        elif kind == "dense":
            shape = (layer.units,)
        elif kind in ("relu", "sigmoid", "dropout", "batchnorm"):
            pass
        shapes.append(shape)
    return shapes


@dataclass(frozen=True)
class ParamEntry:
    """One named array of a model: its shape and how it starts.

    ``init`` is one of ``glorot`` (uniform over +-sqrt(6 / (fan_in + fan_out))),
    ``embedding`` (glorot with the PAD row zeroed), ``zeros``, ``ones`` or
    ``forget_bias`` (zeros with the forget-gate quarter at 1). Buffers are
    not trained.
    """

    name: str
    shape: tuple[int, ...]
    init: str
    fans: tuple[int, int] = (0, 0)
    buffer: bool = False


def model_spec(
    preset: str, vocab_size: int, max_len: int, dims: PresetDims | None = None
) -> ModelSpec:
    """The layer stack of a preset, checked for a consistent chain; no weights."""
    if vocab_size < 2:
        raise ConfigError(f"vocab_size must be >= 2, got {vocab_size}")
    if max_len < 3:
        raise ConfigError(f"max_len must be >= 3, got {max_len}")
    layers = _preset_layers(preset, dims or PresetDims())
    spec = ModelSpec(layers=layers, vocab_size=vocab_size, max_len=max_len, preset=preset)
    output_shapes(spec)  # raises on an inconsistent chain
    return spec


def parameter_table(spec: ModelSpec) -> tuple[ParamEntry, ...]:
    """Every parameter and buffer of a model, in init draw order; draws nothing."""
    entries: list[ParamEntry] = []
    in_shape: tuple[int, ...] = (spec.max_len,)
    for idx, (layer, out_shape) in enumerate(zip(spec.layers, output_shapes(spec))):
        name = f"{idx:02d}.{layer.kind}"
        if layer.kind == "embedding":
            shape = (spec.vocab_size, layer.dim)
            entries.append(ParamEntry(f"{name}.table", shape, "embedding", shape))
        elif layer.kind == "dense":
            shape = (in_shape[-1], layer.units)
            entries += [
                ParamEntry(f"{name}.w", shape, "glorot", shape),
                ParamEntry(f"{name}.b", (layer.units,), "zeros"),
            ]
        elif layer.kind == "conv1d":
            k, cin, cout = layer.kernel, in_shape[-1], layer.filters
            entries += [
                ParamEntry(f"{name}.kernels", (k, cin, cout), "glorot", (k * cin, k * cout)),
                ParamEntry(f"{name}.bias", (cout,), "zeros"),
            ]
        elif layer.kind == "lstm":
            dim, gates = in_shape[-1], 4 * layer.units
            entries += [
                ParamEntry(f"{name}.w_x", (dim, gates), "glorot", (dim, gates)),
                ParamEntry(f"{name}.w_h", (layer.units, gates), "glorot", (layer.units, gates)),
                ParamEntry(f"{name}.b", (gates,), "forget_bias"),
            ]
        elif layer.kind == "batchnorm":
            feat = (in_shape[-1],)
            entries += [
                ParamEntry(f"{name}.scale", feat, "ones"),
                ParamEntry(f"{name}.shift", feat, "zeros"),
                ParamEntry(f"{name}.running_mean", feat, "zeros", buffer=True),
                ParamEntry(f"{name}.running_var", feat, "ones", buffer=True),
            ]
        in_shape = out_shape
    return tuple(entries)


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _initial_value(entry: ParamEntry, rng: np.random.Generator, dtype) -> np.ndarray:
    if entry.init in ("glorot", "embedding"):
        arr = _glorot(rng, entry.shape, *entry.fans, dtype)
        if entry.init == "embedding":
            arr[PAD_ID] = 0.0
        return arr
    arr = (np.ones if entry.init == "ones" else np.zeros)(entry.shape, dtype=dtype)
    if entry.init == "forget_bias":
        hidden = entry.shape[0] // 4
        arr[hidden : 2 * hidden] = 1.0  # forget gate starts open
    return arr


def assemble_parameters(spec: ModelSpec, arrays, seed: int = 0) -> Parameters:
    """Wrap one array per ``parameter_table`` entry, uncopied, as a model's parameters."""
    tensors: dict[str, ad.Tensor] = {}
    buffers: dict[str, np.ndarray] = {}
    for entry in parameter_table(spec):
        if entry.buffer:
            buffers[entry.name] = arrays[entry.name]
        else:
            tensors[entry.name] = ad.Tensor(arrays[entry.name], requires_grad=True)
    return Parameters(tensors=tensors, buffers=buffers, seed=seed)


def build_model(
    preset: str,
    vocab_size: int,
    max_len: int,
    seed: int,
    dims: PresetDims | None = None,
    dtype=ad.DEFAULT_DTYPE,
) -> tuple[ModelSpec, Parameters]:
    """Assemble a preset and initialize its weights from the given seed."""
    spec = model_spec(preset, vocab_size, max_len, dims)
    rng = np.random.default_rng(seed)
    initial = {entry.name: _initial_value(entry, rng, dtype) for entry in parameter_table(spec)}
    return spec, assemble_parameters(spec, initial, seed)


def lstm_forward(params: Parameters, x: ad.Tensor, layer_name: str) -> ad.Tensor:
    """Run the named recurrent layer over [batch, len, dim], final state only."""
    return ad.lstm(
        x,
        params.tensors[f"{layer_name}.w_x"],
        params.tensors[f"{layer_name}.w_h"],
        params.tensors[f"{layer_name}.b"],
    )


def forward(
    spec: ModelSpec,
    params: Parameters,
    batch: EncodedBatch,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
) -> ad.Tensor:
    """Probability of the positive class per sequence.

    ``train`` mode draws dropout masks from ``rng`` and lets batchnorm use
    (and update) batch statistics; ``infer`` mode is a pure function of the
    inputs.
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    ids = batch.ids
    if ids.ndim != 2 or ids.shape[1] != spec.max_len:
        raise ShapeError(f"batch ids must be [n, {spec.max_len}], got {ids.shape}")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= spec.vocab_size:
        raise EncodingError(
            f"token ids must be in [0, {spec.vocab_size}), got "
            f"[{ids.min()}, {ids.max()}]"
        )
    training = mode == "train"
    h: ad.Tensor | None = None
    for idx, layer in enumerate(spec.layers):
        name = f"{idx:02d}.{layer.kind}"
        if layer.kind == "embedding":
            h = ad.embedding(params.tensors[f"{name}.table"], ids, pad_id=PAD_ID)
        elif layer.kind == "dense":
            h = ad.add(ad.matmul(h, params.tensors[f"{name}.w"]), params.tensors[f"{name}.b"])
        elif layer.kind == "relu":
            h = ad.relu(h)
        elif layer.kind == "sigmoid":
            h = ad.sigmoid(h)
        elif layer.kind == "conv1d":
            h = ad.conv1d_valid(
                h, params.tensors[f"{name}.kernels"], params.tensors[f"{name}.bias"]
            )
        elif layer.kind == "maxpool1d":
            h = ad.maxpool1d(h, layer.pool)
        elif layer.kind == "lstm":
            h = lstm_forward(params, h, name)
        elif layer.kind == "flatten":
            h = ad.reshape(h, (h.shape[0], -1))
        elif layer.kind == "mean_pool":
            h = ad.tmean(h, axis=1)
        elif layer.kind == "dropout":
            if training and layer.rate > 0.0:
                mask = ad.dropout_mask(h.shape, layer.rate, rng, dtype=h.dtype)
                h = ad.mul(h, mask)
        elif layer.kind == "batchnorm":
            h = ad.batchnorm(
                h,
                params.tensors[f"{name}.scale"],
                params.tensors[f"{name}.shift"],
                params.buffers[f"{name}.running_mean"],
                params.buffers[f"{name}.running_var"],
                training=training,
            )
    return ad.reshape(h, (ids.shape[0],))


def scaled_dims(factor: int = 16) -> PresetDims:
    """Small copies of the preset topology for fast gradient verification."""
    base = PresetDims()
    return replace(
        base,
        embed_dim=8,
        conv_filters=4,
        lstm_units=6,
        cnn_lstm_units=6,
        dnn_widths=tuple(max(2, w // factor) for w in base.dnn_widths),
        cnn_dense=8,
    )
