"""Training loop, Adam optimizer, evaluation, and model persistence.

Both training paths share one code path: gamma=0 yields per-class weights of
exactly 1.0 (the cost-insensitive run), gamma>0 up-weights the minority
class. Runs are deterministic functions of (dataset, config): weight init,
epoch shuffling, and dropout all derive from config.seed.

Checkpoint container: a UTF-8 JSON header (format_version, preset, use_case,
max_len, vocab, hyperparameters, history, weight manifest), a NUL byte, then
the concatenated little-endian weight blobs in manifest order. Weights are
float32; the naive_bayes kind stores float64 tables because its posteriors
are contracted to 1e-12 agreement with exact Bayes arithmetic, which float32
storage would break across a save/load cycle.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import models
from .data import LabeledDataset, class_counts
from .errors import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    DataError,
)
from .loss import ClassWeights, compute_class_weights, weighted_bce
from .metrics import confusion, metrics_report
from .naive_bayes import NaiveBayesModel, nb_positive_probability, nb_train
from .text import (
    DEFAULT_MAX_LEN,
    OOV_ID,
    PAD_ID,
    CharVocabulary,
    encode_batch,
    fit_vocab,
    ngram_counts,
)

logger = logging.getLogger("costnet")

FORMAT_VERSION = 1
_EVAL_BATCH = 512


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 100
    batch_size: int = 64
    gamma: float = 0.0
    normalize_weights: bool = True
    seed: int = 0
    preset: str = "cnn"
    max_len: int | None = None  # None: use-case default
    eval_every: int = 0  # 0: never score the train split mid-run
    dims: models.PresetDims = field(default_factory=models.PresetDims)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch size must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(
    params: dict[str, ad.Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One in-place update: m,v decay, bias correction, then the step."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} != param {p.data.shape} for {name}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled index batches covering every sample exactly once.

    A trailing singleton is folded into the previous batch so batchnorm
    always sees at least two samples.
    """
    perm = rng.permutation(n)
    bounds = list(range(batch_size, n, batch_size))
    batches = np.split(perm, bounds)
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


@dataclass
class Checkpoint:
    """Everything needed to reload and run a trained model."""

    preset: str  # one of the four presets, or "naive_bayes"
    use_case: str | None
    max_len: int | None
    vocab: tuple[str, ...]  # chars in id order; n-gram tokens for naive_bayes
    hyperparameters: dict
    weights: dict[str, np.ndarray]
    history: list[dict]


def train(
    dataset: LabeledDataset,
    config: TrainConfig,
    on_epoch=None,
    weights_override: ClassWeights | None = None,
) -> tuple[Checkpoint, list[dict]]:
    """Fit a preset on a labeled train split.

    Builds the vocabulary from the training texts only, derives the class
    costs from the split's class counts (unless overridden), and runs
    minibatch Adam on the weighted cross-entropy. ``on_epoch(epoch, loss)``
    is called after every epoch for progress streaming.
    """
    counts = class_counts(dataset)
    if min(counts) < 1:
        raise DataError("training data must contain both classes")
    use_case = dataset.use_case or "dga"
    max_len = config.max_len or DEFAULT_MAX_LEN[use_case]
    vocab = fit_vocab(dataset.texts)
    weights = weights_override or compute_class_weights(
        counts, config.gamma, normalize=config.normalize_weights
    )

    spec, params = models.build_model(
        config.preset, vocab.size, max_len, config.seed, dims=config.dims
    )
    encoded = encode_batch(dataset.texts, vocab, max_len, labels=dataset.labels)
    state = AdamState()
    loop_rng = np.random.default_rng([config.seed, 1])
    n = len(encoded)
    history: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for idx in epoch_batches(n, config.batch_size, loop_rng):
            batch = encoded.take(idx)
            with ad.Tape() as tape:
                probs = models.forward(spec, params, batch, mode="train", rng=loop_rng)
                loss = weighted_bce(
                    probs, batch.labels, weights, use_normalized=config.normalize_weights
                )
            grad_map = tape.gradients(loss)
            grads = {name: grad_map.get(t) for name, t in params.tensors.items()}
            adam_step(params.tensors, grads, state, config.learning_rate)
            total += loss.item() * len(idx)
        entry: dict = {"epoch": epoch, "loss": total / n}
        if config.eval_every and epoch % config.eval_every == 0:
            probs = _forward_all(spec, params, encoded)
            entry["train_metrics"] = metrics_report(confusion(probs, encoded.labels))
        history.append(entry)
        if on_epoch is not None:
            on_epoch(epoch, entry["loss"])

    hyper = {
        "learning_rate": config.learning_rate,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "gamma": config.gamma,
        "normalize_weights": config.normalize_weights,
        "seed": config.seed,
        "class_counts": counts,
        "class_weights": list(weights.weights()),
        "dims": asdict(config.dims),
    }
    weights_out = {name: t.data for name, t in params.tensors.items()}
    weights_out.update(params.buffers)
    ckpt = Checkpoint(
        preset=config.preset,
        use_case=use_case,
        max_len=max_len,
        vocab=vocab.chars,
        hyperparameters=hyper,
        weights=weights_out,
        history=history,
    )
    return ckpt, history


def train_naive_bayes(
    dataset: LabeledDataset,
    alpha: float = 1.0,
    n_range: tuple[int, int] = (1, 2),
) -> Checkpoint:
    """Fit the n-gram Naive Bayes baseline into the same container format."""
    docs = [ngram_counts(t, *n_range) for t in dataset.texts]
    model = nb_train(docs, dataset.labels, alpha=alpha, n_range=n_range)
    return Checkpoint(
        preset="naive_bayes",
        use_case=dataset.use_case,
        max_len=None,
        vocab=model.tokens,
        hyperparameters={"alpha": alpha, "n_range": list(n_range)},
        weights={
            "class_log_prior": model.class_log_prior,
            "token_log_prob": model.token_log_prob,
        },
        history=[],
    )


def _checkpoint_spec(ckpt: Checkpoint) -> models.ModelSpec:
    """The layer stack a neural checkpoint declares, from its header alone."""
    dims_dict = dict(ckpt.hyperparameters.get("dims", {}))
    if "dnn_widths" in dims_dict:
        dims_dict["dnn_widths"] = tuple(dims_dict["dnn_widths"])
    dims = models.PresetDims(**dims_dict)
    return models.model_spec(ckpt.preset, len(ckpt.vocab) + 2, ckpt.max_len, dims=dims)


def _rebuild_neural(ckpt: Checkpoint) -> tuple[models.ModelSpec, models.Parameters]:
    """The checkpoint's arrays as the model's parameters; no weight init runs."""
    spec = _checkpoint_spec(ckpt)
    arrays = {
        name: np.ascontiguousarray(arr, dtype=ad.DEFAULT_DTYPE)
        for name, arr in ckpt.weights.items()
    }
    return spec, models.assemble_parameters(spec, arrays)


def _rebuild_nb(ckpt: Checkpoint) -> NaiveBayesModel:
    lo, hi = ckpt.hyperparameters["n_range"]
    return NaiveBayesModel(
        class_log_prior=np.asarray(ckpt.weights["class_log_prior"], dtype=np.float64),
        token_log_prob=np.asarray(ckpt.weights["token_log_prob"], dtype=np.float64),
        tokens=tuple(ckpt.vocab),
        alpha=float(ckpt.hyperparameters["alpha"]),
        n_range=(lo, hi),
    )


def _forward_all(spec, params, encoded) -> np.ndarray:
    chunks = []
    for start in range(0, len(encoded), _EVAL_BATCH):
        batch = encoded.take(np.arange(start, min(start + _EVAL_BATCH, len(encoded))))
        chunks.append(models.forward(spec, params, batch, mode="infer").data)
    return np.concatenate(chunks)


def evaluate(ckpt: Checkpoint, dataset: LabeledDataset) -> dict:
    """Infer-mode scoring of a labeled dataset; flat metrics dict."""
    if len(dataset) == 0:
        raise ContractError("cannot evaluate an empty dataset")
    if ckpt.preset == "naive_bayes":
        model = _rebuild_nb(ckpt)
        probs = np.array(
            [nb_positive_probability(model, ngram_counts(t, *model.n_range)) for t in dataset.texts]
        )
    else:
        spec, params = _rebuild_neural(ckpt)
        vocab = CharVocabulary(ckpt.vocab)
        encoded = encode_batch(dataset.texts, vocab, ckpt.max_len, labels=dataset.labels)
        real = encoded.ids != PAD_ID
        oov_rate = float(np.count_nonzero(encoded.ids[real] == OOV_ID)) / max(
            1, int(np.count_nonzero(real))
        )
        if oov_rate > 0.5:
            logger.warning(
                "evaluation vocabulary mismatch: %.0f%% of characters are "
                "out-of-vocabulary; was this model trained on the same use case?",
                100 * oov_rate,
            )
        probs = _forward_all(spec, params, encoded)
    return metrics_report(confusion(probs, np.asarray(dataset.labels)))


def predict_probability(ckpt: Checkpoint, text: str) -> float:
    """Positive-class probability for one raw string."""
    if ckpt.preset == "naive_bayes":
        model = _rebuild_nb(ckpt)
        return nb_positive_probability(model, ngram_counts(text, *model.n_range))
    spec, params = _rebuild_neural(ckpt)
    vocab = CharVocabulary(ckpt.vocab)
    encoded = encode_batch([text], vocab, ckpt.max_len)
    return float(models.forward(spec, params, encoded, mode="infer").data[0])


# ---------------------------------------------------------------------------
# persistence


def _blob_dtype(preset: str) -> str:
    return "<f8" if preset == "naive_bayes" else "<f4"


def save(ckpt: Checkpoint, path) -> None:
    """Write header + NUL + weight blobs; byte-stable for a given checkpoint."""
    dtype = _blob_dtype(ckpt.preset)
    manifest = []
    blobs = []
    offset = 0
    for name in sorted(ckpt.weights):
        arr = np.ascontiguousarray(ckpt.weights[name]).astype(dtype, copy=False)
        raw = arr.tobytes()
        manifest.append([name, list(arr.shape), offset, len(raw), dtype])
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format_version": FORMAT_VERSION,
        "preset": ckpt.preset,
        "use_case": ckpt.use_case,
        "max_len": ckpt.max_len,
        "vocab": list(ckpt.vocab),
        "hyperparameters": ckpt.hyperparameters,
        "history": ckpt.history,
        "manifest": manifest,
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(b"\x00")
        for raw in blobs:
            fh.write(raw)


def _expected_shapes(ckpt: Checkpoint) -> dict[str, tuple[int, ...]]:
    if ckpt.preset == "naive_bayes":
        v = len(ckpt.vocab)
        return {"class_log_prior": (2,), "token_log_prob": (2, v)}
    return {entry.name: entry.shape for entry in models.parameter_table(_checkpoint_spec(ckpt))}


def load(path) -> Checkpoint:
    """Parse and validate a container; refuses to return a partial model."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    sep = raw.find(b"\x00")
    if sep < 0:
        raise CheckpointTruncatedError(f"{path}: no header terminator found")
    try:
        header = json.loads(raw[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: unsupported format version {version!r}, expected {FORMAT_VERSION}"
        )
    blob = raw[sep + 1 :]
    manifest = header.get("manifest", [])
    total = sum(entry[3] for entry in manifest)
    if total != len(blob):
        raise CheckpointTruncatedError(
            f"{path}: weight section holds {len(blob)} bytes, manifest expects {total}"
        )
    ckpt = Checkpoint(
        preset=header["preset"],
        use_case=header["use_case"],
        max_len=header["max_len"],
        vocab=tuple(header["vocab"]),
        hyperparameters=header["hyperparameters"],
        weights={},
        history=header.get("history", []),
    )
    expected = _expected_shapes(ckpt)
    dtype = _blob_dtype(ckpt.preset)
    seen = set()
    for name, shape, offset, length, entry_dtype in manifest:
        shape = tuple(shape)
        if name not in expected:
            raise CheckpointShapeError(f"{path}: unexpected weight {name!r}")
        if shape != expected[name]:
            raise CheckpointShapeError(
                f"{path}: weight {name!r} has shape {shape}, expected {expected[name]}"
            )
        if entry_dtype != dtype:
            raise CheckpointShapeError(
                f"{path}: weight {name!r} stored as {entry_dtype}, expected {dtype}"
            )
        want = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        if length != want or offset + length > len(blob):
            raise CheckpointTruncatedError(f"{path}: weight {name!r} blob out of bounds")
        arr = np.frombuffer(blob, dtype=dtype, count=want // np.dtype(dtype).itemsize,
                            offset=offset).reshape(shape).copy()
        ckpt.weights[name] = arr
        seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise CheckpointShapeError(f"{path}: missing weights {sorted(missing)}")
    return ckpt
