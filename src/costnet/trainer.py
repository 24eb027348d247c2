"""Training loop, Adam optimizer, scoring, evaluation, and model persistence.

Both training paths share one code path: gamma=0 yields per-class weights of
exactly 1.0 (the cost-insensitive run), gamma>0 up-weights the minority
class. Runs are deterministic functions of (dataset, config): weight init,
epoch shuffling, and dropout all derive from config.seed.

Checkpoint container: a UTF-8 JSON header (format_version, preset, use_case,
max_len, vocab, hyperparameters, history, weight manifest), a NUL byte, then
the little-endian weight blobs in name order, back to back; ``load`` refuses
any other layout. Weights are float32; the naive_bayes kind stores float64
tables because its posteriors are contracted to 1e-12 agreement with exact
Bayes arithmetic, which float32 storage would break across a save/load cycle.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field
from itertools import repeat, zip_longest

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
    is_number,
)
from .loss import compute_class_weights, weighted_bce
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
# most rows in one scoring chunk: few enough that a few hundred rows split
# into chunks for two cores, enough that per-op Python cost stays small
_EVAL_BATCH = 256
# fewest rows in a chunk that a batch is split into for a second core: on two
# threads, two chunks of 100 rows score faster than one of 200 for every
# preset, but at 128 rows the cnn_lstm is slower split than whole
_MIN_CHUNK = 100
# glibc's malloc mmaps a block of at least _MMAP_THRESHOLD bytes and unmaps
# it when freed; it hands the heap's top back to the OS once more than
# _TRIM_THRESHOLD bytes there are free (see _pin_malloc_thresholds)
_MMAP_THRESHOLD = 16 << 20
_TRIM_THRESHOLD = 64 << 20


@functools.cache
def _glibc():
    """The process's glibc through ctypes, or None when its C library is another one."""
    try:
        if os.confstr("CS_GNU_LIBC_VERSION") is None:
            return None
    except (AttributeError, ValueError, OSError):
        return None
    import ctypes

    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    libc.malloc_trim.argtypes, libc.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    return libc


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at ``_MMAP_THRESHOLD`` and ``_TRIM_THRESHOLD``.

    Left to itself, glibc raises the mmap threshold to the size of each
    mmapped block that is freed, up to 32 MiB, and the trim threshold to
    twice that, so once the url-score dnn frees its first 26 MB array the
    later ones come from the heap, and which holes they fill depends on what
    earlier work left there. Fixed, a block is mmapped or not by its size
    alone. 16 MiB puts those 26 MB arrays above the threshold; 64 MiB is the
    trim threshold the rule reaches at its ceiling. glibc's starting values
    (128 KiB for both) cost the url-score lstm 40% of its scoring rate.
    """
    libc = _glibc()
    if libc is not None:
        libc.mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def _release_free_heap() -> None:
    """Hand every free page of glibc's heaps back to the OS (``malloc_trim``); elsewhere nothing."""
    libc = _glibc()
    if libc is not None:
        libc.malloc_trim(0)


_pin_malloc_thresholds()


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
        if not (is_number(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.max_len is not None and not (is_number(self.max_len) and self.max_len >= 1):
            raise ConfigError(f"max_len must be >= 1 and within float range, got {self.max_len}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch size must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")


# Adam's moment decay rates and the epsilon added to the second-moment root
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# Elements per block of the Adam update: four float32 blocks (p, g, m, v) plus
# the two scratch blocks stay in L2. 16 K to 128 K elements time within 10 %.
_ADAM_BLOCK = 1 << 15
# Every this many steps Adam zeroes the first moments below the dtype's
# smallest normal number. A dead unit's m decays by beta1 a step into
# subnormals, whose arithmetic is several times slower; the step such an m
# makes is far below half an ulp of any weight of normal size.
_ADAM_FLUSH_EVERY = 64


class AdamState:
    """First/second moment accumulators plus the shared step counter.

    ``touched[name]`` flags each ``_ADAM_BLOCK`` block of a parameter that has
    ever had a nonzero gradient (NaN counts). A block not yet flagged still
    holds ``m = v = +0``, which is what lets ``adam_step`` skip it.
    """

    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.touched: dict[str, np.ndarray] = {}
        self._scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}

    def scratch(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Two block-sized work vectors of ``dtype``, allocated on first use."""
        pair = self._scratch.get(dtype)
        if pair is None:
            pair = self._scratch[dtype] = (
                np.empty(_ADAM_BLOCK, dtype=dtype),
                np.empty(_ADAM_BLOCK, dtype=dtype),
            )
        return pair


def adam_step(
    params: dict[str, ad.Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One in-place update: m,v decay, bias correction, then the step.

    Each parameter is walked in blocks of ``_ADAM_BLOCK`` elements, so its
    data stays in cache and no temporary of parameter size is made. Within a
    block the operations are those of the textbook formula
    ``p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)`` in the same order and
    precision, so the result is bit-identical to evaluating it whole-array.
    A missing gradient counts as zeros. Every ``_ADAM_FLUSH_EVERY``-th step
    ends by zeroing the subnormal first moments.

    A block that has never had a nonzero gradient and gets none now is
    skipped, which costs one ``any()`` read. The skip is exact for a finite
    ``lr``: the block holds ``m = v = +0``, so the formula keeps ``m`` at +0
    (``+0 + -0`` is +0, so a -0.0 gradient changes nothing), keeps ``v`` at
    +0, makes a step of ``+0 / eps`` and leaves every ``p`` as it is
    (``p - +0`` is ``p``, -0 and NaN included). Once flagged, a block is
    updated every step, since its moments still decay.
    """
    state.t += 1
    flush = state.t % _ADAM_FLUSH_EVERY == 0
    b1, b2, eps = _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is not None and g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} != param {p.data.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
            blocks = (p.data.size + _ADAM_BLOCK - 1) // _ADAM_BLOCK
            state.touched[name] = np.zeros(blocks, dtype=bool)
        touched = state.touched[name]
        # flat views: Tensor data, and so m and v, are C-contiguous
        pf = p.data.reshape(-1)
        mf = state.m[name].reshape(-1)
        vf = state.v[name].reshape(-1)
        gf = np.broadcast_to(pf.dtype.type(0), pf.shape) if g is None else g.reshape(-1)
        s1, s2 = state.scratch(pf.dtype)
        tiny = np.finfo(pf.dtype).tiny
        for k, lo in enumerate(range(0, pf.size, _ADAM_BLOCK)):
            hi = lo + _ADAM_BLOCK
            gb = gf[lo:hi]
            if not touched[k]:
                if g is None or not gb.any():
                    continue
                touched[k] = True
            pb, mb, vb = pf[lo:hi], mf[lo:hi], vf[lo:hi]
            a, b = s1[: pb.size], s2[: pb.size]
            mb *= b1
            np.multiply(gb, 1 - b1, out=a)
            mb += a
            vb *= b2
            np.multiply(gb, gb, out=a)
            a *= 1 - b2
            vb += a
            np.divide(vb, bias2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(mb, bias1, out=b)
            b *= lr
            b /= a
            pb -= b
            if flush:
                np.abs(mb, out=a)
                np.putmask(mb, a < tiny, 0)


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
    dataset: LabeledDataset, config: TrainConfig, on_epoch=None
) -> tuple[Checkpoint, list[dict]]:
    """Fit a preset on a labeled train split.

    Builds the vocabulary from the training texts only, derives the class
    costs from the split's class counts, and runs
    minibatch Adam on the weighted cross-entropy. ``on_epoch(epoch, loss)``
    is called after every epoch for progress streaming.

    It starts by handing the heap's free pages back to the OS, so the pages
    the training holds are those it touches, not the ones earlier work left
    free. Where threaded scoring left them varies from run to run: without
    this, the url-score benchmark's peak RSS took values up to 17 MB apart
    for one seed.
    """
    _release_free_heap()
    counts = class_counts(dataset)
    if min(counts) < 1:
        raise DataError("training data must contain both classes")
    use_case = dataset.use_case or "dga"
    max_len = DEFAULT_MAX_LEN[use_case] if config.max_len is None else config.max_len
    vocab = fit_vocab(dataset.texts)
    weights = compute_class_weights(counts, config.gamma, normalize=config.normalize_weights)

    spec, params = models.build_model(
        config.preset, vocab.size, max_len, config.seed, dims=config.dims
    )
    ids = encode_batch(dataset.texts, vocab, max_len)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    state = AdamState()
    loop_rng = np.random.default_rng([config.seed, 1])
    n = len(labels)
    history: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for idx in epoch_batches(n, config.batch_size, loop_rng):
            with ad.Tape() as tape:
                logits = models.forward(spec, params, ids[idx], mode="train", rng=loop_rng)
                loss = weighted_bce(logits, labels[idx], weights)
            grad_map = tape.gradients(loss)
            grads = {name: grad_map.get(t) for name, t in params.tensors.items()}
            adam_step(params.tensors, grads, state, config.learning_rate)
            total += loss.item() * len(idx)
        entry: dict = {"epoch": epoch, "loss": total / n}
        if config.eval_every and epoch % config.eval_every == 0:
            probs = _forward_all(spec, params, ids)
            entry["train_metrics"] = metrics_report(confusion(probs, labels))
        history.append(entry)
        if on_epoch is not None:
            on_epoch(epoch, entry["loss"])

    hyper = {
        "learning_rate": config.learning_rate,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "gamma": weights.gamma,
        "normalize_weights": weights.normalize_flag,
        "seed": config.seed,
        "class_counts": list(weights.counts),
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
    model = nb_train(docs, dataset.labels, alpha=alpha)
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


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


@functools.cache
def _openblas_thread_getter():
    """The thread-count function of the OpenBLAS bundled with numpy, or None."""
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for path in (os.path.join(libs, name) for name in names if "openblas" in name):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn
    return None


def _blas_threads() -> int | None:
    """Threads numpy's OpenBLAS reports now, asked on each call; None when there is no such OpenBLAS."""
    getter = _openblas_thread_getter()
    return None if getter is None else int(getter())


@functools.cache
def _scoring_thread(k: int):
    """The one thread that scores every chunk set ``k`` >= 1 of this process.

    Scoring threads are kept from call to call, and chunk set k always runs
    on the same one, so each chunk's memory comes from the same malloc arena
    in every run. With new threads per call, the url-score benchmark's peak
    RSS spread over 181-188 MB for one seed, even with the malloc settings
    of ``_pin_malloc_thresholds`` and ``train``; kept, 32 of 36 runs over six
    seeds read 185-186 MB.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix=f"costnet-score-{k}")


# a forked child has none of its parent's threads; it starts its own
os.register_at_fork(after_in_child=_scoring_thread.cache_clear)


def _forward_all(spec, params, ids) -> np.ndarray:
    """Infer-mode probabilities of every row, in balanced chunks.

    A batch is split into ``ceil(n / _EVAL_BATCH)`` chunks, and into two when
    it holds at least two chunks of ``_MIN_CHUNK`` rows, so batches of 200 to
    256 rows use a second core too. The chunk bounds depend on the row count
    alone, so a row's probability does not depend on the thread that scores
    it. With ``w`` workers, one per usable CPU when there are several chunks
    and CPUs and numpy's OpenBLAS reports one thread, else the calling thread
    alone, worker k scores chunks k, k + w, ...: worker 0 is the calling
    thread, the others are ``_scoring_thread(k)``. A chunk's error is raised
    here, never through ``threading.excepthook``.
    """
    n = len(ids)
    count = max(1, -(-n // _EVAL_BATCH), min(2, n // _MIN_CHUNK))
    bounds = [i * n // count for i in range(count + 1)]
    workers = min(_usable_cpus(), count) if count > 1 else 1
    if workers > 1 and _blas_threads() != 1:
        workers = 1
    probs: list[np.ndarray | None] = [None] * count
    errors: dict[int, BaseException] = {}

    def work(first: int) -> None:
        for i in range(first, count, workers):
            if errors:
                return
            try:
                chunk = ids[bounds[i] : bounds[i + 1]]
                probs[i] = models.forward(spec, params, chunk, mode="infer").data
            except BaseException as exc:
                errors[i] = exc

    others = [_scoring_thread(k).submit(work, k) for k in range(1, workers)]
    work(0)
    for done in others:
        done.result()
    if errors:
        raise errors[min(errors)]
    return np.concatenate(probs)


def predict_probabilities(ckpt: Checkpoint, texts) -> np.ndarray:
    """Positive-class probability of each raw string; the one scoring path.

    ``evaluate``, ``predict_probability`` and the CLI all score through here.
    A neural checkpoint's arrays become the model's parameters without any
    weight init, the texts are encoded once, and a warning is logged when
    most of their characters are out of the model's vocabulary.

    Neural scoring runs in chunks of at most ``_EVAL_BATCH`` rows, and of
    about half the batch when it holds 200 to 256 rows (see
    ``_forward_all``), on one thread per usable CPU when there are several
    chunks and CPUs and numpy's OpenBLAS reports one thread
    (``OPENBLAS_NUM_THREADS=1``), else one chunk after another. Either way
    each probability is the same.
    """
    texts = list(texts)
    if not texts:
        raise ContractError("cannot score an empty list of texts")
    if ckpt.preset == "naive_bayes":
        lo, hi = ckpt.hyperparameters["n_range"]
        model = NaiveBayesModel(
            class_log_prior=np.asarray(ckpt.weights["class_log_prior"], dtype=np.float64),
            token_log_prob=np.asarray(ckpt.weights["token_log_prob"], dtype=np.float64),
            tokens=tuple(ckpt.vocab),
        )
        return nb_positive_probability(model, [ngram_counts(t, lo, hi) for t in texts])
    spec = _checkpoint_spec(ckpt)
    arrays = {
        name: np.ascontiguousarray(arr, dtype=ad.DEFAULT_DTYPE)
        for name, arr in ckpt.weights.items()
    }
    params = models.assemble_parameters(spec, arrays)
    ids = encode_batch(texts, CharVocabulary(ckpt.vocab), ckpt.max_len)
    real = ids != PAD_ID
    oov_rate = float(np.count_nonzero(ids[real] == OOV_ID)) / max(1, int(np.count_nonzero(real)))
    if oov_rate > 0.5:
        logger.warning(
            "vocabulary mismatch: %.0f%% of characters are out-of-vocabulary; "
            "was this model trained on the same use case?",
            100 * oov_rate,
        )
    return _forward_all(spec, params, ids)


def evaluate(ckpt: Checkpoint, dataset: LabeledDataset) -> dict:
    """Infer-mode scoring of a labeled dataset; flat metrics dict."""
    probs = predict_probabilities(ckpt, dataset.texts)
    return metrics_report(confusion(probs, np.asarray(dataset.labels)))


def predict_probability(ckpt: Checkpoint, text: str) -> float:
    """Positive-class probability for one raw string, scored as a batch of one."""
    return float(predict_probabilities(ckpt, [text])[0])


# ---------------------------------------------------------------------------
# persistence


def _blob_dtype(preset: str) -> str:
    return "<f8" if preset == "naive_bayes" else "<f4"


def _manifest(shapes: dict[str, tuple[int, ...]], dtype: str) -> list[list]:
    """The weight manifest ``save`` writes for arrays of these shapes.

    One ``[name, shape, offset, length, dtype]`` entry per array, sorted by
    name, the blobs back to back from offset 0 of the weight section.
    """
    manifest = []
    offset = 0
    itemsize = np.dtype(dtype).itemsize
    for name in sorted(shapes):
        length = math.prod(shapes[name]) * itemsize
        manifest.append([name, list(shapes[name]), offset, length, dtype])
        offset += length
    return manifest


def save(ckpt: Checkpoint, path) -> None:
    """Write header + NUL + weight blobs; byte-stable for a given checkpoint."""
    dtype = _blob_dtype(ckpt.preset)
    arrays = {
        name: np.ascontiguousarray(arr).astype(dtype, copy=False)
        for name, arr in ckpt.weights.items()
    }
    manifest = _manifest({name: arr.shape for name, arr in arrays.items()}, dtype)
    header = {key: getattr(ckpt, key) for key in _HEADER_KINDS if key != "manifest"}
    header.update(format_version=FORMAT_VERSION, manifest=manifest)
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(b"\x00")
        for name, *_ in manifest:
            fh.write(arrays[name].tobytes())


def _expected_shapes(ckpt: Checkpoint) -> dict[str, tuple[int, ...]]:
    if ckpt.preset == "naive_bayes":
        v = len(ckpt.vocab)
        return {"class_log_prior": (2,), "token_log_prob": (2, v)}
    return {entry.name: entry.shape for entry in models.parameter_table(_checkpoint_spec(ckpt))}


# Kinds of JSON value, for train options and checkpoint headers alike. A kind
# is a JSON type (str, bool, list, dict or NoneType), one of the names below,
# a frozenset of the strings allowed, [kind] for a list of that kind, or a
# tuple of kinds any of which will do.
NUMBER = "number"  # an int or float, not a bool, within float range
POSITIVE = "positive"  # a number > 0
COUNT = "count"  # an int >= 0, not a bool
PAIR = "pair"  # [LO, HI], two ints with 1 <= LO <= HI

_KIND_TESTS = {
    NUMBER: is_number,
    POSITIVE: lambda v: is_number(v) and v > 0,
    COUNT: lambda v: type(v) is int and v >= 0,
    PAIR: lambda v: (type(v) is list and len(v) == 2
                     and all(type(n) is int for n in v) and 1 <= v[0] <= v[1]),
}


def of_kind(value, kind) -> bool:
    """Whether a JSON value is of ``kind``."""
    if type(kind) is type:
        return isinstance(value, kind)
    if type(kind) is tuple:
        return any(of_kind(value, k) for k in kind)
    if type(kind) is frozenset:
        return type(value) is str and value in kind
    if type(kind) is list:
        # a list of a JSON type, such as a vocab of 10^4 n-grams, is checked at C speed
        test = isinstance if type(kind[0]) is type else of_kind
        return type(value) is list and all(map(test, value, repeat(kind[0])))
    return _KIND_TESTS[kind](value)


# every field of a checkpoint header but its format_version, with the kind
# ``save`` writes; all but the manifest are the Checkpoint fields of that name
_HEADER_KINDS = {
    "preset": str,
    "use_case": (str, type(None)),
    "max_len": (COUNT, type(None)),
    "vocab": [str],
    "hyperparameters": dict,
    "history": list,
    "manifest": list,
}
# each dims key's kind, read off its PresetDims default
_DIMS_KINDS = {
    key: {int: COUNT, float: NUMBER, tuple: [COUNT]}[type(default)]
    for key, default in asdict(models.PresetDims()).items()
}


def _check_header(header, path) -> None:
    """Refuse a header that does not have the layout ``save`` writes."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: unsupported format version {version!r}, expected {FORMAT_VERSION}"
        )
    for key, kind in _HEADER_KINDS.items():
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r}")
        if not of_kind(header[key], kind):
            raise CheckpointError(f"{path}: header field {key!r} has the wrong kind")
    for entry in header["manifest"]:
        if not (type(entry) is list and len(entry) == 5
                and all(map(of_kind, entry, (str, [COUNT], COUNT, COUNT, str)))):
            raise CheckpointError(
                f"{path}: manifest entry {entry!r} is not [name, shape, offset, length, dtype]"
            )
    hyper = header["hyperparameters"]
    if header["preset"] == "naive_bayes":
        if not (of_kind(hyper.get("alpha"), POSITIVE) and of_kind(hyper.get("n_range"), PAIR)):
            raise CheckpointError(
                f"{path}: naive_bayes needs a number alpha > 0 and an n_range LO,HI"
            )
        return
    if header["max_len"] is None:
        raise CheckpointError(f"{path}: header field 'max_len' is missing a value")
    dims = hyper.get("dims", {})
    if not (type(dims) is dict and all(
        key in _DIMS_KINDS and of_kind(value, _DIMS_KINDS[key]) for key, value in dims.items()
    )):
        raise CheckpointError(f"{path}: malformed dims {dims!r}")


def _read_header(fh, path) -> tuple[dict, int]:
    """The checked header and the file offset at which the weight section starts."""
    parts = []
    while True:
        chunk = fh.read(1 << 16)
        if not chunk:
            raise CheckpointTruncatedError(f"{path}: no header terminator found")
        sep = chunk.find(b"\x00")
        if sep >= 0:
            parts.append(chunk[:sep])
            break
        parts.append(chunk)
    raw = b"".join(parts)
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an int of over 4300 digits
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    _check_header(header, path)
    return header, len(raw) + 1


def load(path) -> Checkpoint:
    """Parse and validate a container; refuses to return a partial model.

    Each weight blob is read straight into its own fresh, aligned array.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, path)
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc


def _manifest_difference(found: list, expected: list) -> str:
    """Where a stored manifest first departs from the expected one; they differ."""
    names = {entry[0] for entry in expected}
    for got, want in zip_longest(found, expected):
        if got == want:
            continue
        if want is None or got is not None and got[0] not in names:
            return f"unexpected or repeated weight {got[0]!r}"
        if got is None or got[0] != want[0]:
            return f"weight {want[0]!r} is missing or out of order"
        if got[1] != want[1]:
            return f"weight {got[0]!r} has shape {tuple(got[1])}, expected {tuple(want[1])}"
        return f"weight {got[0]!r} has offset, length, dtype {got[2:]}, expected {want[2:]}"


def _read_checkpoint(fh, path) -> Checkpoint:
    header, start = _read_header(fh, path)
    fields = {key: header[key] for key in _HEADER_KINDS if key != "manifest"}
    ckpt = Checkpoint(**fields, weights={})
    ckpt.vocab = tuple(ckpt.vocab)
    try:
        expected = _manifest(_expected_shapes(ckpt), _blob_dtype(ckpt.preset))
    except ConfigError as exc:
        raise CheckpointError(f"{path}: header describes no valid model: {exc}") from exc
    if header["manifest"] != expected:
        raise CheckpointShapeError(f"{path}: {_manifest_difference(header['manifest'], expected)}")
    blob_size = os.fstat(fh.fileno()).st_size - start
    total = sum(entry[3] for entry in expected)
    if total != blob_size:
        raise CheckpointTruncatedError(
            f"{path}: weight section holds {blob_size} bytes, manifest expects {total}"
        )
    fh.seek(start)
    for name, shape, _, length, dtype in expected:
        arr = np.empty(shape, dtype=dtype)
        if fh.readinto(arr) != length:
            raise CheckpointTruncatedError(f"{path}: weight {name!r} blob cut short")
        ckpt.weights[name] = arr
    weights = ckpt.weights.values()
    if ckpt.preset == "naive_bayes" and not all(np.isfinite(a).all() for a in weights):
        raise CheckpointError(f"{path}: naive_bayes tables hold NaN or Inf")
    return ckpt
