"""Spans around calls into costnet's modules, for the traced run.

The wrappers replace module attributes from outside; nothing under ``src/``
changes. ``costnet.trainer`` imports ``weighted_bce``, ``encode_batch``,
``ngram_counts``, ``nb_train``, ``nb_positive_probability`` and calls
``adam_step`` by name, so those names are replaced in ``costnet.trainer``.
Names called through a module (``ad.<op>``, ``models.forward``,
``models.build_model``, ``Tape.gradients``) are replaced on that module.

Each call becomes a span ``[key, start, end, parent]`` kept in memory. A
span's self time is its duration minus the durations of its direct
children, so ``models.forward`` excludes the ``autodiff`` ops it calls.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

#: autodiff ops timed per preset; the others count as models.forward self time
AD_OPS = ("embedding", "conv1d_valid", "maxpool1d", "lstm", "matmul", "batchnorm")


class Tracer:
    """The spans and counts of one run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.calls: dict[str, int] = defaultdict(int)
        self.preset: str | None = None
        self.enabled = True
        self._stack: list[int] = []

    @contextmanager
    def span(self, key: str):
        idx = len(self.spans)
        self.spans.append([key, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self.calls[key] += 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def op(self, name: str, preset: str):
        """A benchmark operation; the layers called inside it are labelled with ``preset``."""
        outer = self.preset
        self.preset = preset
        try:
            with self.span(f"op.{name}.{preset}"):
                yield
        finally:
            self.preset = outer

    @contextmanager
    def paused(self):
        """Calls made to compute expected values are not part of the trace."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def count(self, key: str, value: float) -> None:
        self.counts[key].append(value)

    def wrap(self, fn, key_of, on_call=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            with self.span(key_of(args, kwargs)):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, list[float]]:
        child = [0.0] * len(self.spans)
        for key, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (key, start, end, _), inner in zip(self.spans, child):
            out[key].append(end - start - inner)
        return out


def install(tracer: Tracer, costnet) -> None:
    """Replace costnet's layer entry points with traced wrappers."""
    ad, models, trainer, data = costnet.autodiff, costnet.models, costnet.trainer, costnet.data

    def ctx(prefix):
        return lambda args, kwargs: f"{prefix}.{tracer.preset}"

    def const(key):
        return lambda args, kwargs: key

    data.gen_synthetic = tracer.wrap(data.gen_synthetic, const("data.gen_synthetic_s"))

    trainer.encode_batch = tracer.wrap(trainer.encode_batch, ctx("text.encode_batch_s"))
    trainer.ngram_counts = tracer.wrap(trainer.ngram_counts, const("text.ngram_counts_s"))
    trainer.nb_train = tracer.wrap(trainer.nb_train, const("naive_bayes.nb_train_s"))
    trainer.nb_positive_probability = tracer.wrap(
        trainer.nb_positive_probability, const("naive_bayes.nb_positive_probability_s")
    )
    trainer.weighted_bce = tracer.wrap(trainer.weighted_bce, ctx("loss.weighted_bce_s"))
    trainer.adam_step = tracer.wrap(
        trainer.adam_step,
        ctx("trainer.adam_step_s"),
        lambda args, kwargs: tracer.count(
            f"trainer.adam_params.{tracer.preset}", sum(p.data.size for p in args[0].values())
        ),
    )

    models.build_model = tracer.wrap(
        models.build_model, lambda args, kwargs: f"models.build_model_s.{args[0]}"
    )
    models.forward = tracer.wrap(
        models.forward,
        lambda args, kwargs: "models.forward_s.{}.{}".format(
            kwargs.get("mode", args[3] if len(args) > 3 else "infer"), args[0].preset
        ),
    )
    for op in AD_OPS:
        setattr(ad, op, tracer.wrap(getattr(ad, op), ctx(f"autodiff.fwd_s.{op}")))
    ad.Tape.gradients = tracer.wrap(
        ad.Tape.gradients,
        ctx("autodiff.backward_s"),
        lambda args, kwargs: tracer.count(f"autodiff.tape_nodes.{tracer.preset}", len(args[0])),
    )

    trainer.save = tracer.wrap(trainer.save, lambda args, kwargs: f"trainer.save_s.{args[0].preset}")
    trainer.load = tracer.wrap(trainer.load, ctx("trainer.load_s"))
    trainer.predict_probability = tracer.wrap(
        trainer.predict_probability,
        lambda args, kwargs: f"trainer.predict_probability_s.{args[0].preset}",
    )
