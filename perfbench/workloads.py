"""The workloads and the round of operations each one repeats.

A round is a fixed list of operations on inputs made from the seed, so every
round of a run does the same work:

* ``dga-short``: train every neural preset at gamma 0 and 1 plus naive bayes
  on a 20:1 DGA split (max_len 40), score each on a balanced held-out split,
  save the gamma=1 checkpoints of dnn, cnn, lstm and naive_bayes and score
  held-out domains with cold ``costnet predict`` processes.
* ``url-score``: set-up trains, scores and saves the checkpoints on a URL
  corpus; a round is cold ``costnet predict`` processes, presets interleaved.

Each workload reports every metric, so ``dga-short`` also times cold predicts
and ``url-score`` reports the training and scoring rates of its set-up.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks

NEURAL = ("dnn", "cnn", "lstm", "cnn_lstm")
ALL_PRESETS = NEURAL + ("naive_bayes",)
#: presets whose checkpoints are saved and scored by cold predicts
PREDICTED = ("dnn", "cnn", "lstm", "naive_bayes")
#: the autodiff ops each neural preset runs
PRESET_OPS = {
    "dnn": ("embedding", "matmul", "batchnorm"),
    "cnn": ("embedding", "conv1d_valid", "maxpool1d", "matmul"),
    "lstm": ("embedding", "lstm", "matmul"),
    "cnn_lstm": ("embedding", "conv1d_valid", "maxpool1d", "lstm", "matmul"),
}
PREDICT_TIMEOUT_S = 60

END_TO_END = (
    [("setup_s", "s")]
    + [(f"train_rows_per_s.{p}", "rows/s") for p in ALL_PRESETS]
    + [(f"eval_rows_per_s.{p}", "rows/s") for p in ALL_PRESETS]
    + [(f"predict_ms.{p}", "ms") for p in PREDICTED]
    + [("peak_rss_mb", "MB")]
)

PER_LAYER = (
    [("data.gen_synthetic_s", "s")]
    + [(f"text.encode_batch_s.{p}", "s") for p in NEURAL]
    + [("text.ngram_counts_s", "s")]
    + [("naive_bayes.nb_train_s", "s"), ("naive_bayes.nb_positive_probability_s", "s")]
    + [(f"models.build_model_s.{p}", "s") for p in NEURAL]
    + [(f"models.build_model_calls.{p}", "count") for p in PREDICTED if p in NEURAL]
    + [(f"models.forward_s.{m}.{p}", "s") for m in ("train", "infer") for p in NEURAL]
    + [(f"autodiff.fwd_s.{op}.{p}", "s") for p in NEURAL for op in PRESET_OPS[p]]
    + [(f"autodiff.backward_s.{p}", "s") for p in NEURAL]
    + [(f"autodiff.tape_nodes.{p}", "count") for p in NEURAL]
    + [(f"loss.weighted_bce_s.{p}", "s") for p in NEURAL]
    + [(f"trainer.adam_step_s.{p}", "s") for p in NEURAL]
    + [(f"trainer.adam_params.{p}", "count") for p in NEURAL]
    + [(f"trainer.{f}_s.{p}", "s") for f in ("save", "load", "predict_probability") for p in PREDICTED]
    + [("cli.import_s", "s")]
)


@dataclass(frozen=True)
class Workload:
    name: str
    use_case: str
    train_counts: tuple[int, int]  # legitimate, malicious
    test_counts: tuple[int, int]
    max_len: int
    # neural preset: epochs, batch size, learning rate. Each was chosen so that the
    # gamma=1 run ends below ln 2 on every one of 12 seeds tried; the lstm needs a
    # small step, larger ones diverge on some seeds
    training: dict[str, tuple[int, int, float]]
    gammas: tuple[float, ...]
    train_in_setup: bool  # url-score trains its checkpoints during set-up
    setup_repeats: int
    predicts_per_preset: int  # cold predicts per preset in one round
    nb_repeats: int  # naive bayes fits per round; one fit takes milliseconds

    def tiny(self) -> "Workload":
        """A seconds-long copy for the self-test."""
        return replace(
            self,
            train_counts=tuple(max(4, n // 4) for n in self.train_counts),
            test_counts=(8, 8),
            training={p: (1, b, lr) for p, (_, b, lr) in self.training.items()},
            setup_repeats=1,
            predicts_per_preset=1,
            nb_repeats=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dga-short",
            use_case="dga",
            train_counts=(400, 20),
            test_counts=(250, 250),
            max_len=40,
            training={"dnn": (2, 64, 0.001), "cnn": (3, 32, 0.001), "lstm": (3, 32, 0.001), "cnn_lstm": (3, 32, 0.001)},
            gammas=(0.0, 1.0),
            train_in_setup=False,
            setup_repeats=3,
            predicts_per_preset=2,
            nb_repeats=10,
        ),
        Workload(
            name="url-score",
            use_case="url",
            train_counts=(160, 80),
            test_counts=(100, 100),
            max_len=100,
            training={"dnn": (1, 32, 0.002), "cnn": (1, 32, 0.002), "lstm": (4, 64, 0.001), "cnn_lstm": (2, 32, 0.003)},
            gammas=(1.0,),
            train_in_setup=True,
            setup_repeats=3,
            predicts_per_preset=2,
            nb_repeats=5,
        ),
    )
}


class Run:
    """One benchmark run: set-up, whole rounds for the given seconds, metrics."""

    def __init__(self, workload: Workload, seed: int, costnet, root: Path, work: Path, tracer=None):
        self.w = workload
        self.seed = seed
        self.cn = costnet
        self.root = root
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []
        self.train_rates = {p: [] for p in ALL_PRESETS}  # rows x epochs / second, per call
        self.eval_rates = {p: [] for p in ALL_PRESETS}
        self.predict_s = {p: [] for p in PREDICTED}
        self.import_s: list[float] = []
        self.rounds = 0
        self.requests = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    # -- operations -------------------------------------------------------

    def _op(self, name: str, preset: str, fn):
        """Run one operation; an exception or a failed check fails it."""
        self.attempted += 1
        try:
            if self.tracer is None:
                reason = fn()
            else:
                with self.tracer.op(name, preset):
                    reason = fn()
        except Exception as exc:  # a program error fails this operation only
            reason = f"raised {type(exc).__name__}: {exc}"
            mismatch = False
        else:
            mismatch = reason is not None
        if reason is not None:
            self.failed += 1
            self.correct = self.correct and not mismatch
            self.failures.append(f"{name} {preset}: {reason}")

    def _untraced(self, fn, *args):
        if self.tracer is None:
            return fn(*args)
        with self.tracer.paused():
            return fn(*args)

    # -- set-up -----------------------------------------------------------

    def _corpus(self, split: str, counts, seed: int):
        cfg = self.cn.data.GeneratorConfig(self.w.use_case, counts[0], counts[1], seed=seed, split=split)
        return self.cn.data.gen_synthetic(cfg)

    def setup(self) -> list[float]:
        """Build the inputs ``setup_repeats`` times; returns each build's seconds."""
        times = []
        for _ in range(self.w.setup_repeats):
            t0 = time.perf_counter()
            self.train_ds = self._corpus("train", self.w.train_counts, 2 * self.seed)
            self.test_ds = self._corpus("test", self.w.test_counts, 2 * self.seed + 1)
            if self.w.train_in_setup:
                self.train_phase(predict=False)
            times.append(time.perf_counter() - t0)
        self.reference_nb = checks.ReferenceNB(self.train_ds.texts, self.train_ds.labels)
        return times

    # -- training, scoring and saving -------------------------------------

    def train_phase(self, predict: bool) -> None:
        """Train and score every preset; save the checkpoints that predicts load.

        With ``predict``, each saved preset gets one cold predict right after
        its save and the rest at the end of the round, presets interleaved. The
        naive bayes fits are spread over all of these steps, so each metric
        samples the whole round.
        """
        caught = {g: 0 for g in self.w.gammas}
        self.saved: dict[str, tuple[object, Path]] = {}
        self.models: dict[str, object] = {}  # the last checkpoint of each preset
        self.expected: dict[tuple[str, int], float] = {}
        steps = [(p, g) for g in self.w.gammas for p in NEURAL]
        if predict:
            steps += [(p, "predict") for _ in range(self.w.predicts_per_preset - 1) for p in PREDICTED]
        nb = self.w.nb_repeats
        for i, (preset, gamma) in enumerate(steps):
            if gamma == "predict":
                self._request(preset)
            else:
                self._fit(preset, gamma, caught, predict)
            for _ in range((i + 1) * nb // len(steps) - i * nb // len(steps)):
                self._fit("naive_bayes", None, caught, predict)
        if len(caught) == 2:
            self._op("cost_check", "neural", lambda: checks.check_cost_sensitivity(caught))

    def _fit(self, preset, gamma, caught, predict: bool) -> None:
        out = {}
        self._op("train", preset, lambda: self._train(preset, gamma, out))
        if "ckpt" not in out:
            return
        ckpt = out["ckpt"]
        self._op("evaluate", preset, lambda: self._evaluate(preset, gamma, ckpt, caught))
        self.models[preset] = ckpt
        if preset in PREDICTED and gamma in (None, max(self.w.gammas)) and preset not in self.saved:
            path = self.work / f"{preset}.ckpt"
            self._op("save", preset, lambda: self.cn.trainer.save(ckpt, path))
            self.saved[preset] = (ckpt, path)
            if predict:
                self._request(preset)

    def _train(self, preset, gamma, out) -> str | None:
        tr = self.cn.trainer
        labels = self.train_ds.labels
        t0 = time.perf_counter()
        if gamma is None:
            out["ckpt"] = tr.train_naive_bayes(self.train_ds)
            self.train_rates[preset].append(len(labels) / (time.perf_counter() - t0))
            return None
        epochs, batch_size, learning_rate = self.w.training[preset]
        config = tr.TrainConfig(
            learning_rate=learning_rate,
            epochs=epochs,
            batch_size=batch_size,
            gamma=gamma,
            seed=self.seed,
            preset=preset,
            max_len=self.w.max_len,
        )
        out["ckpt"], history = tr.train(self.train_ds, config)
        self.train_rates[preset].append(len(labels) * epochs / (time.perf_counter() - t0))
        stored = out["ckpt"].hyperparameters["class_weights"]
        return checks.check_class_weights(stored, labels, gamma) or checks.check_loss(history)

    def _evaluate(self, preset, gamma, ckpt, caught=None) -> str | None:
        t0 = time.perf_counter()
        report = self.cn.trainer.evaluate(ckpt, self.test_ds)
        self.eval_rates[preset].append(len(self.test_ds) / (time.perf_counter() - t0))
        if caught is not None and gamma is not None:
            caught[gamma] += report["tp"]
        return checks.check_report(report, self.test_ds.labels)

    # -- cold predicts ----------------------------------------------------

    def _spawn(self, cmd) -> tuple[float, int, str]:
        """Spawn-to-exit seconds, exit code and stdout of one child."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        try:
            out, _ = proc.communicate(timeout=PREDICT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
        return elapsed, proc.returncode, out.decode("utf-8", "replace")

    def predict_phase(self) -> None:
        """Cold predicts, presets interleaved, then each checkpoint scores the held-out split again.

        The re-scoring gives the scoring rates a sample from every round, not
        only from the set-ups.
        """
        for _ in range(self.w.predicts_per_preset):
            for preset in PREDICTED:
                self._request(preset)
        for preset, ckpt in self.models.items():
            self._op("evaluate", preset, lambda p=preset, c=ckpt: self._evaluate(p, None, c))

    def _request(self, preset: str) -> None:
        """One cold ``costnet predict`` of the next held-out text."""
        index = self.requests % len(self.test_ds)
        self.requests += 1

        def predict():
            ckpt, path = self.saved[preset]
            cmd = [sys.executable, "-m", "costnet", "predict", "--model", str(path),
                   "--text", self.test_ds.texts[index]]
            elapsed, code, out = self._spawn(cmd)
            self.predict_s[preset].append(elapsed)
            if code != 0:
                return f"costnet predict exited {code}"
            return self._check_prediction(json.loads(out.strip().splitlines()[-1]), preset, ckpt, index)

        self._op("predict", preset, predict)
        if self.tracer is not None:
            self._op("replay", preset, lambda: self._replay(preset, index))

    def _check_prediction(self, payload, preset, ckpt, index) -> str | None:
        key = (preset, index)
        if key not in self.expected:
            self.expected[key] = self._untraced(self.cn.trainer.predict_probability, ckpt, self.test_ds.texts[index])
        reference = self.reference_nb.probability(self.test_ds.texts[index]) if preset == "naive_bayes" else None
        return checks.check_prediction(payload, self.expected[key], reference)

    def _replay(self, preset, index) -> str | None:
        """The cold request in-process, so that load, rebuild and forward show in the trace."""
        tr = self.cn.trainer
        ckpt, path = self.saved[preset]
        key = f"models.build_model_s.{preset}"
        before = self.tracer.calls[key]
        prob = tr.predict_probability(tr.load(path), self.test_ds.texts[index])
        if preset in NEURAL:
            self.tracer.count(f"models.build_model_calls.{preset}", self.tracer.calls[key] - before)
        return self._check_prediction({"probability": prob, "label": int(prob >= 0.5)}, preset, ckpt, index)

    def _time_import(self) -> str | None:
        elapsed, code, _ = self._spawn([sys.executable, "-c", "import costnet.cli"])
        self.import_s.append(elapsed)
        return None if code == 0 else f"importing costnet.cli exited {code}"

    # -- the run ----------------------------------------------------------

    def round(self) -> None:
        if self.w.train_in_setup:
            self.predict_phase()
        else:
            self.train_phase(predict=True)
        if self.tracer is not None:
            self._op("import", "cli", self._time_import)
        self.rounds += 1

    def measure(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed."""
        t0 = time.perf_counter()
        while True:
            self.round()
            if time.perf_counter() - t0 >= seconds:
                break

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        m = {"setup_s": setup_s}
        for p in ALL_PRESETS:
            m[f"train_rows_per_s.{p}"] = _median(self.train_rates[p])
            m[f"eval_rows_per_s.{p}"] = _median(self.eval_rates[p])
        for p in PREDICTED:
            m[f"predict_ms.{p}"] = 1000.0 * _median(self.predict_s[p])
        # on url-score the work is done by the predict children; the largest one counts
        who = resource.RUSAGE_CHILDREN if self.w.train_in_setup else resource.RUSAGE_SELF
        m["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        return m

    def per_layer(self) -> tuple[dict[str, float], dict[str, int]]:
        """Mean self seconds per call for times; mean per call for counts."""
        selfs = self.tracer.self_times()
        values, calls = {}, {}
        for name, unit in PER_LAYER:
            if name == "cli.import_s":
                samples = self.import_s
            elif unit == "count":
                samples = self.tracer.counts.get(name, [])
            else:
                samples = selfs.get(name, [])
            values[name] = sum(samples) / len(samples) if samples else 0.0
            calls[name] = len(samples)
        return values, calls


def _median(samples) -> float:
    return statistics.median(samples) if samples else 0.0
