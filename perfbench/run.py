"""Benchmark of costnet: training, scoring and cold-predict speed on three workloads.

Usage, from the root of a source tree that holds ``src/costnet``:

    python3 perfbench/run.py --workload dga-short --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A fuller record, with the run
conditions, goes to ``perfbench/results/``. See ``perfbench/README.md``.
"""

import os
import time

_START = time.perf_counter()

# BLAS is pinned to one thread before numpy loads; predict children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="seconds-long inputs, for the self-test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_costnet():
    """Import costnet from this tree's ``src`` and nowhere else."""
    if not (SRC / "costnet" / "__init__.py").is_file():
        sys.exit(f"error: no costnet sources under {SRC}; run from the root of a costnet tree")
    sys.path.insert(0, str(SRC))
    import costnet

    if Path(costnet.__file__).resolve().parent != SRC / "costnet":
        sys.exit(f"error: imported costnet from {costnet.__file__}, not from {SRC}")
    return costnet


def git_sha() -> str:
    """HEAD of the tree's own .git, read from its files; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def conditions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    costnet = import_costnet()
    import_s = time.perf_counter() - _START

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, costnet)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(workload, args.seed, costnet, ROOT, work, tracer)
        setup_times = run.setup()
        run.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = run.end_to_end(import_s + statistics.median(setup_times))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "conditions": conditions(),
        "rounds": run.rounds,
        "import_s": import_s,
        "setup_times_s": setup_times,
        "end_to_end": end_to_end,
        "samples": {"train_rows_per_s": run.train_rates, "eval_rows_per_s": run.eval_rates, "predict_s": run.predict_s},
        "failures": run.failures,
    }
    if tracer is None:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in workloads.END_TO_END}
    else:
        values, calls = run.per_layer()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in workloads.PER_LAYER}
        record["per_layer_calls"] = calls
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record["result"] = result

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
