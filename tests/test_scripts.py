"""The programs under ``scripts/`` run end to end on tiny arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import costnet
from costnet.models import PRESETS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(costnet.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_verify_reported_metrics():
    proc = run_script("verify_reported_metrics.py")
    assert proc.returncode == 0, proc.stderr
    assert "worst deviation" in proc.stderr


@pytest.mark.parametrize(
    "name,args,keys",
    [
        (
            "run_use_case.py",
            ["--legit", "60", "--malicious", "20", "--epochs", "1"],
            {"naive_bayes", "cnn_gamma0", "cnn_gamma1"},
        ),
        (
            "run_imbalance_benchmark.py",
            ["--epochs", "1", "--seeds", "0", "--legit", "60", "--malicious", "10",
             "--test-per-class", "20"],
            {"runs", "wins", "strict_wins", "median_difference", "n_seeds"},
        ),
    ],
    ids=["use-case", "imbalance-benchmark"],
)
def test_script_prints_json_summary(name, args, keys):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == keys


def test_checkpoint_digests():
    proc = run_script("checkpoint_digests.py", "--tiny", "--criterion-3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    presets = [f"{p}-gamma{g}" for p in PRESETS for g in (0, 1)] + ["naive_bayes"]
    keys = {f"{size}/{name}.{kind}" for size in ("dga-short", "url-score")
            for name in presets for kind in ("ckpt", "probs")}
    keys |= {f"criterion-3/seed{s}-gamma{g}.ckpt" for s in (0, 1) for g in (0, 1)}
    assert set(result) == keys | {"criterion-3/summary"}
    assert set(result["criterion-3/summary"]) == {
        "runs", "wins", "strict_wins", "median_difference", "n_seeds"}
    assert all(len(result[k]) == 64 for k in keys)
