"""SHA-256 pins of the CLI's model files, ranking, explanations and evaluation report.

Each run is a child Python under a fixed PYTHONHASHSEED, so that an output that hangs on set or dict
order of strings shows as a changed digest.  A change that moves any of these bytes (the model file's
format version, a rate, a tie order) must update the pins on purpose.
"""
import json
import subprocess
import sys

import pytest

from test_cli import _child_env

# Runs the pipeline in the working directory, with relative paths, and prints each output's digest.
_PIPELINE = """
import contextlib, hashlib, io, json
from edbn.cli import main

runs = [
    ["generate", "--out", "train.csv", "--n-traces", "2000", "--seed", "7"],
    ["generate", "--out", "test.csv", "--labels", "labels.csv", "--n-traces", "1000", "--fraction", "0.1", "--seed", "8"],
    ["train", "--log", "train.csv", "--trace-col", "case_id", "--out", "model-k1.json", "--k", "1"],
    ["train", "--log", "train.csv", "--trace-col", "case_id", "--out", "model-k2.json", "--k", "2"],
    ["score", "--model", "model-k1.json", "--log", "test.csv", "--out", "ranking.csv", "--explain", "3"],
    ["evaluate", "--train-log", "train.csv", "--log", "test.csv", "--labels", "labels.csv", "--trace-col", "case_id",
     "--out", "eval", "--k", "1"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
files = ["model-k1.json", "model-k2.json", "ranking.csv", "ranking.csv.explain.txt", "eval.report.txt"]
print(json.dumps({f: hashlib.sha256(open(f, "rb").read()).hexdigest() for f in files}))
"""

PINS = {
    "model-k1.json": "570fc79994c8124ea10dc17eedc4aa4e3ce7f8f7d332ae521a8eda696d78c1d3",
    "model-k2.json": "8a392a093197aec2770a63811f88cdb56a3c28e6882a1603c491bd31c60dd65b",
    "ranking.csv": "7d1410c5582e7cc5390ca47edf143cfd62739ca5638ffef7547ccdc6d0a038e1",
    "ranking.csv.explain.txt": "7dab53cf93d68dc48f0b415512f156549eb2e9a537b33c8e3b8c9fbdd8956298",
    "eval.report.txt": "d379b3a06477867e07336cee0b1f6eb035e83c31545401afa26a89cd9a504caf",
}


@pytest.mark.parametrize("hash_seed", ["1", "987"])
def test_cli_outputs_are_pinned(tmp_path, hash_seed):
    result = subprocess.run([sys.executable, "-c", _PIPELINE], cwd=tmp_path, capture_output=True, text=True,
                            env={**_child_env(), "PYTHONHASHSEED": hash_seed})
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == PINS
