import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_run_counts_training_calls(tmp_path):
    """A short traced dense-d8 run in a fresh copy of the benchmark exits 0 and
    sees training's per-pair forward and backward calls. failed is not
    asserted: one of its metrics needs a number of samples that depends on
    host speed."""
    skip = shutil.ignore_patterns("__pycache__", ".bench_cache")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-d8", "--seed", "1",
         "--seconds", "4", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["neural.predict_calls"]["value"] > 0
    assert metrics["neural.backward_calls"]["value"] > 0
