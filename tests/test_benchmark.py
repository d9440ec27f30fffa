import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import random_corpus
from corrnet.baseline import baseline_predict, fit_baseline
from corrnet.embeddings import embed_sequence
from corrnet.ensemble import ensemble_estimate, qbc_search
from corrnet.infill import build_table, export_table
from corrnet.neural import Ensemble, init_params

ROOT = Path(__file__).resolve().parents[1]


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_in_fresh_copy(tmp_path, seconds: str, trace: str) -> subprocess.CompletedProcess:
    """A seed-1 dense-d8 run of the benchmark in a copy of the repository
    holding no cached inputs."""
    skip = shutil.ignore_patterns("__pycache__", ".bench_cache")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-d8", "--seed", "1",
         "--seconds", seconds, "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)


def test_traced_benchmark_run_counts_training_calls(tmp_path):
    """A short traced dense-d8 run in a fresh copy of the benchmark exits 0 and
    sees training's per-pair forward and backward calls. failed is not
    asserted: one of its metrics needs a number of samples that depends on
    host speed."""
    proc = run_in_fresh_copy(tmp_path, "4", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["neural.predict_calls"]["value"] > 0
    assert metrics["neural.backward_calls"]["value"] > 0


def test_untraced_benchmark_run_is_correct(tmp_path):
    """A short untraced dense-d8 run in a fresh copy of the benchmark exits 0
    with every output check passing: the reference forward, the brute-force
    baseline, the infill reported means read through pair_index and the QBC
    tested-pair check all run against the loaded corpus. Untraced runs have
    no metric that depends on host speed."""
    proc = run_in_fresh_copy(tmp_path, "3", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0, result
    assert result["attempted"] > 0


def test_benchmark_checks_read_the_corpus(tmp_path, synth_vocab):
    """The benchmark's output checks read findings and pair_index: they pass
    on correct outputs of a corpus with repeated pairs, and catch a wrong
    baseline value, a wrong reported cell and a tested QBC candidate."""
    checks = load_checks()
    rng = np.random.default_rng(3)
    corpus = random_corpus(rng, n_correlates=8, n_findings=40)
    corpus.correlates = {c: corpus.correlates[c]._replace(tokens=("w%04d" % c,))
                         for c in corpus.correlates}
    assert any(len(idx) > 1 for idx in corpus.pair_index.values())
    train = list(range(0, 40, 2))
    model = fit_baseline(corpus, train)
    pairs = [(a, b) for a in range(8) for b in range(8) if a != b]
    preds = [baseline_predict(model, a, b) for a, b in pairs]
    assert checks.check_baseline(corpus, train, pairs, preds) == []
    preds[0] += 1e-6
    assert checks.check_baseline(corpus, train, pairs, preds) != []

    params = init_params(synth_vocab.dim, 6, 4, seed=0)
    ct = build_table(corpus, ["p0", "p1"], params, synth_vocab)
    paths = export_table(ct, tmp_path / "t")
    seq = lambda c: embed_sequence(corpus.correlates[c].tokens, synth_vocab)  # noqa: E731
    reference = lambda a, b: checks.reference_predict(seq(a), seq(b), params.weights)  # noqa: E731
    assert checks.check_table(ct, corpus, reference, paths) == []
    i, j = np.argwhere(ct.kinds == "R")[0]
    ct.values[i, j] = ct.values[j, i] = ct.values[i, j] + 1e-6
    assert any("reported cell" in m for m in checks.check_table(ct, corpus, reference, paths))

    ens = Ensemble([init_params(synth_vocab.dim, 6, 4, seed=k) for k in range(2)], [0, 1], False)
    n_untested = 8 * 7 // 2 - len(corpus.pair_index)
    estimates = qbc_search(ens, corpus, synth_vocab, n_untested, seed=0)
    swapped = lambda a, b: ensemble_estimate(ens, seq(b), seq(a), (b, a))  # noqa: E731
    assert checks.check_qbc(estimates, corpus, n_untested, 0.01, seq, ens.members, swapped) == []
    estimates[-1].pair = next(iter(corpus.pair_index))
    assert "qbc: a candidate pair is tested or degenerate" in checks.check_qbc(
        estimates, corpus, n_untested, 0.01, seq, ens.members, swapped)
