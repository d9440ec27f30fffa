"""End-to-end acceptance checks. Run with `pytest tests/test_acceptance.py -s`
to see one PASS/FAIL line per criterion."""

import filecmp
import math
import time

import numpy as np
import pytest

from corrnet.baseline import baseline_predict, fit_baseline
from corrnet.cli import main
from corrnet.corpus import generate_synthetic, split_corpus, untested_fraction
from corrnet.embeddings import random_table
from corrnet.ensemble import qbc_search, summarize_rows, train_ensemble
from corrnet.infill import KIND_REPORTED, build_table
from corrnet.neural import gradcheck, init_params, load_checkpoint, predict_pair
from corrnet.stats import mann_whitney_u, pearson
from corrnet.training import TrainConfig, evaluate, train

from test_baseline import brute_force_predict
from test_neural import random_seq
from test_stats import brute_force_u
from conftest import random_corpus


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_01_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        params = init_params(4, 3, 2, seed=trial)
        a = random_seq(rng, 4, int(rng.integers(1, 6)))
        b = random_seq(rng, 4, int(rng.integers(1, 6)))
        worst = max(worst, gradcheck(params, a, b))
    elapsed = time.monotonic() - start
    report(1, "gradient-correctness", worst < 1e-4 and elapsed < 30,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_symmetry():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    ok = True
    for trial in range(1000):
        params = init_params(3, 2, 2, seed=trial)
        a = random_seq(rng, 3, int(rng.integers(1, 5)))
        b = random_seq(rng, 3, int(rng.integers(1, 5)))
        if predict_pair(a, b, params).r_hat != predict_pair(b, a, params).r_hat:
            ok = False
            break
    corpus = random_corpus(rng, n_correlates=8, n_findings=25)
    model = fit_baseline(corpus, range(25))
    for i in range(8):
        for j in range(8):
            if j != i:  # a self-pair is refused
                ok &= baseline_predict(model, i, j) == baseline_predict(model, j, i)
    elapsed = time.monotonic() - start
    report(2, "symmetry", ok and elapsed < 10, f"{elapsed:.1f}s")


def test_03_range():
    rng = np.random.default_rng(2)
    ok = True
    for p_trial in range(100):
        params = init_params(3, 2, 2, seed=p_trial)
        for name in params.weights:
            params.weights[name] *= float(rng.uniform(0.5, 10.0))
        for _ in range(100):
            a = random_seq(rng, 3, int(rng.integers(1, 4)))
            b = random_seq(rng, 3, int(rng.integers(1, 4)))
            r_hat = predict_pair(a, b, params).r_hat
            ok &= -1.0 <= r_hat <= 1.0
    report(3, "prediction-range", ok, "10000 draws")


def test_04_memorization(synth_vocab):
    start = time.monotonic()
    corpus, _ = generate_synthetic(40, 20, synth_vocab, noise_sd=0.0, seed=3)
    split = split_corpus(corpus, 0.95, seed=1)
    cfg = TrainConfig(epochs=500, val_fraction=0.0, seed=5)
    params, _ = train(corpus, split, synth_vocab, cfg)
    r = evaluate(params, corpus, split.train_indices, synth_vocab)["pearson_r"]
    elapsed = time.monotonic() - start
    report(4, "memorization", r >= 0.99 and elapsed < 120,
           f"train R {r:.4f}, {elapsed:.1f}s")


def test_05_synthetic_recovery(synth_vocab):
    start = time.monotonic()
    corpus, _ = generate_synthetic(200, 2000, synth_vocab, noise_sd=0.05, seed=11)
    split = split_corpus(corpus, 0.8, seed=1)
    cfg = TrainConfig(epochs=100, learning_rate=3e-3, early_stop_patience=25, seed=5)
    params, _ = train(corpus, split, synth_vocab, cfg)
    neural_r = evaluate(params, corpus, split.test_indices, synth_vocab)["pearson_r"]
    model = fit_baseline(corpus, split.train_indices)
    preds = [baseline_predict(model, corpus.findings[i].correlate_a,
                              corpus.findings[i].correlate_b)
             for i in split.test_indices]
    actual = [corpus.findings[i].r for i in split.test_indices]
    baseline_r = pearson(actual, preds)
    elapsed = time.monotonic() - start
    report(5, "synthetic-recovery",
           neural_r >= 0.8 and baseline_r < neural_r and elapsed < 600,
           f"neural R {neural_r:.4f}, baseline R {baseline_r:.4f}, {elapsed:.0f}s")


def test_06_baseline_oracle_equivalence():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        n_c = int(rng.integers(4, 10))
        n_f = int(rng.integers(5, 51))
        corpus = random_corpus(rng, n_correlates=n_c, n_findings=n_f)
        train_idx = list(rng.choice(n_f, size=max(1, n_f // 2), replace=False))
        model = fit_baseline(corpus, train_idx)
        for i in range(n_c):
            for j in range(i + 1, n_c):
                expected = brute_force_predict(corpus, train_idx, i, j, model.global_mean)
                ok &= abs(baseline_predict(model, i, j) - expected) <= 1e-12
    report(6, "baseline-oracle-equivalence", ok, "100 corpora")


def test_07_corpus_arithmetic():
    frac = untested_fraction(21_736, 149_374)
    report(7, "corpus-arithmetic", abs(frac - 0.9994) <= 1e-4, f"fraction {frac:.6f}")


def test_08_ci_formula():
    delta = 0.1659 * math.sqrt(49 / 50)
    est = summarize_rows([[-0.37 + delta] * 25 + [-0.37 - delta] * 25], [(-1, -1)])[0]
    ok = (abs(est.disagreement - 0.1659) < 1e-12
          and abs(est.ci_half_width - 0.046) <= 1e-3)
    report(8, "ci-formula", ok, f"half-width {est.ci_half_width:.4f}")


@pytest.fixture(scope="module")
def qbc_setup(synth_vocab):
    corpus, _ = generate_synthetic(150, 300, synth_vocab, noise_sd=0.1, seed=13)
    split = split_corpus(corpus, 0.8, seed=0)
    cfg = TrainConfig(epochs=2, hidden_size=8, head_width=4, seed=0)
    ensemble = train_ensemble(corpus, split, synth_vocab, cfg, 2)
    return corpus, ensemble


def test_09_qbc_contract(qbc_setup, synth_vocab):
    corpus, ensemble = qbc_setup
    run1 = qbc_search(ensemble, corpus, synth_vocab, 5000, seed=21, top_fraction=0.01)
    run2 = qbc_search(ensemble, corpus, synth_vocab, 5000, seed=21, top_fraction=0.01)
    flagged = sum(e.flagged for e in run1)
    sds = [e.disagreement for e in run1]
    ok = (flagged == 50
          and all(e.pair not in corpus.pair_index for e in run1)
          and sds == sorted(sds, reverse=True)
          and [(e.pair, e.mean, e.disagreement, e.flagged) for e in run1]
          == [(e.pair, e.mean, e.disagreement, e.flagged) for e in run2])
    report(9, "qbc-contract", ok, f"{flagged} flagged of {len(run1)}")


def test_10_statistics_oracles():
    import itertools
    rng = np.random.default_rng(6)
    ok = abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) <= 1e-12
    for n1, n2 in itertools.product(range(1, 6), range(1, 6)):
        for _ in range(20):
            a = rng.integers(0, 4, size=n1).astype(float)
            b = rng.integers(0, 4, size=n2).astype(float)
            ok &= abs(mann_whitney_u(a, b).u_statistic - brute_force_u(a, b)) <= 1e-12
    report(10, "statistics-oracles", ok, "all sizes to 5x5 with ties")


def test_11_infill_accounting(synth_vocab):
    from test_infill import two_paper_corpus
    model = init_params(synth_vocab.dim, 6, 4, seed=0)
    ct = build_table(two_paper_corpus(), ["pA", "pB"], model, synth_vocab)
    ok = ct.infill_fraction == pytest.approx(4 / 6, abs=0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        corpus = random_corpus(rng, n_correlates=6, n_findings=8)
        papers = sorted({f.paper_id for f in corpus.findings})
        table = build_table(corpus, papers, model, synth_vocab)
        pos = {cid: k for k, cid in enumerate(table.correlate_order)}
        for (a, b), idx in corpus.pair_index.items():
            i, j = pos[a], pos[b]
            expected = float(np.mean([corpus.findings[k].r for k in idx]))
            ok &= table.kinds[i, j] == KIND_REPORTED
            ok &= table.values[i, j] == expected
    report(11, "infill-accounting", ok)


def test_12_cli_determinism(tmp_path):
    emb = tmp_path / "vectors.txt"
    rng = np.random.default_rng(0)
    with open(emb, "w") as fh:
        for i in range(40):
            fh.write("w%04d " % i + " ".join("%.6f" % v for v in rng.standard_normal(8)) + "\n")
    corpus = tmp_path / "corpus.tsv"
    assert main(["corpus", "gen", "--correlates", "30", "--findings", "60",
                 "--seed", "3", "--noise", "0.05", "--embeddings", str(emb),
                 "--out", str(corpus)]) == 0

    flags = ["--epochs", "3", "--hidden-size", "8", "--head-width", "4", "--seed", "1"]
    ok = True
    for run in (1, 2):
        assert main(["train", "--corpus", str(corpus), "--embeddings", str(emb),
                     "--out", str(tmp_path / f"m{run}.npz"),
                     "--log", str(tmp_path / f"log{run}.tsv")] + flags) == 0
    ok &= filecmp.cmp(tmp_path / "log1.tsv", tmp_path / "log2.tsv", shallow=False)
    p1 = load_checkpoint(tmp_path / "m1.npz")
    p2 = load_checkpoint(tmp_path / "m2.npz")
    for name in p1.weights:
        ok &= bool(np.array_equal(p1.weights[name], p2.weights[name]))

    assert main(["ensemble-train", "--corpus", str(corpus), "--embeddings", str(emb),
                 "--members", "2", "--out", str(tmp_path / "ens")] + flags) == 0
    for run in (1, 2):
        assert main(["qbc", "--corpus", str(corpus), "--embeddings", str(emb),
                     "--ensemble", str(tmp_path / "ens"), "--candidates", "80",
                     "--top", "0.05", "--seed", "4",
                     "--out", str(tmp_path / f"qbc{run}.tsv")]) == 0
    ok &= filecmp.cmp(tmp_path / "qbc1.tsv", tmp_path / "qbc2.tsv", shallow=False)
    report(12, "cli-determinism", ok)
