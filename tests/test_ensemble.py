import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrnet import ensemble
from corrnet.corpus import generate_synthetic, split_corpus
from corrnet.embeddings import embed_sequence
from corrnet.ensemble import (Ensemble, EnsembleEstimate, disagreement_trend,
                              ensemble_estimate, qbc_search,
                              sample_untested_pairs, summarize_rows, train_ensemble)
from corrnet.neural import init_params, predict_pair
from corrnet.stats import DegenerateDataError
from corrnet.training import TrainConfig, train

FAST = TrainConfig(epochs=2, hidden_size=8, head_width=4, seed=0)
_train_member = ensemble._train_member


def _fail_second_member(seed, *inputs):
    """Stands in for ensemble._train_member and fails the member of seed 1;
    at module level, so that a worker process can unpickle it."""
    if seed == 1:
        raise ValueError(f"member with seed {seed}")
    return _train_member(seed, *inputs)


def _crash_second_member(seed, *inputs):
    """As _fail_second_member, with an error that is a defect, not bad input."""
    if seed == 1:
        raise KeyError(7)
    return _train_member(seed, *inputs)


def reference_sample(corpus, n_candidates, seed):
    """sample_untested_pairs drawing one pair of ids per integers call."""
    rng = np.random.default_rng(seed)
    chosen, seen = [], set()
    while len(chosen) < n_candidates:
        i, j = rng.integers(0, corpus.n_correlates, size=2).tolist()
        if i == j:
            continue
        pair = (min(i, j), max(i, j))
        key = pair[0] * corpus.n_correlates + pair[1]
        if key in seen or key in corpus.pair_rows:
            continue
        seen.add(key)
        chosen.append(pair)
    return chosen


@pytest.fixture(scope="module")
def small_setup(synth_vocab):
    corpus, _ = generate_synthetic(30, 40, synth_vocab, noise_sd=0.1, seed=7)
    split = split_corpus(corpus, 0.8, seed=0)
    return corpus, split


def test_ensemble_needs_two_members():
    p = init_params(2, 2, 2, seed=0)
    with pytest.raises(ValueError):
        Ensemble([p], [0], False)


@pytest.mark.parametrize("members, seeds, message", [
    ([init_params(4, 3, 2), init_params(6, 3, 2)], [0, 1],
     r"member 1 has \(d, h, m\) = \(6, 3, 2\), member 0 has \(4, 3, 2\)"),
    ([init_params(4, 3, 2), init_params(4, 3, 2), init_params(4, 5, 2)], [0, 1, 2],
     r"member 2 has \(d, h, m\) = \(4, 5, 2\), member 0 has \(4, 3, 2\)"),
    ([init_params(4, 3, 2) for _ in range(3)], [0, 1],
     "an ensemble of 3 members has 2 member seeds"),
])
def test_malformed_ensemble_rejected_when_built(members, seeds, message):
    # Each would otherwise fail later: in predict's matmul, in
    # save_checkpoint's stack, or in load_checkpoint of the saved file.
    with pytest.raises(ValueError, match=message):
        Ensemble(members, seeds, False)


class TestSummary:
    def test_two_member_hand_arithmetic(self):
        est = summarize_rows([[0.1, 0.3]], [(-1, -1)])[0]
        assert est.mean == pytest.approx(0.2)
        assert est.disagreement == pytest.approx(0.2 / math.sqrt(2), abs=1e-12)
        assert est.ci_half_width == pytest.approx(1.96 * est.disagreement / math.sqrt(2))

    def test_published_interval_scale(self):
        # 50 values centered at -0.37 with sample sd exactly 0.1659
        delta = 0.1659 * math.sqrt(49 / 50)
        preds = [-0.37 + delta] * 25 + [-0.37 - delta] * 25
        est = summarize_rows([preds], [(-1, -1)])[0]
        assert est.mean == pytest.approx(-0.37)
        assert est.disagreement == pytest.approx(0.1659, abs=1e-12)
        assert est.ci_half_width == pytest.approx(0.046, abs=1e-3)

    def test_identical_predictions(self):
        est = summarize_rows([[0.25] * 5], [(-1, -1)])[0]
        assert est.disagreement == 0.0
        assert est.ci_half_width == 0.0

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 30), k=st.integers(2, 59), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-6, 0.1, 1.0, 10.0]))
    def test_rows_equal_per_row_summaries_bitwise(self, n, k, seed, scale):
        preds = np.tanh(scale * np.random.default_rng(seed).standard_normal((n, k)))
        pairs = [(i, i + 1) for i in range(n)]
        estimates = summarize_rows(preds, pairs)
        assert [e.pair for e in estimates] == pairs
        for est, row in zip(estimates, preds):
            # The summary of one row that qbc_search used to compute per candidate.
            sd = float(row.std(ddof=1))
            want = (float(row.mean()), sd, 1.96 * sd / math.sqrt(len(row)))
            assert (est.mean, est.disagreement, est.ci_half_width) == want
            assert summarize_rows([row.tolist()], [est.pair])[0] == est


class TestEstimate:
    def test_matches_member_predictions(self, synth_vocab):
        rng = np.random.default_rng(0)
        members = [init_params(synth_vocab.dim, 4, 3, seed=k) for k in range(3)]
        ens = Ensemble(members, [0, 1, 2], False)
        a = [rng.standard_normal(synth_vocab.dim) for _ in range(2)]
        b = [rng.standard_normal(synth_vocab.dim) for _ in range(3)]
        est = ensemble_estimate(ens, a, b)
        preds = [predict_pair(a, b, p).r_hat for p in members]
        assert est.mean == pytest.approx(np.mean(preds))
        assert est.disagreement == pytest.approx(np.std(preds, ddof=1))
        assert -1.0 <= est.mean <= 1.0
        assert est.disagreement <= 1.0


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the worker pool with an in-process stand-in that starts no
    process: it runs the initializer and the mapped tasks here, and records
    its max_workers, its initargs and every task."""
    seen = {"max_workers": [], "initargs": [], "tasks": []}

    class Pool:
        def __init__(self, max_workers, initializer, initargs):
            seen["max_workers"].append(max_workers)
            seen["initargs"].append(initargs)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, seeds):
            seeds = list(seeds)
            seen["tasks"].extend(seeds)
            return map(fn, seeds)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(ensemble, "_shared", ())
    return seen


class TestTrainEnsemble:
    def test_distinct_members(self, small_setup, synth_vocab):
        corpus, split = small_setup
        ens = train_ensemble(corpus, split, synth_vocab, FAST, 2)
        assert ens.member_seeds == [0, 1]
        diff = any(not np.array_equal(ens.members[0].weights[n], ens.members[1].weights[n])
                   for n in ens.members[0].weights)
        assert diff

    def test_member_k_is_train_with_seed_plus_k(self, small_setup, synth_vocab):
        corpus, split = small_setup
        config = replace(FAST, seed=3)
        ens = train_ensemble(corpus, split, synth_vocab, config, 3, bagging=False)
        assert ens.member_seeds == [3, 4, 5]
        for k, member in enumerate(ens.members):
            alone, _ = train(corpus, split, synth_vocab, replace(config, seed=3 + k))
            for name in alone.weights:
                np.testing.assert_array_equal(member.weights[name], alone.weights[name])

    def test_two_jobs_match_one_job_bitwise(self, small_setup, synth_vocab):
        corpus, split = small_setup
        serial = train_ensemble(corpus, split, synth_vocab, FAST, 3, jobs=1)
        pooled = train_ensemble(corpus, split, synth_vocab, FAST, 3, jobs=2)
        assert pooled.member_seeds == serial.member_seeds
        for a, b in zip(serial.members, pooled.members):
            for name in a.weights:
                np.testing.assert_array_equal(a.weights[name], b.weights[name])

    def test_pool_tasks_carry_only_seeds(self, small_setup, synth_vocab, in_process_pool):
        # The shared inputs go to the worker initializer once, and each
        # mapped task is a bare seed.
        corpus, split = small_setup
        pooled = train_ensemble(corpus, split, synth_vocab, replace(FAST, seed=4), 3, jobs=2)
        (initargs,) = in_process_pool["initargs"]
        assert initargs[0] is corpus
        assert in_process_pool["tasks"] == [4, 5, 6]
        serial = train_ensemble(corpus, split, synth_vocab, replace(FAST, seed=4), 3, jobs=1)
        for a, b in zip(serial.members, pooled.members):
            for name in a.weights:
                np.testing.assert_array_equal(a.weights[name], b.weights[name])

    def test_pool_starts_no_more_workers_than_members(self, small_setup, synth_vocab,
                                                      in_process_pool):
        # The pool forks all its workers on the first submit, so a worker
        # beyond the member count would only copy the inputs and idle.
        corpus, split = small_setup
        train_ensemble(corpus, split, synth_vocab, FAST, 2, jobs=64)
        assert in_process_pool["max_workers"] == [2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_member_is_named(self, small_setup, synth_vocab, monkeypatch, jobs):
        corpus, split = small_setup
        monkeypatch.setattr(ensemble, "_train_member", _fail_second_member)
        with pytest.raises(ValueError, match=r"^training ensemble member 1 \(seed 1\) failed: "
                                             "member with seed 1$") as exc:
            train_ensemble(corpus, split, synth_vocab, FAST, 3, jobs=jobs)
        assert "member with seed 1" in str(exc.value.__cause__)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_member_defect_propagates_unchanged(self, small_setup, synth_vocab, monkeypatch,
                                                jobs):
        corpus, split = small_setup
        monkeypatch.setattr(ensemble, "_train_member", _crash_second_member)
        with pytest.raises(KeyError) as exc:
            train_ensemble(corpus, split, synth_vocab, FAST, 3, jobs=jobs)
        assert type(exc.value) is KeyError and exc.value.args == (7,)

    def test_jobs_must_be_positive(self, small_setup, synth_vocab):
        corpus, split = small_setup
        with pytest.raises(ValueError, match="^jobs must be >= 1, got 0$"):
            train_ensemble(corpus, split, synth_vocab, FAST, 2, jobs=0)

    def test_bad_member_count(self, small_setup, synth_vocab):
        corpus, split = small_setup
        with pytest.raises(ValueError):
            train_ensemble(corpus, split, synth_vocab, FAST, 1)


class TestQbcSearch:
    def test_contract(self, small_setup, synth_vocab):
        corpus, split = small_setup
        ens = train_ensemble(corpus, split, synth_vocab, FAST, 2)
        estimates = qbc_search(ens, corpus, synth_vocab, 100, seed=9, top_fraction=0.05)
        assert len(estimates) == 100
        pairs = [e.pair for e in estimates]
        assert len(set(pairs)) == 100
        assert all(p not in corpus.pair_index for p in pairs)
        sds = [e.disagreement for e in estimates]
        assert sds == sorted(sds, reverse=True)
        assert sum(e.flagged for e in estimates) == 5
        assert all(e.flagged for e in estimates[:5])

    def test_determinism(self, small_setup, synth_vocab):
        corpus, split = small_setup
        ens = train_ensemble(corpus, split, synth_vocab, FAST, 2)
        e1 = qbc_search(ens, corpus, synth_vocab, 50, seed=4)
        e2 = qbc_search(ens, corpus, synth_vocab, 50, seed=4)
        assert [(e.pair, e.mean, e.disagreement, e.flagged) for e in e1] == \
               [(e.pair, e.mean, e.disagreement, e.flagged) for e in e2]

    def test_matches_swapped_ensemble_estimate(self, small_setup, synth_vocab):
        corpus, split = small_setup
        ens = train_ensemble(corpus, split, synth_vocab, FAST, 3)
        for e in qbc_search(ens, corpus, synth_vocab, 30, seed=5):
            a, b = e.pair
            seq_a, seq_b = (embed_sequence(corpus.correlates[c].tokens, synth_vocab)
                            for c in (a, b))
            swapped = ensemble_estimate(ens, seq_b, seq_a, (b, a))
            assert (swapped.mean, swapped.disagreement, swapped.ci_half_width) == \
                   (e.mean, e.disagreement, e.ci_half_width)

    @pytest.mark.parametrize("n_correlates, n_findings", [(4, 3), (6, 5), (12, 30), (30, 40),
                                                          (200, 2000)])
    def test_bulk_draws_equal_the_pairwise_draws(self, synth_vocab, n_correlates, n_findings):
        corpus, _ = generate_synthetic(n_correlates, n_findings, synth_vocab, seed=n_correlates)
        n = len(corpus.correlates)
        available = n * (n - 1) // 2 - len(corpus.pair_rows)
        # Near-exhaustive requests on the small corpora, where they are cheap.
        requests = ({0, 1, 100, 1000} if n > 30 else
                    {0, 1, min(available, 25), available // 2, available - 1, available})
        assert max(requests) <= available
        for n_candidates in sorted(requests):
            for seed in range(12):
                pairs = sample_untested_pairs(corpus, n_candidates, seed)
                assert pairs == reference_sample(corpus, n_candidates, seed)
                assert all(type(c) is int for pair in pairs for c in pair)

    def test_all_pairs_tested_errors(self, synth_vocab):
        corpus, _ = generate_synthetic(4, 6, synth_vocab, seed=0)  # complete graph
        with pytest.raises(ValueError, match="0 untested"):
            sample_untested_pairs(corpus, 1, seed=0)
        assert sample_untested_pairs(corpus, 0, seed=0) == []

    def test_negative_request_is_refused(self, small_setup, synth_vocab):
        # Unchecked, -5 candidates read as none.
        corpus, split = small_setup
        ens = train_ensemble(corpus, split, synth_vocab, FAST, 2)
        with pytest.raises(ValueError, match="^n_candidates must be >= 0, got -5$"):
            sample_untested_pairs(corpus, -5, seed=0)
        with pytest.raises(ValueError, match="^n_candidates must be >= 0, got -5$"):
            qbc_search(ens, corpus, synth_vocab, -5, seed=0)

    def test_bad_top_fraction(self, small_setup, synth_vocab):
        corpus, split = small_setup
        ens = train_ensemble(corpus, split, synth_vocab, FAST, 2)
        with pytest.raises(ValueError):
            qbc_search(ens, corpus, synth_vocab, 10, seed=0, top_fraction=0.0)


class TestDisagreementTrend:
    def make(self, means, sds):
        return [EnsembleEstimate((i, i + 1), m, s, 0.0)
                for i, (m, s) in enumerate(zip(means, sds))]

    def test_exact_linear_relation(self):
        means = list(np.linspace(-0.5, 0.5, 20))
        sds = [0.1 + 0.2 * m for m in means]
        out = disagreement_trend(self.make(means, sds))
        assert out["pearson_r"] == pytest.approx(1.0)
        assert out["mwu"].p_value < 0.05

    def test_constant_disagreement_is_degenerate(self):
        means = list(np.linspace(-0.5, 0.5, 10))
        with pytest.raises(DegenerateDataError):
            disagreement_trend(self.make(means, [0.1] * 10))

    def test_too_few(self):
        with pytest.raises(ValueError):
            disagreement_trend(self.make([0.1] * 5, [0.1] * 5))
