import re
from dataclasses import replace

import numpy as np
import pytest

from corrnet import training
from corrnet.baseline import fit_baseline
from corrnet.corpus import generate_synthetic, split_corpus
from corrnet.embeddings import random_table
from corrnet.ensemble import sample_untested_pairs
from corrnet.neural import init_params, zero_grads
from corrnet.stats import DegenerateDataError
from corrnet.training import (AdamState, TrainConfig, adam_step,
                              clip_gradients, embed_pairs, evaluate, mse_loss, train)

FAST = TrainConfig(epochs=30, hidden_size=8, head_width=4, seed=0)


def test_mse_examples():
    assert mse_loss(0.5, 0.5) == 0.0
    assert mse_loss(1.0, -1.0) == 4.0
    assert mse_loss(0.3, 0.0) == pytest.approx(0.09)


def test_mse_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = rng.uniform(-1, 1, size=2)
        loss = mse_loss(a, b)
        assert loss >= 0.0
        assert (loss == 0.0) == (a == b)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(grad_clip=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(early_stop_patience=-1)


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("epochs", -1), ("val_fraction", -0.1), ("val_fraction", 1.0),
    ("val_fraction", float("nan")), ("hidden_size", 0), ("head_width", 0),
    ("learning_rate", float("nan")), ("grad_clip", float("nan")),
    ("learning_rate", float("inf")),
])
def test_config_bounds_name_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        TrainConfig(**{field: value})


def test_clip():
    grads = {"a": np.array([6.0, 8.0])}  # norm 10
    clipped = clip_gradients(grads, 1.0)
    assert np.linalg.norm(clipped["a"]) == pytest.approx(1.0)
    untouched = clip_gradients({"a": np.array([0.3, 0.4])}, 1.0)
    np.testing.assert_array_equal(untouched["a"], [0.3, 0.4])


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = init_params(1, 1, 1, seed=0)
        before = {k: v.copy() for k, v in p.weights.items()}
        state = AdamState.for_params(p)
        adam_step(p, zero_grads(p), state, TrainConfig())
        for name in before:
            np.testing.assert_array_equal(p.weights[name], before[name])

    def test_scalar_step_matches_formula(self):
        cfg = TrainConfig(learning_rate=0.01, grad_clip=100.0)
        p = init_params(1, 1, 1, seed=0)
        w0 = float(p.weights["w_z"][0, 0])
        grads = zero_grads(p)
        g = 0.25
        grads["w_z"][0, 0] = g
        state = AdamState.for_params(p)
        adam_step(p, grads, state, cfg)
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        m_hat = ((1 - b1) * g) / (1 - b1)
        v_hat = ((1 - b2) * g * g) / (1 - b2)
        expected = w0 - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + training.ADAM_EPSILON)
        assert p.weights["w_z"][0, 0] == pytest.approx(expected, abs=1e-15)

    def test_nonfinite_gradient_rejected(self):
        p = init_params(1, 1, 1, seed=0)
        before = {k: v.copy() for k, v in p.weights.items()}
        grads = zero_grads(p)
        grads["w_z"][0, 0] = np.inf
        with pytest.raises(ValueError, match="step rejected"):
            adam_step(p, grads, AdamState.for_params(p), TrainConfig())
        for name in before:
            np.testing.assert_array_equal(p.weights[name], before[name])


class TestTrain:
    def test_loss_descends_on_noiseless_corpus(self, synth_vocab):
        corpus, _ = generate_synthetic(8, 4, synth_vocab, noise_sd=0.0, seed=2)
        split = split_corpus(corpus, 0.75, seed=0)
        cfg = TrainConfig(epochs=200, val_fraction=0.0, hidden_size=8, head_width=4, seed=0)
        _, report = train(corpus, split, synth_vocab, cfg)
        assert report.train_losses[-1] < report.train_losses[0]

    def test_zero_epochs(self, synth_vocab):
        corpus, _ = generate_synthetic(8, 6, synth_vocab, seed=2)
        split = split_corpus(corpus, 0.8, seed=0)
        cfg = TrainConfig(epochs=0, hidden_size=8, head_width=4, seed=3)
        params, report = train(corpus, split, synth_vocab, cfg)
        assert report.train_losses == [] and report.val_losses == []
        fresh = init_params(synth_vocab.dim, 8, 4, seed=3)
        for name in fresh.weights:
            np.testing.assert_array_equal(params.weights[name], fresh.weights[name])

    def test_determinism(self, synth_vocab):
        corpus, _ = generate_synthetic(12, 20, synth_vocab, noise_sd=0.1, seed=5)
        split = split_corpus(corpus, 0.8, seed=1)
        p1, r1 = train(corpus, split, synth_vocab, FAST)
        p2, r2 = train(corpus, split, synth_vocab, FAST)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        for name in p1.weights:
            np.testing.assert_array_equal(p1.weights[name], p2.weights[name])

    def test_best_epoch_is_argmin(self, synth_vocab):
        corpus, _ = generate_synthetic(12, 20, synth_vocab, noise_sd=0.1, seed=5)
        split = split_corpus(corpus, 0.8, seed=1)
        _, report = train(corpus, split, synth_vocab, FAST)
        assert report.val_losses[report.best_epoch] == min(report.val_losses)

    def test_returns_the_best_epochs_weights(self, synth_vocab):
        # A patience above the epoch count runs training past its best epoch;
        # the weights returned are those of a run that ends at that epoch.
        corpus, _ = generate_synthetic(12, 20, synth_vocab, noise_sd=0.1, seed=5)
        split = split_corpus(corpus, 0.8, seed=1)
        cfg = replace(FAST, seed=3, early_stop_patience=100)
        params, report = train(corpus, split, synth_vocab, cfg)
        assert len(report.val_losses) == cfg.epochs
        assert 0 < report.best_epoch < cfg.epochs - 1
        stopped, _ = train(corpus, split, synth_vocab, replace(cfg, epochs=report.best_epoch + 1))
        for name in params.weights:
            np.testing.assert_array_equal(params.weights[name], stopped.weights[name])

    def test_empty_train_set(self, synth_vocab):
        corpus, _ = generate_synthetic(8, 6, synth_vocab, seed=2)
        split = split_corpus(corpus, 0.8, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train(corpus, split, synth_vocab, FAST, train_indices=[])


def test_train_calls_predict_pair_and_backward_once_per_pair(synth_vocab, monkeypatch):
    """Pins what the benchmark's traced mode relies on: train reaches the
    per-pair forward and backward through training.predict_pair and
    training.backward, once per pair and epoch, and len(trace.steps_a) is the
    sequence length. The change that moves the tracer onto corrnet's own
    timers (ROADMAP item 1) deletes this test."""
    corpus, _ = generate_synthetic(8, 10, synth_vocab, seed=2)
    split = split_corpus(corpus, 0.8, seed=0)
    real_predict_pair, real_backward = training.predict_pair, training.backward
    forward_traces, backward_traces = [], []

    def predict_pair(seq_a, seq_b, params):
        trace = real_predict_pair(seq_a, seq_b, params)
        assert (len(trace.steps_a), len(trace.steps_b)) == (len(seq_a), len(seq_b))
        forward_traces.append(trace)
        return trace

    def backward(trace, upstream, params):
        backward_traces.append(trace)
        return real_backward(trace, upstream, params)

    monkeypatch.setattr(training, "predict_pair", predict_pair)
    monkeypatch.setattr(training, "backward", backward)
    cfg = TrainConfig(epochs=2, val_fraction=0.0, batch_size=3, hidden_size=4, head_width=3)
    train(corpus, split, synth_vocab, cfg)
    assert len(forward_traces) == 2 * len(split.train_indices)
    assert [id(t) for t in backward_traces] == [id(t) for t in forward_traces]


def test_embed_pairs_takes_a_pair_list_or_array(synth_vocab):
    corpus, _ = generate_synthetic(12, 20, synth_vocab, seed=4)
    pairs = list(zip(corpus.b.tolist(), corpus.a.tolist()))
    from_list = embed_pairs(corpus, pairs, synth_vocab)
    from_array = embed_pairs(corpus, np.array(pairs), synth_vocab)
    assert set(from_list) == set(from_array) == {c for pair in pairs for c in pair}
    assert all(type(c) is int for c in from_array)
    for c, seq in from_list.items():
        assert len(seq) == len(from_array[c])
        assert all(v is w for v, w in zip(seq, from_array[c]))
    assert embed_pairs(corpus, [], synth_vocab) == {}


@pytest.mark.parametrize("bad", [-1, 20])
@pytest.mark.parametrize("role, call", [
    ("train", lambda corpus, vocab, idx: fit_baseline(corpus, idx)),
    ("train", lambda corpus, vocab, idx: train(
        corpus, split_corpus(corpus, 0.8, seed=0), vocab,
        TrainConfig(epochs=1, hidden_size=4, head_width=2), train_indices=idx)),
    ("evaluated", lambda corpus, vocab, idx: evaluate(
        init_params(vocab.dim, 4, 2, seed=0), corpus, idx, vocab)),
], ids=["fit_baseline", "train", "evaluate"])
def test_index_outside_corpus_is_refused(synth_vocab, role, call, bad):
    # Unchecked, numpy wraps -1 to the last finding and fails on 20 with an
    # IndexError that names no finding count.
    corpus, _ = generate_synthetic(12, 20, synth_vocab, seed=5)
    with pytest.raises(ValueError,
                       match=f"^{role} index {bad} outside the corpus's 20 findings$"):
        call(corpus, synth_vocab, [bad, 0, 1])


@pytest.mark.parametrize("indices", [np.array([0.5, 1.5, 2.5]), np.array([0.0, 1.0]),
                                     np.array([True, False, True])], ids=["float", "whole", "bool"])
@pytest.mark.parametrize("role, call", [
    ("train", lambda corpus, vocab, idx: fit_baseline(corpus, idx)),
    ("train", lambda corpus, vocab, idx: train(
        corpus, split_corpus(corpus, 0.8, seed=0), vocab,
        TrainConfig(epochs=1, hidden_size=4, head_width=2), train_indices=idx)),
    ("evaluated", lambda corpus, vocab, idx: evaluate(
        init_params(vocab.dim, 4, 2, seed=0), corpus, idx, vocab)),
], ids=["fit_baseline", "train", "evaluate"])
def test_non_integer_indices_are_refused(synth_vocab, role, call, indices):
    # Unchecked, numpy fails with an IndexError that names neither the role nor
    # the dtype, or, in fit_baseline, truncates each index to a finding.
    corpus, _ = generate_synthetic(12, 20, synth_vocab, seed=5)
    with pytest.raises(ValueError, match=f"^{role} indices must be integers, got {indices.dtype}$"):
        call(corpus, synth_vocab, indices)


@pytest.mark.parametrize("indices", [np.arange(6).reshape(3, 2), np.array(3)], ids=["2-D", "0-d"])
@pytest.mark.parametrize("role, call", [
    ("train", lambda corpus, vocab, idx: fit_baseline(corpus, idx)),
    ("train", lambda corpus, vocab, idx: train(
        corpus, split_corpus(corpus, 0.8, seed=0), vocab,
        TrainConfig(epochs=1, hidden_size=4, head_width=2), train_indices=idx)),
    ("evaluated", lambda corpus, vocab, idx: evaluate(
        init_params(vocab.dim, 4, 2, seed=0), corpus, idx, vocab)),
], ids=["fit_baseline", "train", "evaluate"])
def test_indices_that_are_not_1d_are_refused(synth_vocab, role, call, indices):
    # Unchecked, a 2-D array fails deep in numpy (a TypeError, a reshape or a
    # broadcast error) and a 0-d one in len() or list(), naming no role.
    corpus, _ = generate_synthetic(12, 20, synth_vocab, seed=5)
    message = f"{role} indices must be a 1-D sequence, got shape {indices.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(corpus, synth_vocab, indices)


@pytest.mark.parametrize("call", [
    lambda corpus: TrainConfig(seed=-1),
    lambda corpus: split_corpus(corpus, 0.8, seed=-1),
    lambda corpus: sample_untested_pairs(corpus, 1, seed=-1),
    lambda corpus: generate_synthetic(4, 3, random_table(8, 2), seed=-1),
    lambda corpus: random_table(8, 2, seed=-1),
], ids=["TrainConfig", "split_corpus", "sample_untested_pairs", "generate_synthetic",
        "random_table"])
def test_negative_seed_is_refused(synth_vocab, call):
    # Unchecked, numpy refuses it as "expected non-negative integer", naming no parameter.
    corpus, _ = generate_synthetic(12, 20, synth_vocab, seed=5)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        call(corpus)


class TestEvaluate:
    def test_pearson_reported(self, synth_vocab):
        corpus, _ = generate_synthetic(10, 15, synth_vocab, noise_sd=0.1, seed=6)
        params = init_params(synth_vocab.dim, 8, 4, seed=0)
        result = evaluate(params, corpus, list(range(15)), synth_vocab)
        assert -1.0 <= result["pearson_r"] <= 1.0
        assert len(result["predictions"]) == 15
        for r, r_hat in result["predictions"]:
            assert -1.0 <= r_hat <= 1.0

    def test_no_indices(self, synth_vocab):
        corpus, _ = generate_synthetic(10, 15, synth_vocab, seed=6)
        params = init_params(synth_vocab.dim, 8, 4, seed=0)
        with pytest.raises(ValueError, match="^evaluate needs at least 2 finding indices, got 0$"):
            evaluate(params, corpus, [], synth_vocab)

    def test_one_index_is_refused(self, synth_vocab):
        # Unchecked, it fails in pearson, which names neither evaluate nor the count.
        corpus, _ = generate_synthetic(10, 15, synth_vocab, seed=6)
        params = init_params(synth_vocab.dim, 8, 4, seed=0)
        for indices in ([3], np.array([3])):
            with pytest.raises(ValueError,
                               match="^evaluate needs at least 2 finding indices, got 1$"):
                evaluate(params, corpus, indices, synth_vocab)

    def test_index_array_equals_index_tuple(self, synth_vocab):
        corpus, _ = generate_synthetic(10, 15, synth_vocab, noise_sd=0.1, seed=6)
        split = split_corpus(corpus, 0.8, seed=0)
        params = init_params(synth_vocab.dim, 8, 4, seed=0)
        want = evaluate(params, corpus, split.test_indices, synth_vocab)
        assert len(want["predictions"]) == len(split.test_indices) > 1
        assert evaluate(params, corpus, np.array(split.test_indices), synth_vocab) == want
        with pytest.raises(ValueError, match="^evaluate needs at least 2 finding indices, got 0$"):
            evaluate(params, corpus, np.array([], dtype=np.int64), synth_vocab)

    def test_zero_variance_error(self, tmp_path, synth_vocab):
        from corrnet.corpus import load_corpus
        path = tmp_path / "flat.tsv"
        path.write_text("p1\t2010\tjob\tage\t0.2\np1\t2010\tjob\tincome\t0.2\n")
        corpus = load_corpus(path)
        params = init_params(synth_vocab.dim, 8, 4, seed=0)
        with pytest.raises(DegenerateDataError):
            evaluate(params, corpus, [0, 1], synth_vocab)
