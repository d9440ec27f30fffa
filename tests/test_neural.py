import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrnet import neural
from corrnet.neural import (Ensemble, ModelParams, backward, encode, gradcheck, init_params,
                            load_checkpoint, predict, predict_pair, save_checkpoint,
                            zero_grads)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def random_seq(rng, d, length):
    return [rng.standard_normal(d) for _ in range(length)]


class TestInit:
    def test_determinism(self):
        p1 = init_params(4, 3, 2, seed=1)
        p2 = init_params(4, 3, 2, seed=1)
        for name in p1.weights:
            np.testing.assert_array_equal(p1.weights[name], p2.weights[name])

    def test_biases_zero(self):
        p = init_params(4, 3, 2, seed=1)
        for name in ("b_z", "b_r", "b_c", "head_b1", "head_b2"):
            assert not p.weights[name].any()

    def test_glorot_bounds(self):
        p = init_params(4, 3, 2, seed=7)
        bounds = {
            "w_z": (4, 3), "w_r": (4, 3), "w_c": (4, 3),
            "u_z": (3, 3), "u_r": (3, 3), "u_c": (3, 3),
            "head_w1": (6, 2), "head_w2": (2, 1),
        }
        for name, (fan_in, fan_out) in bounds.items():
            s = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(p.weights[name]) <= s)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            init_params(0, 3, 2)


class TestEncode:
    def test_zero_params_fixed_point(self):
        p = init_params(4, 3, 2, seed=0)
        for name in p.weights:
            p.weights[name][:] = 0.0
        h = encode(random_seq(np.random.default_rng(0), 4, 5), p)
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_recurrence_matters(self):
        rng = np.random.default_rng(3)
        p = init_params(4, 3, 2, seed=3)
        x = rng.standard_normal(4)
        h1 = encode([x], p)
        h2 = encode([x, x], p)
        assert not np.allclose(h1, h2)

    def test_scalar_cell_closed_form(self):
        # d = h = 1 over 2 steps, recomputed with plain scalar arithmetic.
        p = init_params(1, 1, 1, seed=0)
        w = {"w_z": 0.4, "u_z": -0.3, "b_z": 0.1,
             "w_r": 0.2, "u_r": 0.5, "b_r": -0.2,
             "w_c": 0.7, "u_c": -0.6, "b_c": 0.05}
        for name, val in w.items():
            p.weights[name][:] = val
        xs = [0.8, -1.1]
        h = 0.0
        for x in xs:
            z = sigmoid(w["w_z"] * x + w["u_z"] * h + w["b_z"])
            r = sigmoid(w["w_r"] * x + w["u_r"] * h + w["b_r"])
            c = math.tanh(w["w_c"] * x + w["u_c"] * r * h + w["b_c"])
            h = (1 - z) * h + z * c
        got = encode([np.array([x]) for x in xs], p)
        assert got[0] == pytest.approx(h, abs=1e-14)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            encode([], init_params(2, 2, 2))


class TestPredictPair:
    def test_identical_sequences_zero_diff_block(self):
        rng = np.random.default_rng(1)
        p = init_params(4, 3, 2, seed=1)
        s = random_seq(rng, 4, 3)
        trace = predict_pair(s, s, p)
        np.testing.assert_array_equal(trace.combined[3:], np.zeros(3))

    def test_symmetry_bit_identical(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            p = init_params(4, 3, 2, seed=trial)
            a = random_seq(rng, 4, int(rng.integers(1, 6)))
            b = random_seq(rng, 4, int(rng.integers(1, 6)))
            assert predict_pair(a, b, p).r_hat == predict_pair(b, a, p).r_hat

    def test_range(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            p = init_params(3, 2, 2, seed=trial)
            # exaggerate weights to push the head hard
            for name in p.weights:
                p.weights[name] *= 5.0
            a = random_seq(rng, 3, 2)
            b = random_seq(rng, 3, 2)
            r_hat = predict_pair(a, b, p).r_hat
            assert -1.0 <= r_hat <= 1.0


class TestPredict:
    def test_equals_predict_pair_bitwise(self):
        rng = np.random.default_rng(6)
        models = [init_params(4, 3, 2, seed=k) for k in range(3)]
        seqs = [random_seq(rng, 4, int(rng.integers(1, 6))) for _ in range(6)]
        pairs = [(a, b) for a in range(6) for b in range(6) if a != b]
        got = predict(models, seqs, pairs)
        assert got.shape == (len(pairs), len(models))
        for row, (a, b) in zip(got, pairs):
            for value, p in zip(row, models):
                assert value == predict_pair(seqs[a], seqs[b], p).r_hat
                assert value == predict_pair(seqs[b], seqs[a], p).r_hat

    def test_pair_score_independent_of_batch(self):
        rng = np.random.default_rng(7)
        p = init_params(4, 3, 2, seed=7)
        seqs = [random_seq(rng, 4, int(rng.integers(1, 6))) for _ in range(40)]
        pairs = [tuple(int(c) for c in rng.choice(40, size=2, replace=False))
                 for _ in range(200)]
        batch = predict([p], seqs, pairs)
        for k in (0, 57, 199):
            assert predict([p], seqs, [pairs[k]])[0, 0] == batch[k, 0]

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), len_a=st.integers(1, 6),
           len_b=st.integers(1, 6), scale=st.floats(0.1, 20.0))
    def test_symmetric_and_in_range(self, seed, len_a, len_b, scale):
        rng = np.random.default_rng(seed)
        p = init_params(3, 4, 2, seed=seed)
        for w in p.weights.values():
            w *= scale
        seqs = [random_seq(rng, 3, len_a), random_seq(rng, 3, len_b)]
        (ab,), (ba,) = predict([p], seqs, [(0, 1), (1, 0)])
        assert ab == ba
        assert -1.0 <= ab <= 1.0


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(0)
        p = init_params(4, 3, 2, seed=9)
        trace = predict_pair(random_seq(rng, 4, 2), random_seq(rng, 4, 3), p)
        grads = backward(trace, 0.0, p)
        assert all(not g.any() for g in grads.values())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(3):
            p = init_params(4, 3, 2, seed=100 + trial)
            a = random_seq(rng, 4, int(rng.integers(1, 6)))
            b = random_seq(rng, 4, int(rng.integers(1, 6)))
            assert gradcheck(p, a, b) < 1e-4

    def test_shared_encoder_grads_decompose(self):
        # Encoder gradient of the pair equals the sum of each pass's
        # contribution, with the head chain recomputed independently here.
        rng = np.random.default_rng(12)
        p = init_params(4, 3, 2, seed=21)
        a = random_seq(rng, 4, 3)
        b = random_seq(rng, 4, 2)
        trace = predict_pair(a, b, p)
        full = backward(trace, 1.0, p)

        w = p.weights
        da2 = 1.0 - trace.r_hat ** 2
        du1 = w["head_w2"][0] * da2
        da1 = du1 * (1.0 - trace.u1 ** 2)
        d_comb = w["head_w1"].T @ da1
        sign = np.sign(trace.e_a - trace.e_b)
        d_ea = d_comb[:3] + d_comb[3:] * sign
        d_eb = d_comb[:3] - d_comb[3:] * sign

        ga, gb = zero_grads(p), zero_grads(p)
        neural._gru_backward(trace.steps_a, d_ea, w, ga)
        neural._gru_backward(trace.steps_b, d_eb, w, gb)
        for name in ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_c", "u_c", "b_c"):
            np.testing.assert_allclose(full[name], ga[name] + gb[name], atol=1e-14)


def test_checkpoint_round_trip(tmp_path):
    p = init_params(5, 4, 3, seed=13)
    path = tmp_path / "model.npz"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert (q.d, q.h, q.m) == (5, 4, 3)
    assert set(q.weights) == set(p.weights)
    for name in p.weights:
        np.testing.assert_array_equal(p.weights[name], q.weights[name])


def round_trip(model):
    """Save to a suffix-less path and load; the file is written exactly there."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt")
        save_checkpoint(model, path)
        assert os.listdir(tmp) == ["ckpt"]
        return load_checkpoint(path)


def assert_same_weights(p, q):
    assert (q.d, q.h, q.m) == (p.d, p.h, p.m)
    assert q.weights.keys() == p.weights.keys()
    for name, w in p.weights.items():
        assert q.weights[name].dtype == np.float64
        np.testing.assert_array_equal(q.weights[name], w)


dims = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


def random_params(dims, seed):
    """init_params' shapes with every weight, biases too, drawn at random."""
    p, rng = init_params(*dims), np.random.default_rng(seed)
    for w in p.weights.values():
        w[...] = rng.standard_normal(w.shape)
    return p


@settings(max_examples=20, deadline=None)
@given(dims=dims, seed=st.integers(0, 2**32 - 1))
def test_model_checkpoint_round_trip_property(dims, seed):
    p = random_params(dims, seed)
    q = round_trip(p)
    assert isinstance(q, ModelParams)
    assert_same_weights(p, q)


@settings(max_examples=20, deadline=None)
@given(dims=dims, seeds=st.lists(st.integers(0, 2**31 - 1), min_size=2, max_size=4),
       bagging=st.booleans())
def test_ensemble_checkpoint_round_trip_property(dims, seeds, bagging):
    ens = Ensemble([random_params(dims, s) for s in seeds], seeds, bagging)
    loaded = round_trip(ens)
    assert isinstance(loaded, Ensemble)
    assert (loaded.member_seeds, loaded.bagging) == (seeds, bagging)
    for p, q in zip(ens.members, loaded.members, strict=True):
        assert_same_weights(p, q)
    rng = np.random.default_rng(seeds[0])
    seqs = [random_seq(rng, dims[0], int(rng.integers(1, 4))) for _ in range(3)]
    pairs = [(0, 1), (1, 2), (2, 0)]
    np.testing.assert_array_equal(predict(loaded.members, seqs, pairs),
                                  predict(ens.members, seqs, pairs))


@pytest.mark.parametrize("corrupt, message", [
    (lambda w: w.update(__format_version=np.array([2])), "unsupported checkpoint version"),
    (lambda w: w.pop("__dims"), "not a corrnet checkpoint"),
    (lambda w: w.pop("u_c"), r"missing parameters \['u_c'\]"),
    (lambda w: w.update(extra=np.zeros(3)), r"unexpected \['extra'\]"),
    (lambda w: w.update(head_w1=np.zeros((3, 7))), "head_w1 has shape"),
    (lambda w: w.update(__dims=np.array([4, 4, 3])), "w_z has shape"),
])
def test_checkpoint_mismatch_names_file(tmp_path, corrupt, message):
    p = init_params(5, 4, 3, seed=13)
    stored = {"__format_version": np.array([1]), "__dims": np.array([5, 4, 3]), **p.weights}
    corrupt(stored)
    path = tmp_path / "bad.npz"
    np.savez(path, **stored)
    with pytest.raises(ValueError, match=message) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def test_assert_finite():
    p = init_params(2, 2, 2, seed=0)
    p.weights["w_z"][0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        p.assert_finite()
