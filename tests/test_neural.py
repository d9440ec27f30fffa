import math
import os
import pickle
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import apply_byte_edits, byte_edits
from corrnet import neural
from corrnet.corpus import generate_synthetic
from corrnet.embeddings import embed_sequence, random_table
from corrnet.ensemble import qbc_search
from corrnet.infill import build_table
from corrnet.neural import (Ensemble, ModelParams, backward, gradcheck, init_params,
                            load_checkpoint, predict, predict_pair, save_checkpoint,
                            zero_grads)
from corrnet.textnorm import MAX_TOKENS
from corrnet.training import AdamState, TrainConfig, adam_step, evaluate


DATA = Path(__file__).parent / "data"


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


STACKS = {"w_in": ("w_z", "w_r", "w_c"), "b_in": ("b_z", "b_r", "b_c"), "u_zr": ("u_z", "u_r")}


def assert_stacked(p):
    """Each of p's GRU weights is its own row block of one stacked kernel."""
    for stack, names in STACKS.items():
        kernel = getattr(p, stack)
        assert kernel.dtype == np.float64 and kernel.flags.c_contiguous
        start = 0
        for name in names:
            w, block = p.weights[name], kernel[start:start + len(p.weights[name])]
            assert (w.shape, w.strides, w.ctypes.data) == (block.shape, block.strides,
                                                           block.ctypes.data), name
            start += len(w)
        assert start == len(kernel)


def spec_order_draws(d, h, m, seed):
    """init_params' values drawn here in its order (the matrices, then the
    biases), as plain arrays; the names and shapes are listed here, not read
    from neural, so they check its table."""
    rng = np.random.default_rng(seed)
    matrices = [("w_z", (h, d)), ("u_z", (h, h)), ("w_r", (h, d)), ("u_r", (h, h)),
                ("w_c", (h, d)), ("u_c", (h, h)), ("head_w1", (m, 2 * h)), ("head_w2", (1, m))]
    weights = {}
    for name, shape in matrices:
        s = np.sqrt(6.0 / sum(shape))
        weights[name] = rng.uniform(-s, s, size=shape)
    biases = [("b_z", h), ("b_r", h), ("b_c", h), ("head_b1", m), ("head_b2", 1)]
    weights.update((name, np.zeros(size)) for name, size in biases)
    return weights


class TestStackedKernels:
    def test_init_params_draws_in_spec_order_into_the_stacks(self):
        p = init_params(5, 4, 3, seed=17)
        assert_stacked(p)
        want = spec_order_draws(5, 4, 3, 17)
        assert list(p.weights) == list(want)
        for name, w in want.items():
            assert p.weights[name].tobytes() == w.tobytes(), name

    def test_copy_and_pickle_own_their_stacks(self):
        p = perturbed_params(5, 4, 3, seed=2)
        for q in (p.copy(), pickle.loads(pickle.dumps(p))):
            assert_stacked(q)
            assert_same_weights(p, q)
            for stack in STACKS:
                assert not np.shares_memory(getattr(q, stack), getattr(p, stack))

    def test_checkpoints_load_into_stacks_with_unchanged_bytes(self, tmp_path):
        p = perturbed_params(5, 4, 3, seed=3)
        ens = Ensemble([p, perturbed_params(5, 4, 3, seed=4)], [3, 4], True)
        for model in (p, ens):
            loaded = round_trip(model)
            members = loaded.members if isinstance(model, Ensemble) else [loaded]
            for q in members:
                assert_stacked(q)
            for i, q in enumerate(members):
                for other in members[i + 1:]:
                    assert not np.shares_memory(q.w_in, other.w_in)
        # The file holds the weights raveled in spec order as one plain array.
        save_checkpoint(p, tmp_path / "stacked")
        params = np.concatenate([p.weights[k].ravel() for k in spec_order_draws(1, 1, 1, 0)])
        with open(tmp_path / "plain", "wb") as fh:
            np.savez(fh, __format_version=np.array([2]), __dims=np.array([5, 4, 3]), params=params)
        assert (tmp_path / "stacked").read_bytes() == (tmp_path / "plain").read_bytes()

    def test_adam_step_updates_the_stacks_in_place(self):
        p = init_params(4, 3, 2, seed=5)
        kernels = {stack: getattr(p, stack) for stack in STACKS}
        before = p.w_in.copy()
        grads = {k: np.full(w.shape, 0.1) for k, w in p.weights.items()}
        adam_step(p, grads, AdamState.for_params(p), TrainConfig())
        assert_stacked(p)
        assert all(getattr(p, stack) is kernel for stack, kernel in kernels.items())
        assert not np.array_equal(p.w_in, before)

    def test_rebinding_a_weight_is_refused(self):
        p = init_params(4, 3, 2, seed=6)
        want = {k: v.copy() for k, v in p.weights.items()}
        for rebind in (lambda w: w.__setitem__("w_z", np.zeros((3, 4))),
                       lambda w: w.__setitem__("u_r", w["u_r"].copy()),
                       lambda w: w.__setitem__("extra", np.zeros(3)),
                       lambda w: w.__delitem__("b_c"),
                       lambda w: w.update(w_r=np.zeros((3, 4))),
                       lambda w: w.pop("u_z"),
                       lambda w: w.setdefault("extra", np.zeros(3)),
                       lambda w: w.clear()):
            with pytest.raises(TypeError):
                rebind(p.weights)
        assert_stacked(p)
        assert_same_weights(ModelParams(4, 3, 2, want), p)

    def test_in_place_updates_reach_the_forward(self):
        # w[k] -= g binds w[k] to itself; the stacks, and so every forward,
        # see it, as they see a write through a slice.
        rng = np.random.default_rng(7)
        a, b = random_seq(rng, 4, 3), random_seq(rng, 4, 5)
        p = init_params(4, 3, 2, seed=7)
        p.weights["u_r"] -= 0.5
        p.weights["w_c"][1:] = 2.0
        p.weights["b_z"] += 0.25
        assert_stacked(p)
        fresh = ModelParams(4, 3, 2, {k: v.copy() for k, v in p.weights.items()})
        assert predict_pair(a, b, p).r_hat == predict_pair(a, b, fresh).r_hat
        assert predict([p], [a, b], [(0, 1)]).tobytes() == \
            predict([fresh], [a, b], [(0, 1)]).tobytes()
        assert predict_pair(a, b, p).r_hat != predict_pair(a, b, init_params(4, 3, 2, 7)).r_hat


class TestEncode:
    def test_zero_params_fixed_point(self):
        p = init_params(4, 3, 2, seed=0)
        for name in p.weights:
            p.weights[name][:] = 0.0
        seq = random_seq(np.random.default_rng(0), 4, 5)
        h = predict_pair(seq, seq, p).e_a
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_recurrence_matters(self):
        rng = np.random.default_rng(3)
        p = init_params(4, 3, 2, seed=3)
        x = rng.standard_normal(4)
        h1 = predict_pair([x], [x], p).e_a
        h2 = predict_pair([x, x], [x, x], p).e_a
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
        seq = [np.array([x]) for x in xs]
        got = predict_pair(seq, seq, p).e_a
        assert got[0] == pytest.approx(h, abs=1e-14)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            predict_pair([], [], init_params(2, 2, 2))


def product(w, v):
    """w @ v as neural computes every product of a row with a weight: v alone
    in a zero-padded group of neural._GROUP rows, times a view of w's
    transpose. (On OpenBLAS a contiguous copy of the transpose gives other
    bits, as does a call of another row count.)"""
    group = np.zeros((1, neural._GROUP, len(v)))
    group[0, 0] = v
    return np.matmul(group, w.T)[0, 0]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 300), n=st.integers(1, 300), groups=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
# Every product of the model at h 64 and m 32: the input projection for d 8
# and d 300, the two recurrent products and the two head layers; then a wide
# output, and one-column outputs.
@example(k=8, n=192, groups=3, seed=0)
@example(k=300, n=192, groups=3, seed=1)
@example(k=64, n=128, groups=3, seed=2)
@example(k=64, n=64, groups=3, seed=3)
@example(k=128, n=32, groups=3, seed=4)
@example(k=32, n=1, groups=3, seed=5)
@example(k=64, n=300, groups=3, seed=6)
@example(k=300, n=1, groups=3, seed=7)
@example(k=1, n=1, groups=3, seed=8)
def test_a_rows_product_bits_do_not_depend_on_its_group(k, n, groups, seed):
    # The BLAS fact the forward rests on: when every call for a weight takes
    # its rows as (g, _GROUP, K) groups, a row gets the bits it gets alone in
    # a zero-padded group, at every position and beside any other rows. If
    # this fails on some host, predict and predict_pair can disagree there.
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, k))
    rows = rng.standard_normal((groups, neural._GROUP, k))
    got = np.matmul(rows, w.T)
    for g in range(groups):
        for i in range(neural._GROUP):
            assert got[g, i].tobytes() == product(w, rows[g, i]).tobytes(), (g, i)
    # _rows pads any number of rows to whole groups, and takes none.
    assert neural._rows(np.empty((0, k)), w).shape == (0, n)
    x = rows.reshape(-1, k)[:int(rng.integers(1, groups * neural._GROUP + 1))]
    got = neural._rows(x, w)
    assert got.shape == (len(x), n)
    for i, row in enumerate(x):
        assert got[i].tobytes() == product(w, row).tobytes(), i


def test_every_forward_product_takes_whole_groups(monkeypatch):
    # Each np.matmul that predict, predict_pair, _score and _project make
    # gets its rows as (g, _GROUP, K) groups: one call shape per weight.
    shapes = {}

    class Spy:
        caller = None

        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, *args, **kwargs):
            shapes.setdefault(self.caller, []).append(np.shape(a))
            return np.matmul(a, *args, **kwargs)

    spy = Spy()
    monkeypatch.setattr(neural, "np", spy)
    rng = np.random.default_rng(12)
    models = [perturbed_params(5, 6, 3, seed=k) for k in range(2)]
    seqs = [random_seq(rng, 5, int(k)) for k in rng.integers(1, 9, size=11)]
    pairs = [(i, (3 * i + 1) % 11) for i in range(11)]
    e = rng.standard_normal((2, 7, 6))
    for caller, run in [
            ("predict_pair", lambda: predict_pair(seqs[0], seqs[1], models[0])),
            ("predict", lambda: predict(models, seqs, pairs)),
            ("_score", lambda: neural._score(e[0], e[1], models[0].weights)),
            ("_project", lambda: neural._project(rng.standard_normal((5, 5)), models[0].w_in,
                                                 models[0].b_in))]:
        spy.caller = caller
        run()
    assert shapes.keys() == {"predict_pair", "predict", "_score", "_project"}
    for caller, seen in shapes.items():
        assert all(len(s) == 3 and s[-2] == neural._GROUP for s in seen), (caller, seen)


def reference_gru(seq, w):
    """One sequence's GRU pass, step by step: products with the stacked input
    kernel, one per step, and with the stacked recurrent kernels."""
    x = np.asarray(seq, dtype=np.float64)
    n = len(w["b_z"])
    w_in, b_in = (np.concatenate([w["w_z"], w["w_r"], w["w_c"]]),
                  np.concatenate([w["b_z"], w["b_r"], w["b_c"]]))
    a = np.array([product(w_in, x_t) + b_in for x_t in x])
    a_zr, a_c = a[:, :2 * n], a[:, 2 * n:]
    u_zr, u_c = np.concatenate([w["u_z"], w["u_r"]]), w["u_c"]
    h, zr, c = np.zeros((len(x) + 1, n)), np.empty((len(x), 2 * n)), np.empty((len(x), n))
    for t in range(len(x)):
        h_t, zr_t, c_t = h[t], zr[t], c[t]
        zr_t[:] = 0.5 * (1.0 + np.tanh(0.5 * (a_zr[t] + product(u_zr, h_t))))
        np.tanh(a_c[t] + product(u_c, zr_t[n:] * h_t), out=c_t)
        h[t + 1] = h_t + zr_t[:n] * (c_t - h_t)
    return x, h, zr, c


def reference_pair(seq_a, seq_b, w):
    """Each sequence's reference_gru pass, then the head on the final states
    with one product per layer."""
    steps_a, steps_b = reference_gru(seq_a, w), reference_gru(seq_b, w)
    e_a, e_b = steps_a[1][-1], steps_b[1][-1]
    combined = np.concatenate([e_a + e_b, np.abs(e_a - e_b)])
    u1 = np.tanh(product(w["head_w1"], combined) + w["head_b1"])
    r_hat = float(np.tanh(product(w["head_w2"], u1) + w["head_b2"])[0])
    return steps_a, steps_b, e_a, e_b, combined, u1, r_hat


def traced_steps(trace):
    """a's and b's steps (x, h, zr, c) in predict_pair's trace, sliced from its
    block by length and row."""
    return [(trace.x[:k, i], trace.hs[:k + 1, i], trace.zrs[:k, i], trace.cs[:k, i])
            for k, i in zip((len(trace.steps_a), len(trace.steps_b)), trace.rows)]


def perturbed_params(d, h, m, seed):
    """init_params' Glorot weights, every entry and bias moved by a draw scaled
    by fan-in, so that wide inputs do not saturate every gate to 0 or 1."""
    p, rng = init_params(d, h, m, seed=seed), np.random.default_rng(seed)
    for w in p.weights.values():
        w += 0.5 * rng.standard_normal(w.shape) / np.sqrt(w.shape[-1])
    return p


def reference_traced_block(a, lengths, w):
    """The states, gates and candidates of a block sorted longest first, one
    row and one step at a time, with the stacked recurrent kernels; zero at
    every padded step."""
    n = len(w["b_z"])
    u_zr, u_c = np.concatenate([w["u_z"], w["u_r"]]), w["u_c"]
    size, rows = a.shape[:2]
    hs, zrs = np.zeros((size + 1, rows, n)), np.zeros((size, rows, 2 * n))
    cs = np.zeros((size, rows, n))
    for i, length in enumerate(lengths):
        for t in range(length):
            h_t, a_t = hs[t, i], a[t, i]
            zr = 0.5 * (1.0 + np.tanh(0.5 * (a_t[:2 * n] + product(u_zr, h_t))))
            c = np.tanh(a_t[2 * n:] + product(u_c, zr[n:] * h_t))
            zrs[t, i], cs[t, i], hs[t + 1, i] = zr, c, h_t + zr[:n] * (c - h_t)
    return hs, zrs, cs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([*range(1, 13), 300]),
       h=st.integers(1, 12), len_a=st.integers(1, MAX_TOKENS), len_b=st.integers(1, MAX_TOKENS))
@example(seed=0, d=300, h=64, len_a=MAX_TOKENS, len_b=1)
@example(seed=1, d=8, h=64, len_a=7, len_b=7)
@example(seed=2, d=1, h=1, len_a=1, len_b=1)
def test_traced_block_equals_per_step_reference_bitwise(seed, d, h, len_a, len_b):
    # A 2-row block as predict_pair runs it; its padded projections are nan,
    # so a step that read one would show.
    p = perturbed_params(d, h, 1, seed)
    rng = np.random.default_rng(seed)
    lengths = sorted((len_a, len_b), reverse=True)
    a = np.full((lengths[0], 2, 3 * h), np.nan)
    for i, length in enumerate(lengths):
        a[:length, i] = neural._project(rng.standard_normal((length, d)), p.w_in, p.b_in)
    hs, zrs, cs = neural._encode_block(a, lengths, p.u_zr, p.weights["u_c"], trace=True)
    for got, want in zip((hs, zrs, cs), reference_traced_block(a, lengths, p.weights)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # The untraced block runs the same steps into its own state.
    final = neural._encode_block(a, lengths, p.u_zr, p.weights["u_c"])
    for i, length in enumerate(lengths):
        assert final[i].tobytes() == hs[length, i].tobytes()


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

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), h=st.integers(1, 12),
           m=st.integers(1, 6), len_a=st.integers(1, MAX_TOKENS),
           len_b=st.integers(1, MAX_TOKENS), same=st.booleans())
    @example(seed=0, d=300, h=64, m=32, len_a=MAX_TOKENS, len_b=7, same=False)
    @example(seed=1, d=5, h=4, m=3, len_a=9, len_b=9, same=False)
    @example(seed=2, d=5, h=4, m=3, len_a=9, len_b=9, same=True)
    def test_trace_equals_per_sequence_reference_bitwise(self, seed, d, h, m, len_a, len_b,
                                                         same):
        p = perturbed_params(d, h, m, seed)
        rng = np.random.default_rng(seed)
        a = random_seq(rng, d, len_a)
        b = a if same else random_seq(rng, d, len_b)
        for x, y in ((a, b), (b, a)):
            trace = predict_pair(x, y, p)
            steps_a, steps_b, e_a, e_b, combined, u1, r_hat = reference_pair(x, y, p.weights)
            for got, want in zip((trace.steps_a, trace.steps_b), (steps_a, steps_b)):
                assert np.shares_memory(got, trace.x)
                assert got.shape == want[0].shape and got.tobytes() == want[0].tobytes()
            for got, want in zip(traced_steps(trace), (steps_a, steps_b)):
                for field, array in zip(got, want):
                    assert field.shape == array.shape
                    assert field.tobytes() == array.tobytes()
            for got, want in ((trace.e_a, e_a), (trace.e_b, e_b),
                              (trace.combined, combined), (trace.u1, u1)):
                assert got.tobytes() == want.tobytes()
            assert trace.r_hat == r_hat
        assert predict_pair(a, a, p).e_a.tobytes() == reference_gru(a, p.weights)[1][-1].tobytes()


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

    @staticmethod
    def assert_blocks_equal_predict_pair(seed, d, h, m, n, n_models):
        # n correlates of lengths 1 to MAX_TOKENS; pairs come in both orders
        # and repeated, and span at least three head blocks with a short last
        # one, as the correlates span three encoder blocks.
        block = neural._BLOCK
        assert n > 3 * block and n % block
        rng = np.random.default_rng(seed)
        models = [perturbed_params(d, h, m, seed + k) for k in range(n_models)]
        lengths = rng.integers(1, MAX_TOKENS + 1, size=n)
        lengths[:2] = 1, MAX_TOKENS
        seqs = [random_seq(rng, d, int(length)) for length in lengths]
        pairs = [(i, int(j)) for i, j in enumerate(rng.permutation(n))]
        pairs += [(b, a) for a, b in pairs[:20]] + pairs[5:15]
        if len(pairs) % block == 0:
            pairs.append(pairs[0])
        got = predict(models, seqs, pairs)
        for row, (a, b) in zip(got, pairs):
            for value, p in zip(row, models):
                assert value == predict_pair(seqs[a], seqs[b], p).r_hat

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), h=st.integers(1, 12),
           m=st.integers(1, 6), block=st.integers(2, 24), short=st.integers(1, 23),
           n_models=st.integers(1, 2))
    @example(seed=0, d=300, h=64, m=32, block=23, short=1, n_models=1)
    def test_blocks_equal_predict_pair_bitwise(self, seed, d, h, m, block, short, n_models):
        # Blocks of a narrower width, so that a call spans three or more.
        n = 3 * block + 1 + (short - 1) % (block - 1)
        with mock.patch.object(neural, "_BLOCK", block):
            self.assert_blocks_equal_predict_pair(seed, d, h, m, n, n_models)

    def test_blocks_equal_predict_pair_bitwise_at_shipped_width(self):
        self.assert_blocks_equal_predict_pair(3, 5, 6, 4, 3 * neural._BLOCK + 17, 2)

    def test_blocks_hold_at_most_block_rows(self, monkeypatch):
        # Each encoder block gathers at most _BLOCK rows' projections and each
        # head block scores at most _BLOCK pairs: the bound on predict's memory.
        block, encoded, scored = neural._BLOCK, [], []
        encode_block, score = neural._encode_block, neural._score
        monkeypatch.setattr(neural, "_encode_block",
                            lambda a, *args: encoded.append(a.shape[1]) or encode_block(a, *args))
        monkeypatch.setattr(neural, "_score",
                            lambda e_a, *args: scored.append(len(e_a)) or score(e_a, *args))
        rng = np.random.default_rng(4)
        n, n_pairs = 2 * block + 5, 3 * block + 7
        seqs = [random_seq(rng, 3, int(k)) for k in rng.integers(1, MAX_TOKENS + 1, size=n)]
        pairs = [(i % n, (7 * i + 1) % n) for i in range(n_pairs)]
        predict([init_params(3, 2, 2, seed=k) for k in range(2)], seqs, pairs)
        assert encoded == [block, block, 5] * 2
        assert scored == [block, block, block, 7] * 2

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), h=st.integers(1, 12),
           m=st.integers(1, 6), n_tokens=st.integers(1, 6), n=st.integers(8, 60))
    @example(seed=0, d=300, h=64, m=32, n_tokens=6, n=60)
    @example(seed=1, d=300, h=64, m=32, n_tokens=1, n=8)
    def test_shared_tokens_equal_predict_pair_bitwise(self, seed, d, h, m, n_tokens, n):
        # Correlates over a small vocabulary plus two out-of-vocabulary words:
        # tokens repeat within and across correlates, and both OOV words get
        # the one table.mean_vector, so predict projects far fewer vectors
        # than the sequences hold.
        rng = np.random.default_rng(seed)
        table = random_table(n_tokens, d, seed=seed)
        words = list(table.vectors) + ["oov-a", "oov-b"]
        seqs = [embed_sequence([words[i] for i in rng.integers(0, len(words), size=length)],
                               table)
                for length in rng.integers(1, MAX_TOKENS + 1, size=n)]
        assert len({id(v) for seq in seqs for v in seq}) < sum(map(len, seqs))
        models = [perturbed_params(d, h, m, seed + k) for k in range(2)]
        pairs = [tuple(int(c) for c in rng.integers(0, n, size=2)) for _ in range(2 * n)]
        got = predict(models, seqs, pairs)
        for row, (a, b) in zip(got, pairs):
            for value, p in zip(row, models):
                assert value == predict_pair(seqs[a], seqs[b], p).r_hat
                assert value == predict_pair(seqs[b], seqs[a], p).r_hat

    def test_projects_each_distinct_vector_once_per_model(self, monkeypatch):
        table = random_table(5, 4, seed=11)
        words = list(table.vectors)
        seqs = [embed_sequence(words[:3] + ["oov"], table),
                embed_sequence([words[1], "oov", words[1], "unseen"], table),
                embed_sequence(words[3:], table),
                embed_sequence([words[0]], table)]
        # Equal values in a different object are projected as another vector.
        seqs.append([v.copy() for v in seqs[3]])
        pairs = [(0, 1), (1, 0), (4, 1), (0, 4), (1, 1)]  # seqs[2] is named in no pair
        projected = []
        project = neural._project
        monkeypatch.setattr(neural, "_project",
                            lambda x, *kernel: projected.append(len(x)) or project(x, *kernel))
        predict([init_params(4, 3, 2, seed=k) for k in range(3)], seqs, pairs)
        # words[0], words[1], words[2], the shared mean vector, and the copy.
        assert projected == [5] * 3

    def test_no_pairs(self):
        models = [init_params(3, 4, 2, seed=k) for k in range(3)]
        for pairs in ([], np.empty((0, 2), dtype=np.int64)):
            assert predict(models, [], pairs).shape == (0, 3)

    def test_pair_array_equals_pair_list_bitwise(self):
        # Correlate ids that are not 0..n-1, named in both orders, repeated
        # and paired with themselves.
        rng = np.random.default_rng(9)
        models = [init_params(4, 3, 2, seed=k) for k in range(2)]
        seqs = {c: random_seq(rng, 4, int(rng.integers(1, 6))) for c in (42, 3, 20, 7, 11)}
        ids = list(seqs)
        pairs = [(ids[i], ids[j]) for i, j in rng.integers(0, len(ids), size=(40, 2)).tolist()]
        got = predict(models, seqs, pairs)
        assert got.shape == (40, 2)
        for array in (np.array(pairs), np.array(pairs, dtype=np.int32)):
            assert predict(models, seqs, array).tobytes() == got.tobytes()
        with pytest.raises(ValueError):  # 40 ids are not 20 pairs
            predict(models, seqs, np.array(pairs)[:20].ravel())

    def test_empty_sequence_rejected_before_any_work(self, monkeypatch):
        rng = np.random.default_rng(8)
        seqs = [[]] + [random_seq(rng, 3, 4) for _ in range(40)]
        calls = []
        monkeypatch.setattr(neural, "_encode_block", lambda *args: calls.append(args))
        for pairs in ([(0, 1)], [(k, k + 1) for k in range(1, 40)] + [(40, 0)]):
            with pytest.raises(ValueError, match="^cannot encode an empty sequence$"):
                predict([init_params(3, 4, 2)], seqs, pairs)
        with pytest.raises(ValueError, match="^cannot encode an empty sequence$"):
            predict_pair([], [], init_params(3, 4, 2))
        assert calls == []

    @pytest.mark.parametrize("run", [
        lambda m, seqs, corpus, table: predict([m], seqs, [(0, 1)]),
        lambda m, seqs, corpus, table: predict([m], seqs, [(1, 2), (3, 0)]),
        lambda m, seqs, corpus, table: predict_pair(seqs[1], seqs[0], m),
        lambda m, seqs, corpus, table: evaluate(m, corpus, [0, 1, 2], table),
        lambda m, seqs, corpus, table: qbc_search(
            Ensemble([m, init_params(3, 4, 2, seed=1)], [0, 1], False), corpus, table, 10, 0),
        lambda m, seqs, corpus, table: build_table(corpus, sorted(corpus.paper_ids), m, table),
    ])
    def test_vector_width_mismatch_rejected_before_any_work(self, monkeypatch, run):
        # A d=3 model given 5-dim vectors: seqs[0] is 5 wide, the rest 3 wide.
        rng = np.random.default_rng(9)
        table = random_table(50, 5, seed=9)
        corpus, _ = generate_synthetic(12, 20, table, seed=9)
        seqs = [random_seq(rng, 5, 4)] + [random_seq(rng, 3, 4) for _ in range(3)]
        calls = []
        monkeypatch.setattr(neural, "_encode_block", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="^cannot encode vectors of width 5 with a model "
                                             "of input width d=3$"):
            run(init_params(3, 4, 2), seqs, corpus, table)
        assert calls == []

    def test_ragged_sequence_rejected_before_any_work(self, monkeypatch):
        rng = np.random.default_rng(10)
        ragged = random_seq(rng, 3, 2) + random_seq(rng, 5, 1) + random_seq(rng, 2, 1)
        calls = []
        monkeypatch.setattr(neural, "_encode_block", lambda *args: calls.append(args))
        message = "^cannot encode vectors of width 2/3/5 with a model of input width d=3$"
        for run in (lambda p: predict([p], [random_seq(rng, 3, 3), ragged], [(0, 1)]),
                    lambda p: predict_pair(random_seq(rng, 3, 3), ragged, p),
                    lambda p: predict_pair(ragged, ragged, p).e_a):
            with pytest.raises(ValueError, match=message):
                run(init_params(3, 4, 2))
        assert calls == []

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


def reference_seq_grads(x, h, zr, c, dh, w):
    """One sequence's encoder gradients from its forward steps (x, h, zr, c)
    and the gradient dh of its final state, one step at a time, with one
    outer product per weight and step."""
    n = len(w["b_z"])
    grads = {g + k: np.zeros(w[g + k].shape) for g in ("w_", "u_", "b_") for k in "zrc"}
    for t in reversed(range(len(x))):
        h_t, c_t = h[t], c[t]
        z, r = zr[t, :n], zr[t, n:]
        da_z = dh * (c_t - h_t) * z * (1.0 - z)
        da_c = dh * z * (1.0 - c_t ** 2)
        uc_dac = w["u_c"].T @ da_c
        da_r = uc_dac * h_t * r * (1.0 - r)
        for g, da, h_in in (("z", da_z, h_t), ("r", da_r, h_t), ("c", da_c, r * h_t)):
            grads["w_" + g] += np.outer(da, x[t])
            grads["u_" + g] += np.outer(da, h_in)
            grads["b_" + g] += da
        dh = dh * (1.0 - z) + w["u_z"].T @ da_z + w["u_r"].T @ da_r + uc_dac * r
    return grads


def reference_grads(trace, upstream, params):
    """backward's gradients from the same forward trace: the head by hand,
    then each sequence's reference_seq_grads."""
    w, n = params.weights, params.h
    grads = zero_grads(params)
    da2 = upstream * (1.0 - trace.r_hat ** 2)
    grads["head_w2"][0] = da2 * trace.u1
    grads["head_b2"][0] = da2
    da1 = w["head_w2"][0] * da2 * (1.0 - trace.u1 ** 2)
    grads["head_w1"] += np.outer(da1, trace.combined)
    grads["head_b1"] += da1
    d_comb = w["head_w1"].T @ da1
    sign = np.sign(trace.e_a - trace.e_b)
    for steps, dh in zip(traced_steps(trace), (d_comb[:n] + d_comb[n:] * sign,
                                               d_comb[:n] - d_comb[n:] * sign)):
        for name, g in reference_seq_grads(*steps, dh, w).items():
            grads[name] += g
    return grads


class TestBackward:
    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 8), h=st.integers(1, 8), m=st.integers(1, 8),
           len_a=st.integers(1, 8), len_b=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_step_reference(self, d, h, m, len_a, len_b, seed):
        p = random_params((d, h, m), seed)
        rng = np.random.default_rng(seed)
        a, b = random_seq(rng, d, len_a), random_seq(rng, d, len_b)
        upstream = float(rng.uniform(-2.0, 2.0))
        trace = predict_pair(a, b, p)
        got, want = backward(trace, upstream, p), reference_grads(trace, upstream, p)
        # Relative to the largest entry: a sum over steps can cancel to far
        # below its terms, and then so does its own relative accuracy.
        scale = max(np.abs(g).max() for g in want.values())
        for name, g in want.items():
            assert np.abs(got[name] - g).max() <= 1e-12 * scale, name

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

        sa, sb = traced_steps(trace)
        ga = reference_seq_grads(*sa, d_ea, w)
        gb = reference_seq_grads(*sb, d_eb, w)
        for name in ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_c", "u_c", "b_c"):
            np.testing.assert_allclose(full[name], ga[name] + gb[name], atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 8), h=st.integers(1, 8),
           lengths=st.lists(st.integers(1, 8), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    @example(d=300, h=64, lengths=[8, 3, 5], seed=0)
    @example(d=300, h=64, lengths=[1, 1], seed=1)
    @example(d=300, h=64, lengths=[1, 8], seed=2)
    @example(d=3, h=2, lengths=[1, 1], seed=3)
    @example(d=3, h=2, lengths=[1, 8], seed=4)
    def test_block_equals_sum_of_per_sequence_references(self, d, h, lengths, seed):
        # Rows in any order, each zero past its own length, as predict_pair
        # leaves its block.
        w = perturbed_params(d, h, 1, seed).weights
        rng = np.random.default_rng(seed)
        size, n_rows = max(lengths), len(lengths)
        x, hs = np.zeros((size, n_rows, d)), np.zeros((size + 1, n_rows, h))
        zrs, cs = np.zeros((size, n_rows, 2 * h)), np.zeros((size, n_rows, h))
        d_final = rng.standard_normal((n_rows, h))
        want = {}
        for i, length in enumerate(lengths):
            steps = reference_gru(random_seq(rng, d, length), w)
            for block, array in zip((x, hs, zrs, cs), steps):
                block[:len(array), i] = array
            for name, g in reference_seq_grads(*steps, d_final[i], w).items():
                want[name] = want.get(name, 0.0) + g
        d_in, d_zr, d_uc, db = neural._block_backward(
            x, hs, zrs, cs, d_final, np.concatenate([w["u_z"], w["u_r"]]), w["u_c"])
        got = {"u_z": d_zr[:h], "u_r": d_zr[h:], "u_c": d_uc}
        for k, gate in enumerate("zrc"):
            got["w_" + gate], got["b_" + gate] = d_in[k * h:(k + 1) * h], db[k * h:(k + 1) * h]
        scale = max(np.abs(g).max() for g in want.values())
        for name, g in want.items():
            assert got[name].shape == g.shape, name
            assert np.abs(got[name] - g).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("len_a, len_b", [(1, 1), (3, 5), (6, 2), (4, 4)])
    def test_returns_fresh_arrays_of_every_parameter(self, len_a, len_b):
        # train adds these arrays into its batch sum: one that shared memory
        # with another gradient, a weight or the trace would corrupt training
        # without any error.
        rng = np.random.default_rng(len_a * 10 + len_b)
        p = init_params(4, 3, 2, seed=5)
        trace = predict_pair(random_seq(rng, 4, len_a), random_seq(rng, 4, len_b), p)
        traced = [trace.x, trace.hs, trace.zrs, trace.cs, trace.e_a, trace.e_b,
                  trace.combined, trace.u1, p.u_zr]
        before = [a.tobytes() for a in traced]
        grads = backward(trace, 0.7, p)
        assert grads.keys() == p.weights.keys()
        for name, g in grads.items():
            assert g.shape == p.weights[name].shape, name
        arrays = list(grads.values())
        for i, g in enumerate(arrays):
            for other in arrays[i + 1:] + traced + list(p.weights.values()):
                assert not np.shares_memory(g, other)
        assert [a.tobytes() for a in traced] == before


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


def assert_bitwise_weights(p, arrays):
    """Every weight of p has the bytes of arrays[name] (float64 either way)."""
    assert p.weights.keys() == arrays.keys()
    for name, w in p.weights.items():
        assert (w.dtype, w.shape, w.tobytes()) == (np.float64, arrays[name].shape,
                                                   arrays[name].tobytes()), name


def extreme_params(dims, seed):
    """random_params with signed zeros, subnormals and the largest floats mixed in."""
    p, rng = random_params(dims, seed), np.random.default_rng(seed)
    extremes = [-0.0, 5e-324, -2.2e-308, np.finfo(float).max]
    for w in p.weights.values():
        w.flat[rng.integers(0, w.size)] = rng.choice(extremes)
    return p


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    p = extreme_params((5, 4, 3), 21)
    assert_bitwise_weights(round_trip(p), p.weights)
    ens = Ensemble([extreme_params((5, 4, 3), s) for s in (22, 23, 24)], [22, 23, 24], True)
    loaded = round_trip(ens)
    assert (loaded.member_seeds, loaded.bagging) == ([22, 23, 24], True)
    for p, q in zip(ens.members, loaded.members, strict=True):
        assert_bitwise_weights(q, p.weights)


@pytest.mark.parametrize("fixture", ["format1_model.npz", "format1_ensemble.npz"])
def test_format1_fixture_loads_its_arrays_and_saves_as_format2(tmp_path, fixture):
    # The fixtures were written by the format-1 save_checkpoint (d 4, h 3, m 2).
    with np.load(DATA / fixture) as data:
        raw = dict(data)
    assert raw["__format_version"].tolist() == [1]
    named = {k: v for k, v in raw.items() if not k.startswith("__")}

    def assert_stored(model):
        if "__seeds" not in raw:
            assert_bitwise_weights(model, named)
            return
        assert (model.member_seeds, model.bagging) == (raw["__seeds"].tolist(),
                                                       bool(raw["__bagging"]))
        for k, member in enumerate(model.members):
            assert_bitwise_weights(member, {n: w[k] for n, w in named.items()})

    model = load_checkpoint(DATA / fixture)
    assert_stored(model)
    path = tmp_path / fixture
    save_checkpoint(model, path)
    with np.load(path) as data:
        assert data["__format_version"].tolist() == [2]
        assert "params" in data.files and "u_c" not in data.files
    assert_stored(load_checkpoint(path))


@pytest.mark.parametrize("corrupt, message", [
    (lambda w: w.update(__format_version=np.array([3])), "unsupported checkpoint version"),
    (lambda w: w.pop("__dims"), "not a corrnet checkpoint"),
    (lambda w: w.pop("u_c"), r"missing parameters \['u_c'\]"),
    (lambda w: w.update(extra=np.zeros(3)), r"unexpected \['extra'\]"),
    (lambda w: w.update(head_w1=np.zeros((3, 7))), "head_w1 has shape"),
    (lambda w: w.update(__dims=np.array([4, 4, 3])), "w_z has shape"),
])
def test_checkpoint_mismatch_names_file(tmp_path, corrupt, message):
    # A format-1 file: each weight is its own array.
    p = init_params(5, 4, 3, seed=13)
    stored = {"__format_version": np.array([1]), "__dims": np.array([5, 4, 3]), **p.weights}
    corrupt(stored)
    path = tmp_path / "bad.npz"
    np.savez(path, **stored)
    with pytest.raises(ValueError, match=message) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("ensemble", [False, True])
@pytest.mark.parametrize("cast", [lambda w: w + 1j, lambda w: w > 0,
                                  lambda w: (w * 9).astype(np.int64)],
                         ids=["complex", "bool", "int64"])
def test_checkpoint_with_non_float_weights_names_file(tmp_path, ensemble, cast):
    # A cast to float64 would drop the imaginary part, or read booleans and
    # integers as weights, so any non-floating dtype is refused.
    members = [init_params(4, 3, 2, seed=k) for k in range(2)]
    path = tmp_path / "model.npz"
    save_checkpoint(Ensemble(members, [0, 1], False) if ensemble else members[0], path)
    with np.load(path) as data:
        stored = dict(data)
    stored["params"] = cast(stored["params"])
    np.savez(path, **stored)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: params has dtype "
                                         f"{stored['params'].dtype}, expected floating point$"):
        load_checkpoint(path)


@pytest.mark.parametrize("fixture", ["format1_model.npz", "format1_ensemble.npz"])
def test_format1_checkpoint_with_non_float_weights_names_file(tmp_path, fixture):
    with np.load(DATA / fixture) as data:
        stored = dict(data)
    stored["u_c"] = stored["u_c"] + 1j
    path = tmp_path / fixture
    np.savez(path, **stored)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: u_c has dtype "
                                         "complex128, expected floating point$"):
        load_checkpoint(path)


def n_params(d, h, m):
    """The number of parameters of a (d, h, m) model, counted from spec_order_draws."""
    return sum(w.size for w in spec_order_draws(d, h, m, 0).values())


@pytest.mark.parametrize("ensemble, corrupt, message", [
    (False, lambda w: w.update(params=w["params"][:-1]),
     rf"params has shape \({n_params(5, 4, 3) - 1},\), expected \({n_params(5, 4, 3)},\) "
     r"for d=5, h=4, m=3$"),
    (False, lambda w: w.update(params=w["params"][None]), r"params has shape \(1, "),
    (False, lambda w: w.update(u_c=np.zeros((4, 4))), r"missing parameters \[\], "
                                                      r"unexpected \['u_c'\]$"),
    (False, lambda w: w.pop("params"), r"missing parameters \['params'\], unexpected \[\]$"),
    (True, lambda w: w.update(__seeds=np.array([0, 1, 2])),
     rf"params has shape \(2, {n_params(5, 4, 3)}\), expected \(3, {n_params(5, 4, 3)}\) "
     r"for d=5, h=4, m=3 and 3 member seeds$"),
    # P is about 8e18 here: it is only compared, never allocated.
    (False, lambda w: w.update(__dims=np.array([10**9] * 3)),
     rf"params has shape \({n_params(5, 4, 3)},\), expected \(8000000005000000001,\) "
     r"for d=1000000000, h=1000000000, m=1000000000$"),
], ids=["short", "extra-axis", "extra-array", "no-params", "member-count", "huge-dims"])
def test_format2_checkpoint_mismatch_names_file(tmp_path, ensemble, corrupt, message):
    members = [init_params(5, 4, 3, seed=k) for k in range(2)]
    path = tmp_path / "model.npz"
    save_checkpoint(Ensemble(members, [0, 1], False) if ensemble else members[0], path)
    with np.load(path) as data:
        stored = dict(data)
    corrupt(stored)
    np.savez(path, **stored)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [[4.7, 3.2, 2.9], [4.0, 3.0, 2.0]],
                         ids=["fractional", "whole-float"])
def test_checkpoint_with_non_integer_dims_names_file(tmp_path, dims):
    # The weights fit the truncated dims (4, 3, 2), so only the dtype shows the fault.
    path = tmp_path / "model.npz"
    save_checkpoint(init_params(4, 3, 2, seed=0), path)
    with np.load(path) as data:
        stored = dict(data)
    stored["__dims"] = np.array(dims)
    np.savez(path, **stored)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed __dims "):
        load_checkpoint(path)


@pytest.mark.parametrize("flag", [np.array("no"), np.array(0), np.array(1.0)],
                         ids=["str", "int", "float"])
def test_checkpoint_with_non_boolean_bagging_names_file(tmp_path, flag):
    # bool() would read the string 'no' as True.
    path = tmp_path / "model.npz"
    save_checkpoint(Ensemble([init_params(4, 3, 2, seed=k) for k in range(2)], [0, 1], False),
                    path)
    with np.load(path) as data:
        stored = dict(data)
    stored["__bagging"] = flag
    np.savez(path, **stored)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: an ensemble needs a "
                                         "boolean __bagging flag$"):
        load_checkpoint(path)


@pytest.mark.parametrize("write, message", [
    (lambda path, raw: path.write_bytes(raw[:len(raw) // 2]), "File is not a zip file"),
    (lambda path, raw: path.write_bytes(b""), "No data left in file"),
    (lambda path, raw: np.save(path, np.zeros(3)), "does not support the context manager"),
    (lambda path, raw: None, "No such file or directory"),
])
def test_unreadable_checkpoint_names_file(tmp_path, write, message):
    save_checkpoint(init_params(4, 3, 2), tmp_path / "good")
    path = tmp_path / "bad.npy"  # np.save adds no suffix to this name
    write(path, (tmp_path / "good").read_bytes())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a readable "
                                         f"checkpoint: .*{message}"):
        load_checkpoint(path)


@seed(20)
@settings(max_examples=40, deadline=None)
@given(ensemble=st.booleans(), edits=byte_edits)
def test_mutated_checkpoint_loads_or_names_the_file(tmp_path_factory, ensemble, edits):
    p = init_params(4, 5, 3, seed=0)
    path = tmp_path_factory.mktemp("ckpt") / "model.npz"
    save_checkpoint(Ensemble([p, init_params(4, 5, 3, seed=1)], [0, 1], False)
                    if ensemble else p, path)
    apply_byte_edits(path, edits)
    try:
        load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")


def test_assert_finite():
    p = init_params(2, 2, 2, seed=0)
    p.weights["w_z"][0, 0] = np.nan
    with pytest.raises(ValueError, match="^non-finite values in parameter w_z$"):
        p.assert_finite()
