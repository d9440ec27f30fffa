"""Dual recurrent encoder with regression head, forward and backward passes.

A single gated recurrent cell (shared between the two input sequences)
encodes each token-vector sequence into its final hidden state. The two
encodings are combined symmetrically as [e_a + e_b ; |e_a - e_b|] and fed
through a two-layer tanh head whose final tanh keeps the predicted
correlation inside [-1, 1]. All math is float64 so that gradients can be
checked strictly against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (name, fan_out_key, fan_in_key); matrices are stored (fan_out, fan_in).
_MATRIX_SPECS = [
    ("w_z", "h", "d"), ("u_z", "h", "h"),
    ("w_r", "h", "d"), ("u_r", "h", "h"),
    ("w_c", "h", "d"), ("u_c", "h", "h"),
    ("head_w1", "m", "two_h"), ("head_w2", "one", "m"),
]
_BIAS_SPECS = [("b_z", "h"), ("b_r", "h"), ("b_c", "h"), ("head_b1", "m"), ("head_b2", "one")]


@dataclass
class ModelParams:
    d: int
    h: int
    m: int
    weights: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.d, self.h, self.m, {k: v.copy() for k, v in self.weights.items()})

    def assert_finite(self) -> None:
        for name, w in self.weights.items():
            if not np.all(np.isfinite(w)):
                raise FloatingPointError(f"non-finite values in parameter {name}")


def _shapes(d: int, h: int, m: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape: the matrices, then the biases, in spec order."""
    sizes = {"d": d, "h": h, "m": m, "two_h": 2 * h, "one": 1}
    shapes = {name: (sizes[out_key], sizes[in_key]) for name, out_key, in_key in _MATRIX_SPECS}
    shapes.update({name: (sizes[size_key],) for name, size_key in _BIAS_SPECS})
    return shapes


def init_params(d: int, h: int, m: int, seed: int = 0) -> ModelParams:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    if min(d, h, m) < 1:
        raise ValueError("d, h, m must all be >= 1")
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    for name, shape in _shapes(d, h, m).items():
        if len(shape) == 2:
            s = np.sqrt(6.0 / sum(shape))
            weights[name] = rng.uniform(-s, s, size=shape)
        else:
            weights[name] = np.zeros(shape)
    return ModelParams(d, h, m, weights)


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.weights.items()}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class _StepTrace:
    x: np.ndarray
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    c: np.ndarray


@dataclass
class ForwardTrace:
    steps_a: list[_StepTrace]
    steps_b: list[_StepTrace]
    e_a: np.ndarray
    e_b: np.ndarray
    combined: np.ndarray
    u1: np.ndarray
    r_hat: float


def _gru_forward(seq, w) -> list[_StepTrace]:
    h = np.zeros_like(w["b_z"])
    steps = []
    for x in seq:
        z = _sigmoid(w["w_z"] @ x + w["u_z"] @ h + w["b_z"])
        r = _sigmoid(w["w_r"] @ x + w["u_r"] @ h + w["b_r"])
        c = np.tanh(w["w_c"] @ x + w["u_c"] @ (r * h) + w["b_c"])
        steps.append(_StepTrace(np.asarray(x, dtype=np.float64), h, z, r, c))
        h = (1.0 - z) * h + z * c
    return steps


def _final_state(steps: list[_StepTrace]) -> np.ndarray:
    last = steps[-1]
    return (1.0 - last.z) * last.h_prev + last.z * last.c


def encode(seq, params: ModelParams) -> np.ndarray:
    """Final hidden state of the recurrent cell over a non-empty sequence."""
    if len(seq) == 0:
        raise ValueError("cannot encode an empty sequence")
    return _final_state(_gru_forward(seq, params.weights))


def _head(e_a: np.ndarray, e_b: np.ndarray, w) -> tuple[np.ndarray, np.ndarray, float]:
    """Head input, hidden activation and prediction; symmetric in e_a, e_b bit for bit."""
    combined = np.concatenate([e_a + e_b, np.abs(e_a - e_b)])
    u1 = np.tanh(w["head_w1"] @ combined + w["head_b1"])
    return combined, u1, float(np.tanh(w["head_w2"] @ u1 + w["head_b2"])[0])


def predict_pair(seq_a, seq_b, params: ModelParams) -> ForwardTrace:
    """Forward pass for a pair of embedded sequences; the prediction is r_hat.

    Symmetric by construction: both orders produce bit-identical output.
    """
    w = params.weights
    steps_a = _gru_forward(seq_a, w)
    steps_b = _gru_forward(seq_b, w)
    e_a, e_b = _final_state(steps_a), _final_state(steps_b)
    combined, u1, r_hat = _head(e_a, e_b, w)
    return ForwardTrace(steps_a, steps_b, e_a, e_b, combined, u1, r_hat)


def predict(models, seqs, pairs) -> np.ndarray:
    """Every model's prediction for every pair, shape (len(pairs), len(models)).

    Each correlate named in pairs is encoded once per model from seqs[c]; each
    pair is scored alone by predict_pair's head, so values equal its r_hat bit
    for bit, in either order and whatever else is in the call."""
    ids = list(dict.fromkeys(c for pair in pairs for c in pair))
    out = np.empty((len(pairs), len(models)))
    for k, params in enumerate(models):
        enc = {c: encode(seqs[c], params) for c in ids}
        out[:, k] = [_head(enc[a], enc[b], params.weights)[2] for a, b in pairs]
    return out


def _gru_backward(steps: list[_StepTrace], d_final: np.ndarray, w, grads) -> None:
    dh = d_final
    for st in reversed(steps):
        dc = dh * st.z
        dz = dh * (st.c - st.h_prev)
        da_c = dc * (1.0 - st.c ** 2)
        da_z = dz * st.z * (1.0 - st.z)
        uc_dac = w["u_c"].T @ da_c
        dr = uc_dac * st.h_prev
        da_r = dr * st.r * (1.0 - st.r)

        grads["w_z"] += np.outer(da_z, st.x)
        grads["u_z"] += np.outer(da_z, st.h_prev)
        grads["b_z"] += da_z
        grads["w_r"] += np.outer(da_r, st.x)
        grads["u_r"] += np.outer(da_r, st.h_prev)
        grads["b_r"] += da_r
        grads["w_c"] += np.outer(da_c, st.x)
        grads["u_c"] += np.outer(da_c, st.r * st.h_prev)
        grads["b_c"] += da_c

        dh = (dh * (1.0 - st.z)
              + w["u_z"].T @ da_z
              + w["u_r"].T @ da_r
              + uc_dac * st.r)


def backward(trace: ForwardTrace, upstream: float, params: ModelParams) -> dict[str, np.ndarray]:
    """Exact gradients of upstream * d r_hat / d theta for every parameter.

    The encoder is shared, so both sequences' contributions accumulate into
    the same recurrent weight gradients. The absolute-difference block uses
    the subgradient sign(e_a - e_b), with sign(0) = 0.
    """
    w = params.weights
    grads = zero_grads(params)
    h = params.h

    da2 = upstream * (1.0 - trace.r_hat ** 2)
    grads["head_w2"][0, :] = da2 * trace.u1
    grads["head_b2"][0] = da2
    du1 = w["head_w2"][0] * da2
    da1 = du1 * (1.0 - trace.u1 ** 2)
    grads["head_w1"] += np.outer(da1, trace.combined)
    grads["head_b1"] += da1
    d_combined = w["head_w1"].T @ da1

    sign = np.sign(trace.e_a - trace.e_b)
    d_ea = d_combined[:h] + d_combined[h:] * sign
    d_eb = d_combined[:h] - d_combined[h:] * sign
    _gru_backward(trace.steps_a, d_ea, w, grads)
    _gru_backward(trace.steps_b, d_eb, w, grads)
    return grads


def save_checkpoint(params: ModelParams, path) -> None:
    """Exact (bit-preserving) serialization of dims and all matrices."""
    np.savez(path,
             __format_version=np.array([1]),
             __dims=np.array([params.d, params.h, params.m]),
             **params.weights)


def load_checkpoint(path) -> ModelParams:
    """Load a save_checkpoint file, checking its format version, its
    parameter names and every shape against its stored dims."""
    with np.load(path) as data:
        stored = {k: data[k] for k in data.files}
    version = stored.pop("__format_version", None)
    if version is None or "__dims" not in stored:
        raise ValueError(f"{path}: not a corrnet checkpoint (no format version or dims)")
    if version.tolist() != [1]:
        raise ValueError(f"{path}: unsupported checkpoint version {version.tolist()}")
    dims = stored.pop("__dims")
    if dims.shape != (3,) or dims.min() < 1:
        raise ValueError(f"{path}: malformed dims {dims.tolist()}")
    d, h, m = (int(v) for v in dims)
    shapes = _shapes(d, h, m)  # computed, not allocated: the dims are untrusted
    if stored.keys() != shapes.keys():
        raise ValueError(f"{path}: missing parameters {sorted(shapes.keys() - stored.keys())}, "
                         f"unexpected {sorted(stored.keys() - shapes.keys())}")
    for name, shape in shapes.items():
        if stored[name].shape != shape:
            raise ValueError(f"{path}: {name} has shape {stored[name].shape}, "
                             f"expected {shape} for d={d}, h={h}, m={m}")
    return ModelParams(d, h, m, {k: v.astype(np.float64) for k, v in stored.items()})


def gradcheck(params: ModelParams, seq_a, seq_b) -> float:
    """Largest relative error between backward's gradient of r_hat and
    central finite differences with step 1e-5, over every weight; the
    denominator is at least 1e-6. The weights are restored afterwards."""
    eps = 1e-5
    analytic = backward(predict_pair(seq_a, seq_b, params), 1.0, params)
    worst = 0.0
    for name, w in params.weights.items():
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + eps
            up = predict_pair(seq_a, seq_b, params).r_hat
            w[idx] = orig - eps
            down = predict_pair(seq_a, seq_b, params).r_hat
            w[idx] = orig
            num = (up - down) / (2 * eps)
            grad = analytic[name][idx]
            worst = max(worst, abs(num - grad) / max(abs(num), abs(grad), 1e-6))
    return worst
