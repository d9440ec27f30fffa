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


@dataclass
class Ensemble:
    members: list[ModelParams]
    member_seeds: list[int]
    bagging: bool

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("an ensemble needs at least 2 members")


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
    return {k: np.zeros(v.shape) for k, v in params.weights.items()}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class ForwardTrace:
    """predict_pair's pass. x, hs, zrs and cs are its 2-row block's inputs
    (L, 2, d), states (L + 1, 2, h), gates (L, 2, 2h) and candidates
    (L, 2, h), zero at every padded step; a runs in block row rows[0] and b
    in rows[1]. steps_a and steps_b are views of their own input rows, e_a
    and e_b of their final states, and u_zr is the [u_z; u_r] kernel the
    block ran with."""
    steps_a: np.ndarray
    steps_b: np.ndarray
    e_a: np.ndarray
    e_b: np.ndarray
    combined: np.ndarray
    u1: np.ndarray
    r_hat: float
    x: np.ndarray
    hs: np.ndarray
    zrs: np.ndarray
    cs: np.ndarray
    rows: tuple[int, int]
    u_zr: np.ndarray


# Rows per block of predict's encoder and head: bounds the padded input
# projections to (L, _BLOCK, 3h) whatever the number of correlates.
_BLOCK = 32


def _kernels(w) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stacked input kernel [w_z; w_r; w_c], its bias, and the recurrent
    kernels [u_z; u_r] and u_c."""
    return (np.concatenate([w["w_z"], w["w_r"], w["w_c"]]),
            np.concatenate([w["b_z"], w["b_r"], w["b_c"]]),
            np.concatenate([w["u_z"], w["u_r"]]), w["u_c"])


def _rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m @ a[i] for every row i, one gemv per row: m.T is a view, so each row
    makes the same BLAS call, with the same bits, as m @ a[i] alone."""
    return np.matmul(a[:, None, :], m.T)[:, 0]


def _project(x: np.ndarray, w_in: np.ndarray, b_in: np.ndarray) -> np.ndarray:
    """Input projections w_in @ x[i] + b_in of every row of x, one gemv per
    row, so a token's projection has the same bits whatever else is in x."""
    return _rows(x, w_in) + b_in


def _encode_block(a, lengths, u_zr, u_c, hs=None, zrs=None, cs=None) -> np.ndarray:
    """Final states of up to _BLOCK sequences sorted longest first, given
    their padded input projections a (L, B, 3h) and lengths (B,); the rows
    still running at step t are a prefix, and each row's bits do not depend
    on the other rows. Given hs (L + 1, B, h) with hs[0] zero, zrs (L, B, 2h)
    and cs (L, B, h), step t's starting state, gates [z; r] and candidate of
    each running row are also written into hs[t], zrs[t] and cs[t]."""
    n = len(u_c)
    h = np.zeros((a.shape[1], n))
    for t, k in enumerate((lengths[:, None] > np.arange(len(a))).sum(axis=0)):
        h_t, a_t = h[:k], a[t, :k]
        zr = _sigmoid(a_t[:, :2 * n] + _rows(h_t, u_zr))
        c = np.tanh(a_t[:, 2 * n:] + _rows(zr[:, n:] * h_t, u_c))
        h[:k] = h_t + zr[:, :n] * (c - h_t)
        if hs is not None:
            zrs[t, :k], cs[t, :k], hs[t + 1, :k] = zr, c, h[:k]
    return h


def _inputs(seqs, d: int) -> list[np.ndarray]:
    """Each sequence as an (L, d) float64 array. An empty sequence, a ragged
    one, or one whose vectors are not d wide fails before any encoding."""
    if any(len(seq) == 0 for seq in seqs):
        raise ValueError("cannot encode an empty sequence")
    xs = []
    for seq in seqs:
        try:
            x = np.asarray(seq, dtype=np.float64)
        except ValueError:  # vectors of different widths
            x = None
        if x is None or x.shape[1:] != (d,):
            widths = "/".join(str(w) for w in sorted({np.size(v) for v in seq}))
            raise ValueError(f"cannot encode vectors of width {widths} "
                             f"with a model of input width d={d}")
        xs.append(x)
    return xs


def _token_ids(seqs, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct token vectors of seqs, told apart by object identity, as
    the rows of a (U, d) float64 matrix; an (L, n) matrix whose column i is
    sequence i's token ids, padded with the id U; and the lengths. Input that
    _inputs rejects fails with its error, before any encoding."""
    row: dict[int, int] = {}
    distinct, ids = [], []  # distinct keeps each keyed vector alive: no id() is reused
    for seq in seqs:
        seq_ids = []
        for v in seq:
            k = row.get(id(v))
            if k is None:
                k = row[id(v)] = len(distinct)
                distinct.append(v)
            seq_ids.append(k)
        ids.append(seq_ids)
    lengths = np.array(list(map(len, ids)), dtype=np.intp)
    try:
        x = np.asarray(distinct, dtype=np.float64) if distinct else np.empty((0, d))
    except ValueError:
        x = None
    if x is None or x.shape[1:] != (d,) or not lengths.all():
        # Raises for the first bad sequence, or else for distinct itself.
        _inputs([*seqs, distinct], d)
    width = lengths.max(initial=0)
    padded = np.array([r + [len(x)] * (width - len(r)) for r in ids], dtype=np.intp)
    return x, padded.reshape(len(ids), width).T, lengths


def _encode(x, ids, lengths, w) -> np.ndarray:
    """Final hidden states of _token_ids' sequences, shape (len(lengths), h):
    each distinct token is projected once, and each row equals predict_pair's
    final state for that sequence bit for bit."""
    order = np.argsort(-lengths, kind="stable")
    w_in, b_in, u_zr, u_c = _kernels(w)
    a = np.zeros((len(x) + 1, len(b_in)))  # the last row is the padding id's
    a[:-1] = _project(x, w_in, b_in)
    out = np.empty((len(lengths), len(u_c)))
    for s in range(0, len(order), _BLOCK):
        block = order[s:s + _BLOCK]
        out[block] = _encode_block(a[ids[:lengths[block[0]], block]], lengths[block], u_zr, u_c)
    return out


def _score(e_a: np.ndarray, e_b: np.ndarray, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head input, hidden activation and prediction for each row pair of e_a,
    e_b; symmetric in e_a, e_b bit for bit."""
    combined = np.concatenate([e_a + e_b, np.abs(e_a - e_b)], axis=1)
    u1 = np.tanh(_rows(combined, w["head_w1"]) + w["head_b1"])
    return combined, u1, np.tanh(_rows(u1, w["head_w2"]) + w["head_b2"])[:, 0]


def predict_pair(seq_a, seq_b, params: ModelParams) -> ForwardTrace:
    """Forward pass for a pair of embedded sequences, with the trace backward
    needs; the prediction is r_hat. Both sequences run as one 2-row block of
    predict's encoder and are scored by its head, so r_hat equals predict's
    value bit for bit, and both orders give bit-identical output."""
    w = params.weights
    xs = _inputs([seq_a, seq_b], params.d)
    # The block rows of a and b, longest first; a swap is its own inverse.
    rows = (1, 0) if len(xs[1]) > len(xs[0]) else (0, 1)
    n, length = params.h, max(map(len, xs))
    x, hs = np.zeros((length, 2, params.d)), np.zeros((length + 1, 2, n))
    zrs, cs = np.zeros((length, 2, 2 * n)), np.zeros((length, 2, n))
    w_in, b_in, u_zr, u_c = _kernels(w)
    a = np.zeros((length, 2, 3 * n))
    for seq_x, i in zip(xs, rows):
        x[:len(seq_x), i] = seq_x
        a[:len(seq_x), i] = _project(seq_x, w_in, b_in)
    _encode_block(a, np.array([len(xs[i]) for i in rows]), u_zr, u_c, hs, zrs, cs)
    len_a, len_b = map(len, xs)
    e_a, e_b = hs[len_a, rows[0]], hs[len_b, rows[1]]
    combined, u1, r_hat = _score(e_a[None], e_b[None], w)
    return ForwardTrace(x[:len_a, rows[0]], x[:len_b, rows[1]], e_a, e_b, combined[0], u1[0],
                        float(r_hat[0]), x, hs, zrs, cs, rows, u_zr)


def predict(models, seqs, pairs) -> np.ndarray:
    """Every model's prediction for every pair, shape (len(pairs), len(models)).

    Each correlate named in pairs is encoded once per model from seqs[c], and
    each distinct token vector (by identity) of those correlates is projected
    once per model; each pair is scored by predict_pair's head, row by row,
    so values equal its r_hat bit for bit, in either order and whatever else
    is in the call."""
    cids = list(dict.fromkeys(c for pair in pairs for c in pair))
    inputs = _token_ids([seqs[c] for c in cids], models[0].d)
    row = {c: i for i, c in enumerate(cids)}
    ia = np.array([row[a] for a, _ in pairs], dtype=np.intp)
    ib = np.array([row[b] for _, b in pairs], dtype=np.intp)
    out = np.empty((len(pairs), len(models)))
    for k, params in enumerate(models):
        w = params.weights
        enc = _encode(*inputs, w)
        for s in range(0, len(pairs), _BLOCK):
            out[s:s + _BLOCK, k] = _score(enc[ia[s:s + _BLOCK]], enc[ib[s:s + _BLOCK]], w)[2]
    return out


def _block_backward(x, hs, zrs, cs, d_final, u_zr, u_c):
    """Encoder gradients of a block of B sequences, given its inputs x
    (L, B, d), states hs (L + 1, B, h), gates zrs (L, B, 2h) and candidates
    cs (L, B, h), all zero at padded steps, the gradient d_final (B, h) of
    each row's final state, and the recurrent kernels [u_z; u_r] and u_c.

    A padded step has z = r = 0, so dh passes through it unchanged and its
    gate gradients are 0: one reverse loop over the block fills step t of da
    with [da_z; da_r; da_c] for every row. Products over all L * B rows then
    give the gradients of [w_z; w_r; w_c], [u_z; u_r], u_c and [b_z; b_r; b_c].
    """
    n = cs.shape[-1]
    h = hs[:-1]
    z, r = zrs[..., :n], zrs[..., n:]
    keep = 1.0 - z
    g_z = (cs - h) * z * keep  # da_z = dh * g_z, and so on
    g_c = z * (1.0 - cs ** 2)
    g_r = h * r * (1.0 - r)
    da = np.empty(cs.shape[:2] + (3 * n,))
    dh = d_final
    for t in reversed(range(len(cs))):
        da_t = da[t]
        np.multiply(dh, g_z[t], out=da_t[:, :n])
        np.multiply(dh, g_c[t], out=da_t[:, 2 * n:])
        uc_dac = da_t[:, 2 * n:] @ u_c
        np.multiply(uc_dac, g_r[t], out=da_t[:, n:2 * n])
        dh = dh * keep[t] + da_t[:, :2 * n] @ u_zr + uc_dac * r[t]
    da = da.reshape(-1, 3 * n)
    return (da.T @ x.reshape(len(da), -1), da[:, :2 * n].T @ h.reshape(len(da), n),
            da[:, 2 * n:].T @ (r * h).reshape(len(da), n), da.sum(axis=0))


def backward(trace: ForwardTrace, upstream: float, params: ModelParams) -> dict[str, np.ndarray]:
    """Exact gradients of upstream * d r_hat / d theta for every parameter.

    The encoder is shared, so both sequences run backward as the forward's
    2-row block, and each encoder gradient is a slice of one product over
    both. The absolute-difference block uses the subgradient
    sign(e_a - e_b), with sign(0) = 0.
    """
    w, h = params.weights, params.h
    da2 = upstream * (1.0 - trace.r_hat ** 2)
    da1 = w["head_w2"][0] * da2 * (1.0 - trace.u1 ** 2)
    d_combined = w["head_w1"].T @ da1
    sign = np.sign(trace.e_a - trace.e_b)
    d_final = np.empty((2, h))
    d_final[trace.rows[0]] = d_combined[:h] + d_combined[h:] * sign
    d_final[trace.rows[1]] = d_combined[:h] - d_combined[h:] * sign
    d_in, d_zr, d_uc, db = _block_backward(trace.x, trace.hs, trace.zrs, trace.cs, d_final,
                                           trace.u_zr, w["u_c"])
    return {"w_z": d_in[:h], "u_z": d_zr[:h], "w_r": d_in[h:2 * h], "u_r": d_zr[h:],
            "w_c": d_in[2 * h:], "u_c": d_uc,
            "head_w1": np.outer(da1, trace.combined), "head_w2": (da2 * trace.u1)[None],
            "b_z": db[:h], "b_r": db[h:2 * h], "b_c": db[2 * h:],
            "head_b1": da1, "head_b2": np.array([da2])}


def save_checkpoint(model: ModelParams | Ensemble, path) -> None:
    """Exact (bit-preserving) serialization of dims and all matrices, written
    to exactly path. An ensemble stacks every weight on a leading member axis
    and adds its member seeds and bagging flag."""
    if isinstance(model, Ensemble):
        first = model.members[0]
        arrays = {k: np.stack([p.weights[k] for p in model.members]) for k in first.weights}
        arrays.update(__seeds=np.array(model.member_seeds), __bagging=np.array(model.bagging))
    else:
        first, arrays = model, model.weights
    with open(path, "wb") as fh:
        np.savez(fh, __format_version=np.array([1]),
                 __dims=np.array([first.d, first.h, first.m]), **arrays)


def load_checkpoint(path) -> ModelParams | Ensemble:
    """Load a save_checkpoint file, checking its format version, its
    parameter names and every shape against its stored dims and, for an
    ensemble, its member count. A file that numpy cannot read as an archive
    of arrays fails with its path named."""
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            stored = {k: data[k] for k in data.files}
    except Exception as exc:  # zip, numpy-format and I/O errors alike
        raise ValueError(f"{path}: not a readable checkpoint: {exc}") from exc
    version = stored.pop("__format_version", None)
    if version is None or "__dims" not in stored:
        raise ValueError(f"{path}: not a corrnet checkpoint (no format version or dims)")
    if version.tolist() != [1]:
        raise ValueError(f"{path}: unsupported checkpoint version {version.tolist()}")
    dims = stored.pop("__dims")
    if dims.shape != (3,) or dims.min() < 1:
        raise ValueError(f"{path}: malformed dims {dims.tolist()}")
    d, h, m = (int(v) for v in dims)
    seeds = stored.pop("__seeds", None)
    if seeds is not None:
        bagging = stored.pop("__bagging", None)
        if (seeds.ndim != 1 or len(seeds) < 2 or seeds.dtype.kind not in "iu"
                or bagging is None or bagging.shape != ()):
            raise ValueError(f"{path}: an ensemble needs at least 2 integer seeds "
                             "and a bagging flag")
    lead = () if seeds is None else seeds.shape
    shapes = _shapes(d, h, m)  # computed, not allocated: the dims are untrusted
    if stored.keys() != shapes.keys():
        raise ValueError(f"{path}: missing parameters {sorted(shapes.keys() - stored.keys())}, "
                         f"unexpected {sorted(stored.keys() - shapes.keys())}")
    for name, shape in shapes.items():
        if stored[name].shape != lead + shape:
            raise ValueError(f"{path}: {name} has shape {stored[name].shape}, expected "
                             f"{lead + shape} for d={d}, h={h}, m={m}"
                             + (f" and {lead[0]} member seeds" if lead else ""))
    weights = {k: v.astype(np.float64) for k, v in stored.items()}
    if bad := [k for k, v in weights.items() if not np.isfinite(v).all()]:
        raise ValueError(f"{path}: non-finite values in parameter {bad[0]}")
    if seeds is None:
        return ModelParams(d, h, m, weights)
    return Ensemble([ModelParams(d, h, m, {k: v[i] for k, v in weights.items()})
                     for i in range(len(seeds))], seeds.tolist(), bool(bagging))


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
