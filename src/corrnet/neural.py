"""Dual recurrent encoder with regression head, forward and backward passes.

A single gated recurrent cell (shared between the two input sequences)
encodes each token-vector sequence into its final hidden state. The two
encodings are combined symmetrically as [e_a + e_b ; |e_a - e_b|] and fed
through a two-layer tanh head whose final tanh keeps the predicted
correlation inside [-1, 1]. All math is float64 so that gradients can be
checked strictly against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The GRU's stacked kernels and the named weights each one holds, in row order.
_STACKS = {"w_in": ("w_z", "w_r", "w_c"), "b_in": ("b_z", "b_r", "b_c"), "u_zr": ("u_z", "u_r")}


class _Weights(dict):
    """A model's named weights. A name stays bound to its array, since the
    GRU's are views of the model's stacked kernels: binding it to another
    array raises, and w[k] -= g, which binds w[k] to itself, is allowed."""

    def __setitem__(self, name, value):
        if value is not self.get(name):
            raise TypeError(f"cannot rebind weight {name!r}; update it in place")

    def _fixed(self, *args, **kwargs):
        raise TypeError("a model's weights are fixed; update them in place")

    __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _fixed


class ModelParams:
    """A model's dims and float64 weights, copied from weights on
    construction. The GRU's input kernel [w_z; w_r; w_c], its bias
    [b_z; b_r; b_c] and the recurrent kernel [u_z; u_r] are stored once, as
    w_in, b_in and u_zr; the named weights w_z to b_c are row views of them,
    so an in-place update through either name is seen by both."""

    def __init__(self, d: int, h: int, m: int, weights):
        self.d, self.h, self.m = d, h, m
        own = {}
        for stack, names in _STACKS.items():
            kernel = np.concatenate([weights[k] for k in names], dtype=np.float64)
            setattr(self, stack, kernel)
            own.update((k, kernel[i * h:(i + 1) * h]) for i, k in enumerate(names))
        self.weights = _Weights((k, own[k] if k in own else np.array(weights[k], dtype=np.float64))
                                for k in _shapes(d, h, m))

    def __reduce__(self):
        return ModelParams, (self.d, self.h, self.m, dict(self.weights))

    def copy(self) -> "ModelParams":
        return ModelParams(self.d, self.h, self.m, self.weights)

    def assert_finite(self) -> None:
        for name, w in self.weights.items():
            if not np.all(np.isfinite(w)):
                raise ValueError(f"non-finite values in parameter {name}")


@dataclass
class Ensemble:
    members: list[ModelParams]
    member_seeds: list[int]
    bagging: bool

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("an ensemble needs at least 2 members")
        if len(self.member_seeds) != len(self.members):
            raise ValueError(f"an ensemble of {len(self.members)} members has "
                             f"{len(self.member_seeds)} member seeds")
        dims = [(p.d, p.h, p.m) for p in self.members]
        for k, dim in enumerate(dims):
            if dim != dims[0]:
                raise ValueError(f"ensemble member {k} has (d, h, m) = {dim}, "
                                 f"member 0 has {dims[0]}")


def _shapes(d: int, h: int, m: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape: the matrices, stored (fan_out, fan_in), then
    the biases. init_params draws, and a checkpoint stores, in this order."""
    return {"w_z": (h, d), "u_z": (h, h), "w_r": (h, d), "u_r": (h, h),
            "w_c": (h, d), "u_c": (h, h), "head_w1": (m, 2 * h), "head_w2": (1, m),
            "b_z": (h,), "b_r": (h,), "b_c": (h,), "head_b1": (m,), "head_b2": (1,)}


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


@dataclass
class ForwardTrace:
    """predict_pair's pass. x, hs, zrs and cs are its 2-row block's inputs
    (L, 2, d), states (L + 1, 2, h), gates (L, 2, 2h) and candidates
    (L, 2, h), zero at every padded step; a runs in block row rows[0] and b
    in rows[1]. steps_a and steps_b are views of their own input rows, and
    e_a and e_b of their final states."""
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


# Rows per block of predict's encoder and pairs per block of its head. A
# block gathers its padded input projections, (L, _BLOCK, 3h), whatever the
# number of correlates: at most 32 x 256 x 192 x 8 B = 12.6 MB for
# textnorm's MAX_TOKENS = 32 and h = 64.
_BLOCK = 256

# Rows per BLAS call of every product of a row with a weight. Each such product
# is one np.matmul over (g, _GROUP, K) groups, the last one zero-padded, with
# the weight's transpose as a view: every call for a weight then has the same
# shape, so a row gets the same bits at any position and beside any other rows,
# while a call whose row count varied would change them.
_GROUP = 4


def _padded(n: int) -> int:
    """n rounded up to whole groups."""
    return -(-n // _GROUP) * _GROUP


def _rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m @ a[i] for every row i, shape (len(a), len(m)), in whole groups: each
    row gets the bits it gets alone in a zero-padded group."""
    n, k = a.shape
    if n % _GROUP:
        whole = np.zeros((_padded(n), k))
        whole[:n] = a
        a = whole
    return np.matmul(a.reshape(-1, _GROUP, k), m.T).reshape(-1, len(m))[:n]


def _project(x: np.ndarray, w_in: np.ndarray, b_in: np.ndarray) -> np.ndarray:
    """Input projections w_in @ x[i] + b_in of every row of x, so a token's
    projection has the same bits whatever else is in x."""
    return _rows(x, w_in) + b_in


def _encode_block(a, lengths, u_zr, u_c, trace: bool = False):
    """Final states (B, h) of up to _BLOCK sequences sorted longest first, given
    their padded input projections a (L, B, 3h) and lengths (B,); the rows
    still running at step t are a prefix. Each step's two products run over
    the whole groups that hold the running rows, into whole-group scratch, and
    each running row adds its own outputs, so its bits do not depend on the
    other rows. With trace, returns the block's states hs (L + 1, B, h), gates
    zrs (L, B, 2h) and candidates cs (L, B, h) instead, zero at every padded
    step: step t reads each running row's state from hs[t] and adds its gates
    [z; r], candidate and new state straight into zrs[t], cs[t] and hs[t + 1]."""
    n, k = len(u_c), len(lengths)
    size = _padded(k)
    u_zr_t, u_c_t = u_zr.T, u_c.T
    # A step's products, and r * h and then z * (c - h); a row past the
    # running ones is read by the products and its outputs are never used.
    p_zr, p_c, tmp = np.empty((size, 2 * n)), np.empty((size, n)), np.zeros((size, n))
    # The states, in whole groups: every step (traced), or one state per row
    # updated in place.
    hs = np.zeros((len(a) + 1 if trace else 1, size, n))
    if trace:
        zrs, cs = np.zeros((len(a), k, 2 * n)), np.zeros((len(a), k, n))
    hs_g, p_zr_g = hs.reshape(len(hs), -1, _GROUP, n), p_zr.reshape(-1, _GROUP, 2 * n)
    p_c_g, tmp_g = p_c.reshape(-1, _GROUP, n), tmp.reshape(-1, _GROUP, n)
    # Bound once: looking a ufunc up on np costs about a third of a step's
    # small ufunc calls.
    matmul, add, subtract, multiply, tanh = np.matmul, np.add, np.subtract, np.multiply, np.tanh
    for t in range(len(a)):
        if t == 0 or lengths[k - 1] <= t:  # the views that change with k
            while lengths[k - 1] <= t:
                k -= 1
            if (g := -(-k // _GROUP)) < len(tmp_g):
                hs_g, p_zr_g, p_c_g, tmp_g = hs_g[:, :g], p_zr_g[:g], p_c_g[:g], tmp_g[:g]
            p_zr_k, p_c_k, tmp_k, hs_k = p_zr[:k], p_c[:k], tmp[:k], hs[:, :k]
            a_zr, a_c = a[:, :k, :2 * n], a[:, :k, 2 * n:]
            if trace:
                zrs_k, cs_k = zrs[:, :k], cs[:, :k]
                z_k, r_k, h_next = zrs_k[..., :n], zrs_k[..., n:], hs_k[t]
            else:  # the gates and candidate go into the products' own rows
                h_t = h_next = hs_k[0]
                h_g, zr, c, z, r = hs_g[0], p_zr_k, p_c_k, p_zr_k[:, :n], p_zr_k[:, n:]
        if trace:  # the state written by the last step is this one's
            h_t, h_next, h_g = h_next, hs_k[t + 1], hs_g[t]
            zr, c, z, r = zrs_k[t], cs_k[t], z_k[t], r_k[t]
        matmul(h_g, u_zr_t, p_zr_g)
        add(p_zr_k, a_zr[t], zr)
        multiply(zr, 0.5, zr)  # sigmoid(x) = 0.5 * (1 + tanh(0.5 * x))
        tanh(zr, zr)
        add(zr, 1.0, zr)
        multiply(zr, 0.5, zr)
        multiply(r, h_t, tmp_k)
        matmul(tmp_g, u_c_t, p_c_g)
        add(p_c_k, a_c[t], c)
        tanh(c, c)
        subtract(c, h_t, tmp_k)
        multiply(tmp_k, z, tmp_k)
        add(h_t, tmp_k, h_next)  # h + z * (c - h)
    b = len(lengths)
    return (hs[:, :b], zrs, cs) if trace else hs[0, :b]


def _check_inputs(seqs, d: int) -> None:
    """Fail for the first empty sequence, or else the first ragged one or one
    whose vectors are not d wide; the forward calls this before any encoding
    once its own conversion of the vectors has failed."""
    if any(len(seq) == 0 for seq in seqs):
        raise ValueError("cannot encode an empty sequence")
    for seq in seqs:
        try:
            x = np.asarray(seq, dtype=np.float64)
        except ValueError:  # vectors of different widths
            x = None
        if x is None or x.shape[1:] != (d,):
            widths = "/".join(str(w) for w in sorted({np.size(v) for v in seq}))
            raise ValueError(f"cannot encode vectors of width {widths} "
                             f"with a model of input width d={d}")


def _token_ids(seqs, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct token vectors of seqs, told apart by object identity, as
    the rows of a (U, d) float64 matrix; an (L, n) matrix whose column i is
    sequence i's token ids, padded with the id U; and the lengths. Input that
    _check_inputs rejects fails with its error, before any encoding."""
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
        _check_inputs([*seqs, distinct], d)
    width = lengths.max(initial=0)
    padded = np.array([r + [len(x)] * (width - len(r)) for r in ids], dtype=np.intp)
    return x, padded.reshape(len(ids), width).T, lengths


def _encode(x, ids, lengths, params: ModelParams) -> np.ndarray:
    """Final hidden states of _token_ids' sequences, shape (len(lengths), h):
    each distinct token is projected once, and each row equals predict_pair's
    final state for that sequence bit for bit."""
    order = np.argsort(-lengths, kind="stable")
    a = np.zeros((len(x) + 1, 3 * params.h))  # the last row is the padding id's
    a[:-1] = _project(x, params.w_in, params.b_in)
    out = np.empty((len(lengths), params.h))
    for s in range(0, len(order), _BLOCK):
        block = order[s:s + _BLOCK]
        out[block] = _encode_block(a[ids[:lengths[block[0]], block]], lengths[block].tolist(),
                                   params.u_zr, params.weights["u_c"])
    return out


def _score(e_a: np.ndarray, e_b: np.ndarray, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head input, hidden activation and prediction for each row pair of e_a,
    e_b; symmetric in e_a, e_b bit for bit."""
    combined = np.concatenate([e_a + e_b, np.abs(e_a - e_b)], axis=1)
    u1 = np.tanh(_rows(combined, w["head_w1"]) + w["head_b1"])
    return combined, u1, np.tanh(_rows(u1, w["head_w2"]) + w["head_b2"])[:, 0]


def predict_pair(seq_a, seq_b, params: ModelParams) -> ForwardTrace:
    """Forward pass for a pair of embedded sequences, with the trace backward
    needs; the prediction is r_hat. Both sequences are projected in one call
    and run as one 2-row block of predict's encoder, and are scored by its
    head, so r_hat equals predict's value bit for bit, and both orders give
    bit-identical output."""
    w, d, n = params.weights, params.d, params.h
    len_a, len_b = len(seq_a), len(seq_b)
    try:
        xy = np.asarray([*seq_a, *seq_b], dtype=np.float64)
    except ValueError:
        xy = None
    if xy is None or xy.shape[1:] != (d,) or not (len_a and len_b):
        _check_inputs([seq_a, seq_b], d)
    # The block rows of a and b, longest first; a swap is its own inverse.
    rows = (1, 0) if len_b > len_a else (0, 1)
    length = max(len_a, len_b)
    x = np.zeros((length, 2, d))
    x[:len_a, rows[0]], x[:len_b, rows[1]] = xy[:len_a], xy[len_a:]
    # A padded step's projection, b_in, is never read.
    a = _project(x.reshape(2 * length, d), params.w_in, params.b_in).reshape(length, 2, 3 * n)
    hs, zrs, cs = _encode_block(a, [length, min(len_a, len_b)], params.u_zr, w["u_c"], trace=True)
    e_a, e_b = hs[len_a, rows[0]], hs[len_b, rows[1]]
    combined, u1, r_hat = _score(e_a[None], e_b[None], w)
    return ForwardTrace(x[:len_a, rows[0]], x[:len_b, rows[1]], e_a, e_b, combined[0], u1[0],
                        float(r_hat[0]), x, hs, zrs, cs, rows)


def predict(models, seqs, pairs) -> np.ndarray:
    """Every model's prediction for every pair, shape (len(pairs), len(models)).

    pairs is a list of (a, b) pairs or an (n, 2) int array. Each correlate
    named in pairs is encoded once per model from seqs[c], and each distinct
    token vector (by identity) of those correlates is projected once per
    model; each pair is scored by predict_pair's head, and every product runs
    in whole groups, so values equal its r_hat bit for bit, in either order
    and whatever else is in the call."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
    cids, inverse = np.unique(pairs, return_inverse=True)
    ia, ib = inverse.reshape(pairs.shape).T
    inputs = _token_ids([seqs[c] for c in cids.tolist()], models[0].d)
    out = np.empty((len(pairs), len(models)))
    for k, params in enumerate(models):
        enc = _encode(*inputs, params)
        for s in range(0, len(pairs), _BLOCK):
            out[s:s + _BLOCK, k] = _score(enc[ia[s:s + _BLOCK]], enc[ib[s:s + _BLOCK]],
                                          params.weights)[2]
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
                                           params.u_zr, w["u_c"])
    return {"w_z": d_in[:h], "u_z": d_zr[:h], "w_r": d_in[h:2 * h], "u_r": d_zr[h:],
            "w_c": d_in[2 * h:], "u_c": d_uc,
            "head_w1": da1[:, None] * trace.combined, "head_w2": (da2 * trace.u1)[None],
            "b_z": db[:h], "b_r": db[h:2 * h], "b_c": db[2 * h:],
            "head_b1": da1, "head_b2": np.array([da2])}


def save_checkpoint(model: ModelParams | Ensemble, path) -> None:
    """Exact (bit-preserving) serialization, written to exactly path. The file
    (format 2) holds the dims and one float64 array, params, with every weight
    raveled in _shapes order: shape (P,) for a model, and (K, P) for an
    ensemble of K members, member k in row k, beside its member seeds and
    bagging flag."""
    if isinstance(model, Ensemble):
        first, params = model.members[0], np.stack([_flat(p) for p in model.members])
        extra = {"__seeds": np.array(model.member_seeds),
                 "__bagging": np.array(bool(model.bagging))}
    else:
        first, params, extra = model, _flat(model), {}
    with open(path, "wb") as fh:
        np.savez(fh, __format_version=np.array([2]),
                 __dims=np.array([first.d, first.h, first.m]), params=params, **extra)


def _flat(params: ModelParams) -> np.ndarray:
    return np.concatenate([w.ravel() for w in params.weights.values()])


def load_checkpoint(path) -> ModelParams | Ensemble:
    """Load a save_checkpoint file, checking its format version, that its
    dims and seeds are integers and its bagging flag boolean, its parameter
    names, that every weight is floating point, and every shape against its
    stored dims and, for an ensemble, its member count. A file that numpy
    cannot read as an archive of arrays fails with its path named.

    Format 1, which earlier versions wrote, stores each weight as its own
    array (with a leading member axis in an ensemble) and still loads: format
    2's params is split into those named arrays, and both take the same
    checks from there."""
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            stored = {k: data[k] for k in data.files}
    except Exception as exc:  # zip, numpy-format and I/O errors alike
        raise ValueError(f"{path}: not a readable checkpoint: {exc}") from exc
    version = stored.pop("__format_version", None)
    if version is None or "__dims" not in stored:
        raise ValueError(f"{path}: not a corrnet checkpoint (no format version or dims)")
    if version.tolist() not in ([1], [2]):
        raise ValueError(f"{path}: unsupported checkpoint version {version.tolist()}")
    dims = stored.pop("__dims")
    if dims.shape != (3,) or dims.dtype.kind not in "iu" or dims.min() < 1:
        raise ValueError(f"{path}: malformed __dims {dims.tolist()} of dtype {dims.dtype}, "
                         "expected 3 positive integers")
    d, h, m = dims.tolist()
    seeds = stored.pop("__seeds", None)
    if seeds is not None:
        if seeds.ndim != 1 or len(seeds) < 2 or seeds.dtype.kind not in "iu":
            raise ValueError(f"{path}: an ensemble needs __seeds of at least 2 integers")
        bagging = stored.pop("__bagging", None)
        if bagging is None or bagging.shape != () or bagging.dtype.kind != "b":
            raise ValueError(f"{path}: an ensemble needs a boolean __bagging flag")
    lead = () if seeds is None else seeds.shape
    shapes = _shapes(d, h, m)  # computed, not allocated: the dims are untrusted
    expected = (f" for d={d}, h={h}, m={m}"
                + (f" and {lead[0]} member seeds" if lead else ""))
    if version.tolist() == [2]:
        stored = _unflat(path, stored, lead, shapes, expected)
    _check_names(path, stored, shapes.keys())
    for name, shape in shapes.items():
        _check_array(path, name, stored[name], lead + shape, expected)
    weights = {k: v.astype(np.float64, copy=False) for k, v in stored.items()}  # copied below
    if bad := [k for k, v in weights.items() if not np.isfinite(v).all()]:
        raise ValueError(f"{path}: non-finite values in parameter {bad[0]}")
    if seeds is None:
        return ModelParams(d, h, m, weights)
    return Ensemble([ModelParams(d, h, m, {k: v[i] for k, v in weights.items()})
                     for i in range(len(seeds))], seeds.tolist(), bool(bagging))


def _check_names(path, stored: dict, names) -> None:
    if stored.keys() != names:
        raise ValueError(f"{path}: missing parameters {sorted(names - stored.keys())}, "
                         f"unexpected {sorted(stored.keys() - names)}")


def _check_array(path, name: str, array: np.ndarray, shape: tuple[int, ...],
                 expected: str) -> None:
    if array.shape != shape:
        raise ValueError(f"{path}: {name} has shape {array.shape}, expected {shape}{expected}")
    if array.dtype.kind != "f":  # a complex or boolean cast would lose data silently
        raise ValueError(f"{path}: {name} has dtype {array.dtype}, expected floating point")


def _unflat(path, stored: dict, lead: tuple[int, ...], shapes: dict,
            expected: str) -> dict[str, np.ndarray]:
    """Format 2's params, checked, as format 1's named arrays: views of its
    consecutive slices, each reshaped to lead + the weight's shape."""
    _check_names(path, stored, {"params"})
    params = stored["params"]
    sizes = [math.prod(shape) for shape in shapes.values()]  # Python ints, never allocated
    _check_array(path, "params", params, lead + (sum(sizes),), expected)
    named, start = {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        named[name] = params[..., start:start + size].reshape(lead + shape)
        start += size
    return named


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


def group_rows_bitwise(d: int, h: int, m: int) -> bool:
    """Whether this host's BLAS keeps the fact the forward rests on for a
    (d, h, m) model: each row of every product the model makes, in a call of
    three groups beside random rows, has the bits it has alone in a padded
    group; and predict equals predict_pair on a few random pairs."""
    rng = np.random.default_rng(0)
    for k, n in ((d, 3 * h), (h, 2 * h), (h, h), (2 * h, m), (m, 1)):
        w, x = rng.standard_normal((n, k)), rng.standard_normal((3 * _GROUP - 1, k))
        rows = _rows(x, w)
        if any(rows[i].tobytes() != _rows(x[i:i + 1], w).tobytes() for i in range(len(x))):
            return False
    params = init_params(d, h, m)
    seqs = [list(rng.standard_normal((int(rng.integers(1, 9)), d))) for _ in range(6)]
    pairs = [(0, 1), (2, 3), (4, 5), (5, 0), (1, 0)]
    got = predict([params], seqs, pairs)[:, 0]
    return all(v == predict_pair(seqs[a], seqs[b], params).r_hat for v, (a, b) in zip(got, pairs))
