"""Output checks: a reference forward pass and brute-force recomputations.

Every check returns a list of failure messages; an empty list is a pass.
The reference forward implements the GRU and the [e_a + e_b ; |e_a - e_b|]
head from the equations documented in corrnet.neural, reading nothing but
``ModelParams.weights``.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-9
SAMPLE = 10


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def reference_encode(seq, w: dict) -> np.ndarray:
    h = np.zeros(w["b_z"].shape)
    for x in seq:
        z = _sigmoid(w["w_z"] @ x + w["u_z"] @ h + w["b_z"])
        r = _sigmoid(w["w_r"] @ x + w["u_r"] @ h + w["b_r"])
        c = np.tanh(w["w_c"] @ x + w["u_c"] @ (r * h) + w["b_c"])
        h = (1.0 - z) * h + z * c
    return h


def reference_predict(seq_a, seq_b, w: dict) -> float:
    e_a, e_b = reference_encode(seq_a, w), reference_encode(seq_b, w)
    u1 = np.tanh(w["head_w1"] @ np.concatenate([e_a + e_b, np.abs(e_a - e_b)]) + w["head_b1"])
    return float(np.tanh(w["head_w2"] @ u1 + w["head_b2"])[0])


def reference_committee(seq_a, seq_b, members) -> tuple[float, float]:
    """Mean and sample standard deviation of the members' predictions."""
    preds = np.array([reference_predict(seq_a, seq_b, p.weights) for p in members])
    return float(preds.mean()), float(preds.std(ddof=1))


def sample_indices(n: int, k: int = SAMPLE) -> list[int]:
    """k evenly spaced indices of range(n), always including the first."""
    return sorted({i * n // k for i in range(min(k, n))})


def in_range(values, what: str) -> list[str]:
    values = np.asarray(values, dtype=np.float64)
    bad = int(np.sum(~((values >= -1.0) & (values <= 1.0))))
    return [f"{what}: {bad} values outside [-1, 1]"] if bad else []


def finite_weights(params) -> list[str]:
    return [f"trained weight {k} is not finite" for k, v in params.weights.items()
            if not np.all(np.isfinite(v))]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def check_qbc(estimates, corpus, n_candidates: int, top: float, seq, members,
              swapped_estimate) -> list[str]:
    """Ranking contract, range, and sampled estimates against the reference.

    ``seq(c)`` is correlate c's vector sequence; ``swapped_estimate(a, b)``
    asks the program for the estimate of (b, a).
    """
    out = []
    pairs = [e.pair for e in estimates]
    if len(pairs) != n_candidates:
        out.append(f"qbc: {len(pairs)} estimates for {n_candidates} candidates")
    if len(set(pairs)) != len(pairs):
        out.append("qbc: duplicate candidate pairs")
    if any(a == b or (min(a, b), max(a, b)) in corpus.pair_index for a, b in pairs):
        out.append("qbc: a candidate pair is tested or degenerate")
    keys = [(-e.disagreement, e.pair) for e in estimates]
    if keys != sorted(keys):
        out.append("qbc: estimates not sorted by disagreement")
    n_flagged = math.ceil(top * n_candidates)
    if [e.flagged for e in estimates] != [i < n_flagged for i in range(len(estimates))]:
        out.append(f"qbc: flags are not exactly the top {n_flagged}")
    out += in_range([e.mean for e in estimates], "qbc means")
    for i in sample_indices(len(estimates)):
        e = estimates[i]
        a, b = e.pair
        for x, y in ((a, b), (b, a)):
            mean, sd = reference_committee(seq(x), seq(y), members)
            if not (_close(mean, e.mean) and _close(sd, e.disagreement)):
                out.append(f"qbc: pair {e.pair} order {(x, y)} differs from the reference forward")
        swapped = swapped_estimate(a, b)
        if (swapped.mean, swapped.disagreement) != (e.mean, e.disagreement):
            out.append(f"qbc: pair {e.pair} is not symmetric")
    return out


def check_trend(trend) -> list[str]:
    r, p = trend["pearson_r"], trend["mwu"].p_value
    if not (math.isfinite(r) and -1.0 <= r <= 1.0 and 0.0 <= p <= 1.0):
        return [f"trend: pearson r {r} or p-value {p} out of range"]
    return []


def check_table(ct, corpus, model_predict, export_paths) -> list[str]:
    """Symmetry, cell accounting, reported means, sampled predicted cells.

    ``model_predict(a, b)`` is the reference prediction for correlates a, b.
    """
    out = []
    n = len(ct.correlate_order)
    off = ~np.eye(n, dtype=bool)
    v = ct.values
    if not np.array_equal(v[off], v.T[off]) or not np.array_equal(ct.kinds, ct.kinds.T):
        out.append("infill: table is not symmetric")
    out += in_range(v[off], "infill values")
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    reported = [(i, j) for i, j in upper if ct.kinds[i, j] == "R"]
    predicted = [(i, j) for i, j in upper if ct.kinds[i, j] == "P"]
    if len(reported) + len(predicted) != n * (n - 1) // 2:
        out.append("infill: reported + predicted != n(n-1)/2")
    for i, j in reported:
        a, b = ct.correlate_order[i], ct.correlate_order[j]
        rs = [corpus.findings[k].r for k in corpus.pair_index[(min(a, b), max(a, b))]]
        if not _close(v[i, j], float(np.mean(rs))):
            out.append(f"infill: reported cell {(a, b)} is not the mean reported r")
    for k in sample_indices(len(predicted)):
        i, j = predicted[k]
        a, b = ct.correlate_order[i], ct.correlate_order[j]
        if not (_close(model_predict(a, b), v[i, j]) and _close(model_predict(b, a), v[i, j])):
            out.append(f"infill: cell {(a, b)} differs from the reference forward")
    for path in export_paths:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().count("\n")
        if lines != n + 1:
            out.append(f"infill: {path} has {lines} lines, expected {n + 1}")
    return out


def brute_force_baseline(corpus, train_indices, pairs) -> list[float]:
    """Mean r of the training findings that involve a or b, for each (a, b).

    One pass over the training findings keeps only those that touch a
    correlate of ``pairs``; a pair with no such finding gets the mean of all.
    """
    wanted = {c for pair in pairs for c in pair}
    touching: dict[int, set[int]] = {c: set() for c in wanted}
    total = 0.0
    for i in train_indices:
        f = corpus.findings[i]
        total += f.r
        for c in (f.correlate_a, f.correlate_b):
            if c in wanted:
                touching[c].add(i)
    global_mean = total / len(train_indices)
    out = []
    for a, b in pairs:
        union = touching[a] | touching[b]
        out.append(float(np.mean([corpus.findings[i].r for i in sorted(union)]))
                   if union else global_mean)
    return out


def check_baseline(corpus, train_indices, pairs, preds) -> list[str]:
    out = in_range(preds, "baseline predictions")
    sample = sample_indices(len(pairs), 50)
    expected = brute_force_baseline(corpus, train_indices, [pairs[k] for k in sample])
    for k, want in zip(sample, expected):
        if not _close(want, preds[k]):
            out.append(f"baseline: prediction for {pairs[k]} differs from brute force")
    return out
