"""Mean-value comparative baseline: predict from reported correlations only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus


@dataclass(slots=True)  # slots: baseline_predict reads several fields per call
class BaselineModel:
    per_correlate: dict[int, tuple[float, int]]  # id -> (sum of r, count)
    global_mean: float
    # The corpus's, bound here since baseline_predict reads them once per pair.
    n_correlates: int
    pair_rows: dict[int, tuple[int, ...]]
    r: np.ndarray
    train_counts: list[int]  # finding index -> occurrences among the training indices
    mode: str = "pool"  # "pool": union of findings; "average": mean of the two means


def fit_baseline(corpus: Corpus, train_indices, mode: str = "pool") -> BaselineModel:
    """Accumulate per-correlate r sums/counts over the training findings.

    Every occurrence of an index counts. The sums add r in the order of
    `train_indices`, as a loop over the findings would.
    """
    if mode not in ("pool", "average"):
        raise ValueError("mode must be 'pool' or 'average'")
    train = corpus.check_indices(train_indices, "train")
    n = len(train)
    if not n:
        raise ValueError("train set is empty")
    ids = np.empty(2 * n, dtype=np.int64)  # a0, b0, a1, b1, ...
    ids[0::2] = corpus.a[train]
    ids[1::2] = corpus.b[train]
    r = corpus.r[train]
    # bincount and cumsum add in array order, so both match the sequential sums.
    sums = np.bincount(ids, weights=np.repeat(r, 2))
    counts = np.bincount(ids)
    seen = np.flatnonzero(counts)
    per_correlate = dict(zip(seen.tolist(), zip(sums[seen].tolist(), counts[seen].tolist())))
    return BaselineModel(per_correlate, float(np.cumsum(r)[-1]) / n, corpus.n_correlates,
                         corpus.pair_rows, corpus.r,
                         np.bincount(train, minlength=corpus.n_findings).tolist(), mode)


def baseline_predict(model: BaselineModel, c_i: int, c_j: int) -> float:
    """Mean reported r over training findings containing either correlate.

    Findings that contain both correlates (i.e. report this very pair) are
    counted once. Pairs with no training coverage fall back to the global
    training mean. The "average" mode instead averages the two correlates'
    individual means. A self-pair and a correlate id outside
    [0, n_correlates) are refused.
    """
    if c_i == c_j:
        raise ValueError(f"pair ({c_i}, {c_j}) pairs correlate id {c_i} with itself")
    per_correlate = model.per_correlate
    seen_i, seen_j = per_correlate.get(c_i), per_correlate.get(c_j)
    if seen_i is None or seen_j is None:  # an id outside the corpus lands here
        n = model.n_correlates
        for c in (c_i, c_j):
            if not 0 <= c < n:
                raise ValueError(f"correlate id {c} outside [0, {n})")
        if seen_i is None and seen_j is None:
            return model.global_mean
    if model.mode == "average":
        means = [s / c for entry in (seen_i, seen_j) if entry is not None
                 for s, c in [entry]]
        return sum(means) / len(means)
    s_i, c_count_i = seen_i if seen_i is not None else (0.0, 0)
    s_j, c_count_j = seen_j if seen_j is not None else (0.0, 0)
    s_ij, c_ij = 0.0, 0
    if seen_i is not None and seen_j is not None:  # both ids are then in the corpus
        n = model.n_correlates
        # corpus.pair_keys for one pair, inlined: this runs once per predicted pair.
        key = c_i * n + c_j if c_i < c_j else c_j * n + c_i
        for k in model.pair_rows.get(key, ()):
            times = model.train_counts[k]
            if times:
                s_ij += times * model.r.item(k)
                c_ij += times
    return (s_i + s_j - s_ij) / (c_count_i + c_count_j - c_ij)
