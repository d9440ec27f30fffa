"""Mean-value comparative baseline: predict from reported correlations only."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus


@dataclass(slots=True)  # slots: baseline_predict reads several fields per call
class BaselineModel:
    sums: list[float]  # correlate id -> sum of r over its training findings
    counts: list[int]  # correlate id -> number of its training findings
    global_mean: float
    # The corpus's, bound here since baseline_predict reads them once per pair.
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
    sums = np.bincount(ids, weights=np.repeat(r, 2), minlength=corpus.n_correlates)
    counts = np.bincount(ids, minlength=corpus.n_correlates)
    return BaselineModel(sums.tolist(), counts.tolist(), float(np.cumsum(r)[-1]) / n,
                         corpus.pair_rows, corpus.r,
                         np.bincount(train, minlength=corpus.n_findings).tolist(), mode)


def baseline_predict(model: BaselineModel, c_i: int, c_j: int) -> float:
    """Mean reported r over training findings containing either correlate.

    Findings that contain both correlates (i.e. report this very pair) are
    counted once. Pairs with no training coverage fall back to the global
    training mean. The "average" mode instead averages the two correlates'
    individual means. A self-pair, a correlate id that is not an integer and
    one outside [0, n_correlates) are refused.
    """
    if c_i == c_j:
        raise ValueError(f"pair ({c_i}, {c_j}) pairs correlate id {c_i} with itself")
    counts = model.counts
    try:  # the list index checks both ids
        if c_i < 0 or c_j < 0:  # a list would wrap a negative id
            raise IndexError
        n_i, n_j = counts[c_i], counts[c_j]
    except (IndexError, TypeError):
        for c in (c_i, c_j):
            try:
                c = operator.index(c)
            except TypeError:
                raise ValueError(f"correlate id {c} is not an integer") from None
            if not 0 <= c < len(counts):
                raise ValueError(f"correlate id {c} outside [0, {len(counts)})") from None
    if not n_i and not n_j:
        return model.global_mean
    s_i, s_j = model.sums[c_i], model.sums[c_j]
    if model.mode == "average":
        if n_i and n_j:
            return (s_i / n_i + s_j / n_j) / 2
        return (s_i + s_j) / (n_i + n_j)
    s_ij, n_ij = 0.0, 0
    if n_i and n_j:
        n = len(counts)
        # corpus.pair_keys for one pair, inlined: this runs once per predicted pair.
        key = c_i * n + c_j if c_i < c_j else c_j * n + c_i
        for k in model.pair_rows.get(key, ()):
            times = model.train_counts[k]
            if times:
                s_ij += times * model.r.item(k)
                n_ij += times
    return (s_i + s_j - s_ij) / (n_i + n_j - n_ij)
