"""Self-contained statistical primitives: Pearson R, Mann-Whitney U, quartiles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateDataError(ValueError):
    """Raised when a statistic is undefined for the given data."""


@dataclass(frozen=True)
class MwuResult:
    u_statistic: float
    p_value: float
    n1: int
    n2: int


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length series."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson needs two equal-length series of length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    # x - x.mean() keeps rounding error of order 1e-16 * |x| even when every
    # value is equal, so a spread below 1e-12 of the series' norm counts as none.
    if sx <= 1e-12 * float(np.linalg.norm(x)) or sy <= 1e-12 * float(np.linalg.norm(y)):
        raise DegenerateDataError("correlation undefined: a series has zero variance")
    return float(dx @ dy) / (sx * sy)


def mann_whitney_u(a, b) -> MwuResult:
    """Two-sided Mann-Whitney U with midranks for ties.

    The U statistic is reported for sample ``a`` (the number of (a, b)
    pairs where a beats b, counting ties as half). The p-value uses the
    normal approximation with tie correction and continuity correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    # A tie group of c values ending at sorted position e has midrank e - (c - 1) / 2.
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    r1 = float(ranks[:n1].sum())
    u = r1 - n1 * (n1 + 1) / 2.0

    n = n1 + n2
    tie_term = float(np.sum(counts ** 3 - counts))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if var <= 0.0:
        return MwuResult(u, 1.0, n1, n2)
    mean_u = n1 * n2 / 2.0
    z = (abs(u - mean_u) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return MwuResult(u, p, n1, n2)


def quartiles(x) -> tuple[float, float]:
    """Linear-interpolation (inclusive) quantiles at 0.25 and 0.75."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 4:
        raise ValueError("quartiles need at least 4 values")
    q1, q3 = np.quantile(x, [0.25, 0.75], method="linear")
    return float(q1), float(q3)
