"""Model ensembles and the Query-by-Committee search over untested pairs."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, Split, _pair_key
from .embeddings import EmbeddingTable, OovPolicy
from .neural import Ensemble, predict
from .stats import MwuResult, mann_whitney_u, pearson, quartiles
from .training import TrainConfig, embed_pairs, train


@dataclass
class EnsembleEstimate:
    pair: tuple[int, int]
    mean: float
    disagreement: float
    ci_half_width: float
    flagged: bool = False


def _train_member(args):
    corpus, split, table, config, seed, bagging = args
    member_config = replace(config, seed=seed)
    indices = list(split.train_indices)
    if bagging:
        rng = np.random.default_rng(seed)
        indices = [indices[i] for i in rng.integers(0, len(indices), size=len(indices))]
    params, _ = train(corpus, split, table, member_config, train_indices=indices)
    return params


def train_ensemble(corpus: Corpus, split: Split, table: EmbeddingTable,
                   config: TrainConfig, n_members: int, bagging: bool = True,
                   member_seeds=None, jobs: int = 1) -> Ensemble:
    """Train n_members independent models.

    Member k uses seed config.seed + k for initialization, shuffling, and
    (when bagging is on) its bootstrap resample of the training findings.
    """
    if n_members < 2:
        raise ValueError("n_members must be >= 2")
    if member_seeds is None:
        member_seeds = [config.seed + k for k in range(n_members)]
    elif len(member_seeds) != n_members:
        raise ValueError("need one seed per member")
    work = [(corpus, split, table, config, seed, bagging) for seed in member_seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            members = list(pool.map(_train_member, work))
    else:
        members = []
        for k, w in enumerate(work):
            try:
                members.append(_train_member(w))
            except Exception as exc:
                raise RuntimeError(f"training ensemble member {k} failed") from exc
    return Ensemble(members, list(member_seeds), bagging)


def summarize_predictions(preds, pair: tuple[int, int] = (-1, -1)) -> EnsembleEstimate:
    """Mean, sample standard deviation (divisor N-1), and 95% CI half-width
    of a list of member predictions."""
    preds = np.asarray(preds, dtype=np.float64)
    n = len(preds)
    mean = float(preds.mean())
    sd = float(preds.std(ddof=1))
    return EnsembleEstimate(pair, mean, sd, 1.96 * sd / math.sqrt(n))


def ensemble_estimate(ensemble: Ensemble, seq_a, seq_b,
                      pair: tuple[int, int] = (-1, -1)) -> EnsembleEstimate:
    """All-member prediction summary for one pair of embedded sequences."""
    return summarize_predictions(predict(ensemble.members, [seq_a, seq_b], [(0, 1)])[0], pair)


def sample_untested_pairs(corpus: Corpus, n_candidates: int, seed: int) -> list[tuple[int, int]]:
    """Distinct unordered correlate pairs absent from the corpus, uniformly
    at random given the seed."""
    ids = sorted(corpus.correlates)
    n = len(ids)
    if n < 2:
        raise ValueError("need at least 2 correlates")
    available = n * (n - 1) // 2 - len(corpus.pair_index)
    if available < n_candidates:
        raise ValueError(
            f"only {available} untested pairs available, {n_candidates} requested")
    rng = np.random.default_rng(seed)
    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(chosen) < n_candidates:
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        key = _pair_key(ids[int(i)], ids[int(j)])
        if key in seen or key in corpus.pair_index:
            continue
        seen.add(key)
        chosen.append(key)
    return chosen


def qbc_search(ensemble: Ensemble, corpus: Corpus, table: EmbeddingTable,
               n_candidates: int, seed: int, top_fraction: float = 0.01,
               oov: OovPolicy = OovPolicy.MEAN) -> list[EnsembleEstimate]:
    """Rank random untested pairs by ensemble disagreement, descending.

    The top ceil(top_fraction * n_candidates) estimates are flagged as the
    most informative candidates.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must be in (0, 1]")
    pairs = sample_untested_pairs(corpus, n_candidates, seed)
    preds = predict(ensemble.members, embed_pairs(corpus, pairs, table, oov), pairs)
    estimates = [summarize_predictions(row, pair) for row, pair in zip(preds, pairs)]
    estimates.sort(key=lambda e: (-e.disagreement, e.pair))
    n_flagged = math.ceil(top_fraction * n_candidates)
    for e in estimates[:n_flagged]:
        e.flagged = True
    return estimates


def disagreement_trend(estimates: list[EnsembleEstimate]) -> dict:
    """Linear trend between ensemble mean and disagreement, plus the
    Mann-Whitney comparison of disagreements in the lower vs upper quartile
    of the means."""
    if len(estimates) < 8:
        raise ValueError("need at least 8 estimates for a quartile comparison")
    means = [e.mean for e in estimates]
    sds = [e.disagreement for e in estimates]
    q1, q3 = quartiles(means)
    low = [e.disagreement for e in estimates if e.mean <= q1]
    high = [e.disagreement for e in estimates if e.mean >= q3]
    mwu: MwuResult = mann_whitney_u(low, high)
    return {"pearson_r": pearson(means, sds), "mwu": mwu}
