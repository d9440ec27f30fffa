"""Model ensembles and the Query-by-Committee search over untested pairs."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, Split
from .embeddings import EmbeddingTable
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


def _train_member(seed, corpus, split, table, config, bagging):
    member_config = replace(config, seed=seed)
    indices = list(split.train_indices)
    if bagging:
        rng = np.random.default_rng(seed)
        indices = [indices[i] for i in rng.integers(0, len(indices), size=len(indices))]
    params, _ = train(corpus, split, table, member_config, train_indices=indices)
    return params


_shared: tuple = ()  # a pool worker's (corpus, split, table, config, bagging)


def _share(*inputs) -> None:
    global _shared
    _shared = inputs


def _train_shared_member(seed):
    return _train_member(seed, *_shared)


def train_ensemble(corpus: Corpus, split: Split, table: EmbeddingTable,
                   config: TrainConfig, n_members: int, bagging: bool = True,
                   jobs: int = 1) -> Ensemble:
    """Train n_members independent models, in up to jobs worker processes.

    Member k uses seed config.seed + k for initialization, shuffling, and
    (when bagging is on) its bootstrap resample of the training findings.
    Each worker process receives the corpus and the other shared inputs once,
    when it starts; a task carries only its member's seed.
    """
    if n_members < 2:
        raise ValueError("n_members must be >= 2")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = [config.seed + k for k in range(n_members)]
    members = []
    with (ProcessPoolExecutor(max_workers=min(jobs, n_members), initializer=_share,
                              initargs=(corpus, split, table, config, bagging))
          if jobs > 1 else nullcontext()) as pool:
        results = (pool.map(_train_shared_member, seeds) if pool else
                   (_train_member(seed, corpus, split, table, config, bagging)
                    for seed in seeds))
        for k, seed in enumerate(seeds):
            try:
                members.append(next(results))
            except ValueError as exc:
                raise ValueError(f"training ensemble member {k} (seed {seed}) failed: {exc}") from exc
    return Ensemble(members, seeds, bagging)


def summarize_rows(preds, pairs) -> list[EnsembleEstimate]:
    """Mean, sample standard deviation (divisor K-1), and 95% CI half-width
    of each row of an (n, K) array of member predictions; row i is pairs[i]."""
    preds = np.asarray(preds, dtype=np.float64)
    means, sds = preds.mean(axis=1), preds.std(axis=1, ddof=1)
    half_widths = 1.96 * sds / math.sqrt(preds.shape[1])
    return list(map(EnsembleEstimate, pairs, means.tolist(), sds.tolist(), half_widths.tolist()))


def ensemble_estimate(ensemble: Ensemble, seq_a, seq_b,
                      pair: tuple[int, int] = (-1, -1)) -> EnsembleEstimate:
    """All-member prediction summary for one pair of embedded sequences."""
    return summarize_rows(predict(ensemble.members, [seq_a, seq_b], [(0, 1)]), [pair])[0]


def sample_untested_pairs(corpus: Corpus, n_candidates: int, seed: int) -> list[tuple[int, int]]:
    """Distinct unordered correlate pairs absent from the corpus, uniformly
    at random given the seed."""
    if n_candidates < 0:
        raise ValueError(f"n_candidates must be >= 0, got {n_candidates}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = corpus.n_correlates
    if n < 2:
        raise ValueError("need at least 2 correlates")
    available = n * (n - 1) // 2 - len(corpus.pair_rows)
    if available < n_candidates:
        raise ValueError(
            f"only {available} untested pairs available, {n_candidates} requested")
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < n_candidates:
        # A (k, 2) draw holds the values of k draws of 2, in order, and the
        # generator is local, so drawing more pairs than are kept changes nothing.
        draws = rng.integers(0, n, size=(max(64, 2 * (n_candidates - len(keys))), 2))
        draws = draws[draws[:, 0] != draws[:, 1]]
        drawn = corpus.pair_keys(draws[:, 0], draws[:, 1])
        untested = np.fromiter((k not in corpus.pair_rows for k in drawn.tolist()),
                               dtype=bool, count=len(drawn))
        keys = np.concatenate((keys, drawn[untested]))
        keys = keys[np.sort(np.unique(keys, return_index=True)[1])]  # first draws, in order
    return [divmod(k, n) for k in keys[:n_candidates].tolist()]


def qbc_search(ensemble: Ensemble, corpus: Corpus, table: EmbeddingTable,
               n_candidates: int, seed: int, top_fraction: float = 0.01) -> list[EnsembleEstimate]:
    """Rank random untested pairs by ensemble disagreement, descending.

    The top ceil(top_fraction * n_candidates) estimates are flagged as the
    most informative candidates.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must be in (0, 1]")
    pairs = sample_untested_pairs(corpus, n_candidates, seed)
    preds = predict(ensemble.members, embed_pairs(corpus, pairs, table), pairs)
    estimates = summarize_rows(preds, pairs)
    estimates.sort(key=lambda e: (-e.disagreement, e.pair))
    n_flagged = math.ceil(top_fraction * n_candidates)
    for e in estimates[:n_flagged]:
        e.flagged = True
    return estimates


MIN_TREND_ESTIMATES = 8


def disagreement_trend(estimates: list[EnsembleEstimate]) -> dict:
    """Linear trend between ensemble mean and disagreement, plus the
    Mann-Whitney comparison of disagreements in the lower vs upper quartile
    of the means."""
    if len(estimates) < MIN_TREND_ESTIMATES:
        raise ValueError(f"need at least {MIN_TREND_ESTIMATES} estimates for a quartile comparison")
    means = [e.mean for e in estimates]
    sds = [e.disagreement for e in estimates]
    q1, q3 = quartiles(means)
    low = [e.disagreement for e in estimates if e.mean <= q1]
    high = [e.disagreement for e in estimates if e.mean >= q3]
    mwu: MwuResult = mann_whitney_u(low, high)
    return {"pearson_r": pearson(means, sds), "mwu": mwu}
