"""Loss, Adam optimizer, training loop, and held-out evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Split
from .embeddings import EmbeddingTable, OovPolicy, embed_sequence
from .neural import (ModelParams, backward, init_params, predict, predict_pair,
                     zero_grads)
from .stats import pearson


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    grad_clip: float = 5.0
    batch_size: int = 32
    early_stop_patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0
    hidden_size: int = 64
    head_width: int = 32

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("Adam betas must lie in (0, 1)")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(zero_grads(params), zero_grads(params))


def mse_loss(r_hat: float, r: float) -> float:
    return (r_hat - r) ** 2


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale the whole gradient so its global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig) -> None:
    """One Adam update in place, after global-norm clipping.

    A non-finite gradient rejects the step and leaves parameters untouched.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name}; step rejected")
    grads = clip_gradients(grads, config.grad_clip)
    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    for name, g in grads.items():
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1 ** state.t)
        v_hat = state.v[name] / (1 - b2 ** state.t)
        params.weights[name] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)


def embed_pairs(corpus: Corpus, pairs, table: EmbeddingTable,
                oov: OovPolicy = OovPolicy.MEAN) -> dict[int, list[np.ndarray]]:
    """The embedded token sequence of every correlate named in pairs."""
    cids = dict.fromkeys(cid for pair in pairs for cid in pair)
    return {cid: embed_sequence(corpus.correlates[cid].tokens, table, oov) for cid in cids}


def _finding_pairs(corpus: Corpus, indices) -> list[tuple[int, int]]:
    return [(corpus.findings[i].correlate_a, corpus.findings[i].correlate_b) for i in indices]


def _mean_loss(params, corpus, indices, seqs) -> float:
    r_hats = predict([params], seqs, _finding_pairs(corpus, indices))[:, 0]
    total = 0.0
    for i, r_hat in zip(indices, r_hats.tolist()):
        total += mse_loss(r_hat, corpus.findings[i].r)
    return total / len(indices)


def train(corpus: Corpus, split: Split, table: EmbeddingTable,
          config: TrainConfig = TrainConfig(),
          train_indices=None) -> tuple[ModelParams, TrainReport]:
    """Train one model on the split's training findings.

    A fraction of the training findings (config.val_fraction, seeded) is
    held out for early stopping; the returned parameters are those of the
    best validation epoch. With val_fraction = 0 no early stopping happens
    and the logged validation loss equals the training loss.
    """
    indices = list(train_indices if train_indices is not None else split.train_indices)
    if not indices:
        raise TrainingError("empty train set")
    rng = np.random.default_rng(config.seed)

    n_val = int(round(config.val_fraction * len(indices)))
    if config.val_fraction > 0 and len(indices) >= 2:
        n_val = max(1, min(n_val, len(indices) - 1))
    else:
        n_val = 0
    perm = rng.permutation(len(indices))
    val_idx = [indices[i] for i in perm[:n_val]]
    fit_idx = [indices[i] for i in perm[n_val:]]

    seqs = embed_pairs(corpus, _finding_pairs(corpus, indices), table)
    params = init_params(table.dim, config.hidden_size, config.head_width, config.seed)
    state = AdamState.for_params(params)
    report = TrainReport()

    best_val = math.inf
    best_params = params.copy()
    stale = 0
    for epoch in range(config.epochs):
        epoch_rng = np.random.default_rng((config.seed, epoch))
        order = epoch_rng.permutation(len(fit_idx))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [fit_idx[j] for j in order[start:start + config.batch_size]]
            grads = zero_grads(params)
            for i in batch:
                f = corpus.findings[i]
                trace = predict_pair(seqs[f.correlate_a], seqs[f.correlate_b], params)
                epoch_loss += mse_loss(trace.r_hat, f.r)
                upstream = 2.0 * (trace.r_hat - f.r) / len(batch)
                for k, g in backward(trace, upstream, params).items():
                    grads[k] += g
            adam_step(params, grads, state, config)
        params.assert_finite()
        train_loss = epoch_loss / len(fit_idx)
        val_loss = _mean_loss(params, corpus, val_idx, seqs) if val_idx else train_loss
        report.train_losses.append(train_loss)
        report.val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            report.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if val_idx and stale > config.early_stop_patience:
                break
    if report.best_epoch < 0:
        best_params = params
    return best_params, report


def evaluate(params: ModelParams, corpus: Corpus, indices, table: EmbeddingTable,
             oov: OovPolicy = OovPolicy.MEAN) -> dict:
    """Predict each listed finding and correlate predictions with reports."""
    if not indices:
        raise ValueError("no finding indices to evaluate")
    pairs = _finding_pairs(corpus, indices)
    r_hats = predict([params], embed_pairs(corpus, pairs, table, oov), pairs)[:, 0].tolist()
    r_vals = [corpus.findings[i].r for i in indices]
    return {"pearson_r": pearson(r_vals, r_hats), "predictions": list(zip(r_vals, r_hats))}
