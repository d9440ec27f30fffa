"""Loss, Adam optimizer, training loop, and held-out evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Split
from .embeddings import EmbeddingTable, embed_sequence
from .neural import (ModelParams, backward, init_params, predict, predict_pair,
                     zero_grads)
from .stats import pearson

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    batch_size: int = 32
    early_stop_patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0
    hidden_size: int = 64
    head_width: int = 32

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:  # "not <" also rejects nan
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not self.grad_clip > 0:
            raise ValueError("grad_clip must be positive")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")
        for name in ("batch_size", "hidden_size", "head_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.val_fraction < 1:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")


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
    """One Adam update of every weight array in place, after global-norm
    clipping, so the GRU's named weights stay views of the stacked kernels.

    A non-finite gradient rejects the step and leaves parameters untouched.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name}; step rejected")
    grads = clip_gradients(grads, config.grad_clip)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, g in grads.items():
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1 ** state.t)
        v_hat = state.v[name] / (1 - b2 ** state.t)
        w = params.weights[name]
        w -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def embed_pairs(corpus: Corpus, pairs, table: EmbeddingTable) -> dict[int, list[np.ndarray]]:
    """The embedded token sequence of every correlate named in pairs, a list
    of (a, b) pairs or an (n, 2) int array."""
    cids = np.unique(np.asarray(pairs, dtype=np.int64)).tolist()
    return {cid: embed_sequence(corpus.correlates[cid].tokens, table) for cid in cids}


def _finding_pairs(corpus: Corpus, indices) -> np.ndarray:
    rows = list(indices)
    return np.column_stack((corpus.a[rows], corpus.b[rows]))


def _mean_loss(params, corpus, indices, seqs) -> float:
    r_hats = predict([params], seqs, _finding_pairs(corpus, indices))[:, 0]
    total = 0.0
    for r, r_hat in zip(corpus.r[list(indices)].tolist(), r_hats.tolist()):
        total += mse_loss(r_hat, r)
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
        raise ValueError("empty train set")
    corpus.check_indices(indices, "train")
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
    best_params = params
    stale = 0
    for epoch in range(config.epochs):
        epoch_rng = np.random.default_rng((config.seed, epoch))
        order = epoch_rng.permutation(len(fit_idx))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [fit_idx[j] for j in order[start:start + config.batch_size]]
            grads = zero_grads(params)
            for a, b, r in zip(corpus.a[batch].tolist(), corpus.b[batch].tolist(),
                               corpus.r[batch].tolist()):
                trace = predict_pair(seqs[a], seqs[b], params)
                epoch_loss += mse_loss(trace.r_hat, r)
                upstream = 2.0 * (trace.r_hat - r) / len(batch)
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
    return best_params, report


def evaluate(params: ModelParams, corpus: Corpus, indices, table: EmbeddingTable) -> dict:
    """Predict each listed finding and correlate predictions with reports."""
    if len(indices) < 2:  # pearson needs two of each
        raise ValueError(f"evaluate needs at least 2 finding indices, got {len(indices)}")
    corpus.check_indices(indices, "evaluated")
    pairs = _finding_pairs(corpus, indices)
    r_hats = predict([params], embed_pairs(corpus, pairs, table), pairs)[:, 0].tolist()
    r_vals = corpus.r[list(indices)].tolist()
    return {"pearson_r": pearson(r_vals, r_hats), "predictions": list(zip(r_vals, r_hats))}
