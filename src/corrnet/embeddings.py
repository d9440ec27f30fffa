"""Pretrained word vector loading and token-sequence embedding.

The vector file format matches the common text distribution of pretrained
embeddings (Numberbatch, GloVe, fastText): an optional "<count> <dim>"
header line, then one "<token> <v1> ... <vd>" line per word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EmbeddingError(Exception):
    """Raised for malformed vector files."""


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]
    mean_vector: np.ndarray


def _is_header(fields: list[str]) -> bool:
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def load_embeddings(path, vocab_filter: set[str] | None = None) -> EmbeddingTable:
    """Load a vector text file, optionally restricted to a token set.

    The mean vector is computed over the loaded (post-filter) entries. A
    loaded row with a nan or inf component, or whose token was already
    loaded, is an error naming its line.
    """
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if lineno == 1 and _is_header(fields):
                continue
            token, values = fields[0], fields[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise EmbeddingError(f"{path}:{lineno}: no vector components")
            elif len(values) != dim:
                raise EmbeddingError(
                    f"{path}:{lineno}: expected {dim} components, got {len(values)}")
            if vocab_filter is not None and token not in vocab_filter:
                continue
            if token in vectors:
                raise EmbeddingError(f"{path}:{lineno}: duplicated token {token!r}")
            try:
                vec = np.array(values, dtype=np.float64)
            except ValueError:
                raise EmbeddingError(f"{path}:{lineno}: unparseable vector component") from None
            if not np.isfinite(vec).all():
                raise EmbeddingError(f"{path}:{lineno}: non-finite vector component")
            vectors[token] = vec
    if dim is None or not vectors:
        raise EmbeddingError(f"{path}: no vectors loaded")
    mean = np.mean(list(vectors.values()), axis=0)
    return EmbeddingTable(dim, vectors, mean)


def make_table(tokens_to_vectors: dict[str, np.ndarray]) -> EmbeddingTable:
    """Build a table directly from a token->vector map (tests, synthesis)."""
    if not tokens_to_vectors:
        raise EmbeddingError("empty vector map")
    vecs = {t: np.asarray(v, dtype=np.float64) for t, v in tokens_to_vectors.items()}
    dims = {v.shape for v in vecs.values()}
    if len(dims) != 1:
        raise EmbeddingError("inconsistent vector lengths")
    dim = next(iter(dims))[0]
    return EmbeddingTable(dim, vecs, np.mean(list(vecs.values()), axis=0))


def random_table(n_tokens: int, dim: int, seed: int = 0) -> EmbeddingTable:
    """Deterministic random vocabulary, used by the synthetic generator."""
    rng = np.random.default_rng(seed)
    vecs = {f"w{i:04d}": rng.standard_normal(dim) for i in range(n_tokens)}
    return make_table(vecs)


def embed_sequence(tokens, table: EmbeddingTable) -> list[np.ndarray]:
    """The table's own vector for each token; an out-of-vocabulary token
    gets table.mean_vector."""
    if not tokens:
        raise ValueError("token sequence is empty")
    return [table.vectors.get(tok, table.mean_vector) for tok in tokens]
