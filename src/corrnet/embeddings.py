"""Pretrained word vector loading and token-sequence embedding.

The vector file format matches the common text distribution of pretrained
embeddings (Numberbatch, GloVe, fastText): an optional "<count> <dim>"
header line, then one "<token> <v1> ... <vd>" line per word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .textnorm import utf8_errors


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]
    mean_vector: np.ndarray


def _header(fields: list[str]) -> tuple[int, int] | None:
    """(count, dim) if fields are a "<count> <dim>" header."""
    if len(fields) != 2:
        return None
    try:
        return int(fields[0]), int(fields[1])
    except ValueError:
        return None


def load_embeddings(path) -> EmbeddingTable:
    """Load a vector text file: every non-blank row after an optional header.

    One streaming pass parses the rows into one (V, d) float64 matrix, and
    the mean vector, which out-of-vocabulary tokens get, is computed over
    every row of the file. Every row must be as wide as the first, and a
    "<count> <dim>" header must match the rows. A row with an unparseable,
    nan or inf component, or whose token came before, is an error naming
    its line.
    """
    index: dict[str, int] = {}  # each token's line, in file order
    header = dim = error = None

    def rows():
        """The component text of each row. The first error seen here ends the
        walk, so a bad row parsed before it is still reported first."""
        nonlocal header, dim, error
        try:
            with open(path, encoding="utf-8") as fh, utf8_errors(path):
                for lineno, line in enumerate(fh, start=1):
                    parts = line.split(None, 1)
                    if not parts:
                        continue
                    if lineno == 1 and (header := _header(line.split())):
                        continue
                    token, values = parts[0], parts[1] if len(parts) == 2 else ""
                    if dim is None:
                        dim = len(values.split())
                        if dim == 0:
                            error = ValueError(f"{path}:{lineno}: no vector components")
                        elif header and header[1] != dim:
                            error = ValueError(f"{path}:1: header gives {header[1]} "
                                               f"components, the vectors have {dim}")
                    # Width-check the two rows loadtxt must not see: an empty one,
                    # which it would skip, shifting every later vector onto the
                    # wrong token, and a duplicate, whose width error comes first.
                    elif not values or token in index:
                        if (n := len(values.split())) != dim:
                            error = _width_error(path, lineno, dim, n)
                    if error is None and token in index:
                        error = ValueError(f"{path}:{lineno}: duplicated token {token!r}")
                    if error is not None:
                        return
                    index[token] = lineno
                    yield values
        except ValueError as exc:  # not valid UTF-8; loadtxt would take it for a bad row
            error = exc

    lines = rows()
    first = next(lines, None)
    matrix = None
    if first is not None:
        try:
            matrix = np.loadtxt(itertools.chain([first], lines), dtype=np.float64,
                                comments=None, ndmin=2)
        except ValueError:
            matrix = None
        if matrix is None or matrix.shape[1] != dim or not np.isfinite(matrix).all():
            _raise_first_bad_row(path, index.values(), dim)
        if len(matrix) != len(index):  # loadtxt skipped a row it was given
            raise ValueError(f"{path}: {len(matrix)} vectors parsed "
                             f"for {len(index)} tokens")
    if error is not None:
        raise error
    if header and header[0] != len(index):
        raise ValueError(f"{path}:1: header gives {header[0]} vectors, "
                         f"the file has {len(index)}")
    if matrix is None:
        raise ValueError(f"{path}: no vectors loaded")
    return _table(list(index), matrix, f"{path}: ")


def _width_error(path, lineno: int, dim: int, n: int) -> ValueError:
    return ValueError(f"{path}:{lineno}: expected {dim} components, got {n}")


def _raise_first_bad_row(path, linenos, dim: int) -> None:
    """Raise the error of the first of the given lines whose components are
    not dim finite numbers, parsing each line as load_embeddings's one pass
    does. Only runs once that pass has found a bad row."""
    wanted = set(linenos)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno not in wanted:
                continue
            values = line.split(None, 1)[1]
            if (n := len(values.split())) != dim:
                raise _width_error(path, lineno, dim, n)
            try:
                row = np.loadtxt([values], dtype=np.float64, comments=None, ndmin=2)
            except ValueError:
                row = None
            if row is None or row.shape != (1, dim):
                raise ValueError(f"{path}:{lineno}: unparseable vector component")
            if not np.isfinite(row).all():
                raise ValueError(f"{path}:{lineno}: non-finite vector component")
    raise AssertionError(f"{path}: the vector parse failed on no single line")


def _table(tokens: list[str], matrix: np.ndarray, where: str = "") -> EmbeddingTable:
    """The one table layout: tokens[i] maps to row i of the (V, d) matrix, a
    view made once, so every lookup returns the same array. The mean vector,
    which out-of-vocabulary tokens get, must be finite; `where` prefixes the
    error."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = matrix.mean(axis=0)
    if not np.isfinite(mean).all():
        raise ValueError(f"{where}the mean of the loaded vectors is not finite")
    return EmbeddingTable(matrix.shape[1], dict(zip(tokens, matrix)), mean)


def make_table(tokens_to_vectors: dict[str, np.ndarray]) -> EmbeddingTable:
    """Build a table directly from a token->vector map (tests, synthesis)."""
    if not tokens_to_vectors:
        raise ValueError("empty vector map")
    vecs = [np.asarray(v, dtype=np.float64) for v in tokens_to_vectors.values()]
    if len({v.shape for v in vecs}) != 1:
        raise ValueError("inconsistent vector lengths")
    return _table(list(tokens_to_vectors), np.stack(vecs))


def random_table(n_tokens: int, dim: int, seed: int = 0) -> EmbeddingTable:
    """Deterministic random vocabulary, used by the synthetic generator."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    vecs = {f"w{i:04d}": rng.standard_normal(dim) for i in range(n_tokens)}
    return make_table(vecs)


def embed_sequence(tokens, table: EmbeddingTable) -> list[np.ndarray]:
    """The table's own vector for each token; an out-of-vocabulary token
    gets table.mean_vector."""
    if not tokens:
        raise ValueError("token sequence is empty")
    return [table.vectors.get(tok, table.mean_vector) for tok in tokens]
