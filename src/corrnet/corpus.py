"""Corpora of correlational findings: loading, splitting, stats, synthesis.

The on-disk findings format is UTF-8 text, one finding per line, with
tab-separated fields: paper_id, year, correlate_a_text, correlate_b_text, r.
Lines starting with '#' are comments.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingTable
from .textnorm import normalize, utf8_errors


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


# The records are named tuples: immutable, and equal to plain tuples of their
# fields. A correlate's id is its position: the keys of Corpus.correlates are
# 0..n-1. A corpus stores no Finding; its `findings` view builds them.
class Correlate(NamedTuple):
    raw_text: str
    tokens: tuple[str, ...]


class Finding(NamedTuple):
    correlate_a: int
    correlate_b: int
    r: float
    paper_id: str
    year: int


class _Findings(Sequence):
    """Read-only view of a corpus's findings. Each access, iteration included,
    builds the Finding from the columns, with Python scalars; nothing per
    finding is stored."""

    def __init__(self, a, b, r, paper_ids, paper_code, year):
        self._columns = (a, b, r, paper_ids, paper_code, year)

    def __len__(self) -> int:
        return len(self._columns[2])

    def __getitem__(self, i) -> Finding:
        a, b, r, paper_ids, paper_code, year = self._columns
        return Finding(a.item(i), b.item(i), r.item(i), paper_ids[paper_code.item(i)],
                       year.item(i))


class _PairIndex(Mapping):
    """Read-only (lo, hi)-keyed view of a corpus's int-keyed pair index."""

    def __init__(self, pair_rows: dict[int, tuple[int, ...]], n_correlates: int):
        self._rows, self._n = pair_rows, n_correlates

    def __getitem__(self, key) -> tuple[int, ...]:
        try:
            lo, hi = key
            if 0 <= lo < hi < self._n:
                return self._rows[lo * self._n + hi]
        except (TypeError, ValueError, KeyError):
            pass
        raise KeyError(key)

    def __iter__(self):
        return (divmod(k, self._n) for k in self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class Corpus:
    """Correlates, and findings kept as one array per field.

    A correlate's id is its position: the keys of `correlates` must be
    0..n_correlates-1, and every finding's ids must lie in [0, n_correlates);
    the constructor refuses anything else, and also finding columns of unequal
    length, a paper code outside paper_ids and a finding whose two ids are
    equal. Finding i reports correlation r[i] between correlates a[i] and b[i]
    (int64 ids; r float64), published in year[i] by paper
    paper_ids[paper_code[i]]; paper_ids is in first-seen order. A pair of
    correlates lo < hi has the int key lo * n_correlates + hi, and pair_rows
    maps each reported pair's key to its finding indices in finding order.
    Its values are tuples of ints, which the cyclic garbage collector stops
    tracking. `findings` and `pair_index` are read-only views: Finding
    records, and pair_rows keyed by (lo, hi).
    """

    def __init__(self, correlates: dict[int, Correlate], a, b, r, year, paper_code,
                 paper_ids: list[str]):
        self.correlates = correlates
        self.a, self.b, self.year, self.paper_code = (
            np.array(col, dtype=np.int64) for col in (a, b, year, paper_code))
        self.r = np.array(r, dtype=np.float64)
        self.paper_ids = paper_ids
        columns = {"a": self.a, "b": self.b, "r": self.r, "year": self.year,
                   "paper_code": self.paper_code}
        if len({len(col) for col in columns.values()}) > 1:
            raise ValueError("finding columns of unequal length: "
                             + ", ".join(f"{k} {len(col)}" for k, col in columns.items()))
        codes = self.paper_code
        if codes.min(initial=0) < 0 or codes.max(initial=-1) >= len(paper_ids):
            i = np.flatnonzero((codes < 0) | (codes >= len(paper_ids)))[0]
            raise ValueError(f"finding {i} names paper code {codes[i]}, "
                             f"outside [0, {len(paper_ids)})")
        n = self.n_correlates = len(correlates)
        low, high = min(correlates, default=0), max(correlates, default=-1)
        if low != 0 or high != n - 1:
            raise ValueError(f"correlate id {low if low < 0 else high} is not a position: "
                             f"the ids of {n} correlates must be 0..{n - 1}")
        if (min(self.a.min(initial=0), self.b.min(initial=0)) < 0
                or max(self.a.max(initial=-1), self.b.max(initial=-1)) >= n):
            ab = np.column_stack((self.a, self.b))
            i, j = np.argwhere((ab < 0) | (ab >= n))[0].tolist()
            raise ValueError(f"finding {i} names correlate id {ab[i, j]}, outside [0, {n})")
        if (self_pairs := np.flatnonzero(self.a == self.b)).size:
            i = self_pairs[0]
            raise ValueError(f"finding {i} pairs correlate id {self.a[i]} with itself")
        keys = self.pair_keys(self.a, self.b)
        # Each key gets a 1-tuple of its last finding, in first-report order;
        # only the keys reported more than once are then gathered again.
        self.pair_rows = dict(zip(keys.tolist(), zip(range(len(keys)))))
        if len(self.pair_rows) < len(keys):
            _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
            repeated = np.flatnonzero(counts[inverse] > 1)
            rows: dict[int, list[int]] = {}
            for k, i in zip(keys[repeated].tolist(), repeated.tolist()):
                rows.setdefault(k, []).append(i)
            for k, idx in rows.items():
                self.pair_rows[k] = tuple(idx)
        self.findings = _Findings(self.a, self.b, self.r, paper_ids, self.paper_code, self.year)
        self.pair_index = _PairIndex(self.pair_rows, n)

    def pair_keys(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The pair_rows key of each unordered pair {a[i], b[i]} of two int64
        arrays; every id must lie in [0, n_correlates)."""
        return np.minimum(a, b) * self.n_correlates + np.maximum(a, b)

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.correlates == other.correlates and self.paper_ids == other.paper_ids
                and all(np.array_equal(x, y) for x, y in zip(
                    (self.a, self.b, self.r, self.year, self.paper_code),
                    (other.a, other.b, other.r, other.year, other.paper_code))))

    @property
    def n_findings(self) -> int:
        return len(self.r)

    def check_indices(self, indices, role: str) -> None:
        """Refuse finding indices that are not integers, or outside
        [0, n_findings), naming the first by its role; numpy would wrap a
        negative one to a finding silently."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":
            raise ValueError(f"{role} indices must be integers, got {idx.dtype}")
        bad = idx[(idx < 0) | (idx >= self.n_findings)]
        if len(bad):
            raise ValueError(f"{role} index {bad[0]} outside the corpus's "
                             f"{self.n_findings} findings")


@dataclass(frozen=True)
class Split:
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]
    seed: int


class _CorrelateInterner:
    """Assigns one stable id per normalized token sequence."""

    def __init__(self):
        self._by_tokens: dict[tuple[str, ...], int] = {}
        self.correlates: dict[int, Correlate] = {}

    def intern(self, raw_text: str, tokens: tuple[str, ...]) -> int:
        cid = self._by_tokens.get(tokens)
        if cid is None:
            cid = len(self.correlates)
            self._by_tokens[tokens] = cid
            self.correlates[cid] = Correlate(raw_text, tokens)
        return cid


def load_corpus(path) -> Corpus:
    """Load and validate a findings file.

    Correlates with the same normalized token sequence share one id. Rejects
    findings whose r is outside [-1, 1], whose correlates coincide, or whose
    correlate text normalizes to an empty token list. Each distinct raw text
    is normalized once.
    """
    interner = _CorrelateInterner()
    id_of: dict[str, int] = {}  # raw text -> correlate id

    def correlate_id(text: str, lineno: int) -> int:
        """The id of a text not seen before in this file."""
        tokens = tuple(normalize(text))
        if not tokens:
            raise ValueError(f"{path}:{lineno}: correlate text normalizes to empty token list")
        cid = id_of[text] = interner.intern(text, tokens)
        return cid

    a, b, r, year, paper_code = [], [], [], [], []
    paper_codes: dict[str, int] = {}  # paper id -> its index in first-seen order
    with open(path, encoding="utf-8") as fh, utf8_errors(path):
        for lineno, line in enumerate(fh, start=1):
            s = line.lstrip()
            if not s or s[0] == "#":
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(fields)}")
            paper_id, year_s, text_a, text_b, r_s = fields
            try:
                year_i = int(year_s)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable year {year_s!r}") from None
            if not _INT64_MIN <= year_i <= _INT64_MAX:
                raise ValueError(f"{path}:{lineno}: year {year_s!r} outside the int64 range")
            try:
                r_f = float(r_s)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable r {r_s!r}") from None
            if not -1.0 <= r_f <= 1.0:
                raise ValueError(f"{path}:{lineno}: r = {r_f} outside [-1, 1]")
            id_a = id_of.get(text_a)
            if id_a is None:
                id_a = correlate_id(text_a, lineno)
            id_b = id_of.get(text_b)
            if id_b is None:
                id_b = correlate_id(text_b, lineno)
            if id_a == id_b:
                raise ValueError(f"{path}:{lineno}: both correlates normalize to the same variable")
            a.append(id_a)
            b.append(id_b)
            r.append(r_f)
            year.append(year_i)
            paper_code.append(paper_codes.setdefault(paper_id, len(paper_codes)))
    if not r:
        raise ValueError(f"{path}: empty corpus")
    return Corpus(interner.correlates, a, b, r, year, paper_code, list(paper_codes))


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus in the findings file format (r to 6 decimals)."""
    texts = {cid: c.raw_text for cid, c in corpus.correlates.items()}
    with open(path, "w", encoding="utf-8") as fh:
        for code, year, a, b, r in zip(corpus.paper_code.tolist(), corpus.year.tolist(),
                                       corpus.a.tolist(), corpus.b.tolist(), corpus.r.tolist()):
            fh.write("%s\t%d\t%s\t%s\t%.6f\n"
                     % (corpus.paper_ids[code], year, texts[a], texts[b], r))


def split_corpus(corpus: Corpus, train_fraction: float = 0.8, seed: int = 0) -> Split:
    """Randomly partition finding indices into train/test, deterministically.

    Train size is round-half-up of fraction * total.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = corpus.n_findings
    if n < 2:
        raise ValueError("need at least 2 findings to split")
    n_train = int(math.floor(train_fraction * n + 0.5))
    if not 0 < n_train < n:
        raise ValueError(f"train_fraction = {train_fraction} splits {n} findings into "
                         f"{n_train} train and {n - n_train} test; neither side may be empty")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    return Split(tuple(np.sort(order[:n_train]).tolist()),
                 tuple(np.sort(order[n_train:]).tolist()), seed)


def corpus_stats(corpus: Corpus) -> dict:
    """Counts of correlates and tested pairs, and the untested fraction."""
    n, n_tested = corpus.n_correlates, len(corpus.pair_rows)
    return {
        "n_correlates": n,
        "n_tested_pairs": n_tested,
        "untested_fraction": untested_fraction(n, n_tested),
    }


def untested_fraction(n_correlates: int, n_tested_pairs: int) -> float:
    """The untested fraction from raw counts (no corpus needed)."""
    if n_correlates < 2:
        raise ValueError("untested fraction undefined with fewer than 2 correlates")
    return 1.0 - n_tested_pairs / (n_correlates * (n_correlates - 1) // 2)


def generate_synthetic(n_correlates: int, n_findings: int, vocab: EmbeddingTable,
                       noise_sd: float = 0.05, seed: int = 0) -> tuple[Corpus, list[float]]:
    """Generate a corpus whose correlations follow a known analytic rule.

    Each correlate is a random 3-8 token phrase from the vocabulary; its
    latent vector is the mean of its token embeddings. Each finding reports
    r = tanh(2 * cosine(latent_a, latent_b)) plus Gaussian noise, clipped
    to [-1, 1]. Returns the corpus and the parallel noise-free r values.
    """
    if n_correlates < 2:
        raise ValueError(f"n_correlates must be >= 2, got {n_correlates}")
    if n_findings < 1:
        raise ValueError(f"n_findings must be >= 1, got {n_findings}")
    if len(vocab.vectors) == 0:
        raise ValueError("vocabulary is empty")
    if not noise_sd >= 0:  # also rejects nan
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    if not math.isfinite(noise_sd):
        raise ValueError(f"noise_sd must be finite, got {noise_sd}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n_phrases = sum(len(vocab.vectors) ** k for k in range(3, 9))
    if n_correlates > n_phrases:
        raise ValueError(f"n_correlates = {n_correlates} exceeds the {n_phrases} distinct "
                         "3-8 token phrases the vocabulary can form")
    max_pairs = n_correlates * (n_correlates - 1) // 2
    if n_findings > max_pairs:
        raise ValueError(f"n_findings = {n_findings} exceeds the {max_pairs} available pairs")
    rng = np.random.default_rng(seed)
    tokens_sorted = sorted(vocab.vectors)

    interner = _CorrelateInterner()
    latents: list[np.ndarray] = []
    while len(interner.correlates) < n_correlates:
        k = int(rng.integers(3, 9))
        toks = tuple(tokens_sorted[i] for i in rng.integers(0, len(tokens_sorted), size=k))
        before = len(interner.correlates)
        interner.intern(" ".join(toks), toks)
        if len(interner.correlates) > before:
            latents.append(np.mean([vocab.vectors[t] for t in toks], axis=0))

    # Distinct unordered pairs, sampled without replacement.
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < n_findings:
        a, b = rng.integers(0, n_correlates, size=2).tolist()
        if a != b:
            chosen.add((min(a, b), max(a, b)))
    pairs = sorted(chosen)
    rng.shuffle(pairs)

    r: list[float] = []
    clean: list[float] = []
    for a, b in pairs:
        va, vb = latents[a], latents[b]
        denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
        cos = float(va @ vb) / denom if denom > 0 else 0.0
        r_clean = math.tanh(2.0 * cos)
        r_i = r_clean
        if noise_sd > 0:
            r_i += noise_sd * float(rng.standard_normal())
        r.append(min(1.0, max(-1.0, r_i)))
        clean.append(r_clean)

    # Drop correlates that ended up in no finding, so the in-memory corpus
    # matches what a findings-file round trip would preserve.
    ab = np.array(pairs, dtype=np.int64)
    used = np.unique(ab)
    ab = np.searchsorted(used, ab)
    correlates = {new: interner.correlates[old] for new, old in enumerate(used.tolist())}
    paper_code = np.arange(n_findings) // 20
    paper_ids = [f"synth{k}" for k in range(int(paper_code[-1]) + 1)]
    return Corpus(correlates, ab[:, 0], ab[:, 1], r, np.full(n_findings, 2010), paper_code,
                  paper_ids), clean
