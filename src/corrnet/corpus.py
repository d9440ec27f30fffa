"""Corpora of correlational findings: loading, splitting, stats, synthesis.

The on-disk findings format is UTF-8 text, one finding per line, with
tab-separated fields: paper_id, year, correlate_a_text, correlate_b_text, r.
Lines starting with '#' are comments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingTable
from .textnorm import NormalizationConfig, normalize


class CorpusError(Exception):
    """Raised for malformed or degenerate findings files."""


@dataclass(frozen=True)
class Correlate:
    id: int
    raw_text: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Finding:
    correlate_a: int
    correlate_b: int
    r: float
    paper_id: str
    year: int


def _pair_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass
class Corpus:
    correlates: dict[int, Correlate]
    findings: list[Finding]
    pair_index: dict[tuple[int, int], list[int]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.pair_index:
            for i, f in enumerate(self.findings):
                self.pair_index.setdefault(_pair_key(f.correlate_a, f.correlate_b), []).append(i)

    @property
    def n_correlates(self) -> int:
        return len(self.correlates)

    @property
    def n_findings(self) -> int:
        return len(self.findings)


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
            self.correlates[cid] = Correlate(cid, raw_text, tokens)
        return cid


def load_corpus(path, normalizer: NormalizationConfig = NormalizationConfig()) -> Corpus:
    """Load and validate a findings file.

    Correlates with the same normalized token sequence share one id. Rejects
    findings whose r is outside [-1, 1], whose correlates coincide, or whose
    correlate text normalizes to an empty token list.
    """
    interner = _CorrelateInterner()
    findings: list[Finding] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise CorpusError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(fields)}")
            paper_id, year_s, text_a, text_b, r_s = fields
            try:
                year = int(year_s)
            except ValueError:
                raise CorpusError(f"{path}:{lineno}: unparseable year {year_s!r}") from None
            try:
                r = float(r_s)
            except ValueError:
                raise CorpusError(f"{path}:{lineno}: unparseable r {r_s!r}") from None
            if not -1.0 <= r <= 1.0:
                raise CorpusError(f"{path}:{lineno}: r = {r} outside [-1, 1]")
            tokens_a = tuple(normalize(text_a, normalizer))
            tokens_b = tuple(normalize(text_b, normalizer))
            if not tokens_a or not tokens_b:
                raise CorpusError(f"{path}:{lineno}: correlate text normalizes to empty token list")
            id_a = interner.intern(text_a, tokens_a)
            id_b = interner.intern(text_b, tokens_b)
            if id_a == id_b:
                raise CorpusError(f"{path}:{lineno}: both correlates normalize to the same variable")
            findings.append(Finding(id_a, id_b, r, paper_id, year))
    if not findings:
        raise CorpusError(f"{path}: empty corpus")
    return Corpus(interner.correlates, findings)


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus in the findings file format (r to 6 decimals)."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in corpus.findings:
            fh.write("%s\t%d\t%s\t%s\t%.6f\n" % (
                f.paper_id, f.year,
                corpus.correlates[f.correlate_a].raw_text,
                corpus.correlates[f.correlate_b].raw_text,
                f.r,
            ))


def split_corpus(corpus: Corpus, train_fraction: float = 0.8, seed: int = 0) -> Split:
    """Randomly partition finding indices into train/test, deterministically.

    Train size is round-half-up of fraction * total.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = corpus.n_findings
    if n < 2:
        raise CorpusError("need at least 2 findings to split")
    n_train = int(math.floor(train_fraction * n + 0.5))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    return Split(tuple(sorted(order[:n_train].tolist())),
                 tuple(sorted(order[n_train:].tolist())), seed)


def corpus_stats(corpus: Corpus) -> dict:
    """Counts of correlates and tested pairs, and the untested fraction."""
    n, n_tested = corpus.n_correlates, len(corpus.pair_index)
    return {
        "n_correlates": n,
        "n_tested_pairs": n_tested,
        "untested_fraction": untested_fraction(n, n_tested),
    }


def untested_fraction(n_correlates: int, n_tested_pairs: int) -> float:
    """The untested fraction from raw counts (no corpus needed)."""
    if n_correlates < 2:
        raise CorpusError("untested fraction undefined with fewer than 2 correlates")
    return 1.0 - n_tested_pairs / (n_correlates * (n_correlates - 1) // 2)


def generate_synthetic(n_correlates: int, n_findings: int, vocab: EmbeddingTable,
                       noise_sd: float = 0.05, seed: int = 0,
                       gain: float = 2.0) -> tuple[Corpus, list[float]]:
    """Generate a corpus whose correlations follow a known analytic rule.

    Each correlate is a random 3-8 token phrase from the vocabulary; its
    latent vector is the mean of its token embeddings. Each finding reports
    r = tanh(gain * cosine(latent_a, latent_b)) plus Gaussian noise, clipped
    to [-1, 1]. Returns the corpus and the parallel noise-free r values.
    """
    if len(vocab.vectors) == 0:
        raise ValueError("vocabulary is empty")
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
        a, b = rng.integers(0, n_correlates, size=2)
        if a != b:
            chosen.add(_pair_key(int(a), int(b)))
    pairs = sorted(chosen)
    rng.shuffle(pairs)

    findings: list[Finding] = []
    clean: list[float] = []
    for i, (a, b) in enumerate(pairs):
        va, vb = latents[a], latents[b]
        denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
        cos = float(va @ vb) / denom if denom > 0 else 0.0
        r_clean = math.tanh(gain * cos)
        r = r_clean
        if noise_sd > 0:
            r += noise_sd * float(rng.standard_normal())
        r = min(1.0, max(-1.0, r))
        findings.append(Finding(a, b, r, f"synth{i // 20}", 2010))
        clean.append(r_clean)

    # Drop correlates that ended up in no finding, so the in-memory corpus
    # matches what a findings-file round trip would preserve.
    used = sorted({c for f in findings for c in (f.correlate_a, f.correlate_b)})
    remap = {old: new for new, old in enumerate(used)}
    correlates = {remap[old]: Correlate(remap[old], interner.correlates[old].raw_text,
                                        interner.correlates[old].tokens)
                  for old in used}
    findings = [Finding(remap[f.correlate_a], remap[f.correlate_b], f.r, f.paper_id, f.year)
                for f in findings]
    return Corpus(correlates, findings), clean
