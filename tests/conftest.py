import numpy as np
import pytest
from hypothesis import strategies as st

from corrnet.corpus import Corpus, Finding, load_corpus
from corrnet.embeddings import load_embeddings, random_table


# One to three byte edits of a file, each at a fraction of its length; a
# truncation ends the edits.
byte_edits = st.lists(st.tuples(st.sampled_from(["set", "delete", "insert", "truncate"]),
                                st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
                      min_size=1, max_size=3)


def apply_byte_edits(path, edits) -> None:
    """Rewrite the file at path with a byte_edits draw applied."""
    raw = bytearray(path.read_bytes())
    for kind, where, byte in edits:
        pos = int(where * len(raw))
        if kind == "truncate":
            del raw[pos:]
            break
        if kind == "set":
            raw[pos] = byte
        elif kind == "delete":
            del raw[pos]
        else:
            raw.insert(pos, byte)
    path.write_bytes(bytes(raw))


@pytest.fixture(scope="session")
def mini_table():
    """16-dim vectors for the words used by the hand-written corpora."""
    return load_embeddings("tests/data/mini_vectors.txt")


@pytest.fixture(scope="session")
def synth_vocab():
    return random_table(50, 8, seed=0)


@pytest.fixture
def demo_corpus(tmp_path):
    lines = [
        "p1\t2010\tJob satisfaction\tJob performance\t0.30",
        "p1\t2010\tJob satisfaction\tAge\t0.10",
        "p2\t2011\tAge\tIncome\t0.25",
        "p2\t2011\tIncome\tJob performance\t0.15",
    ]
    path = tmp_path / "demo.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_corpus(path)


def corpus_from_findings(correlates, findings) -> Corpus:
    """A corpus of Finding rows, built through the columns constructor with
    paper ids coded in first-seen order, as load_corpus codes them."""
    findings = list(findings)
    papers: dict[str, int] = {}
    paper_code = [papers.setdefault(f.paper_id, len(papers)) for f in findings]
    return Corpus(correlates, [f.correlate_a for f in findings],
                  [f.correlate_b for f in findings], [f.r for f in findings],
                  [f.year for f in findings], paper_code, list(papers))


def random_corpus(rng, n_correlates=8, n_findings=20):
    """Small random corpus built directly from domain objects."""
    from corrnet.corpus import Correlate
    correlates = {i: Correlate(i, f"var {i}", (f"var{i}",)) for i in range(n_correlates)}
    findings = []
    for _ in range(n_findings):
        a, b = rng.choice(n_correlates, size=2, replace=False)
        findings.append(Finding(int(a), int(b), float(rng.uniform(-1, 1)),
                                f"p{int(rng.integers(3))}", 2010))
    return corpus_from_findings(correlates, findings)
