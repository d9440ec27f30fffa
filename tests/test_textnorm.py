import re

from hypothesis import given, settings
from hypothesis import strategies as st

from corrnet import textnorm
from corrnet.textnorm import MAX_TOKENS, normalize


def test_basic_examples():
    assert normalize("Job satisfaction") == ["job", "satisfaction"]
    assert normalize("Gross domestic product (GDP)") == ["gross", "domestic", "product", "gdp"]
    assert normalize("self-esteem") == ["self-esteem"]


def test_apostrophes_kept_in_word():
    assert normalize("worker's commitment") == ["worker's", "commitment"]


def test_edge_punctuation_stripped():
    assert normalize("--dash-- 'quoted'") == ["dash", "quoted"]
    for tok in normalize("  a,b;c:  (d) [e] ?!"):
        assert tok == tok.strip()
        assert not any(ch.isspace() for ch in tok)
        assert not tok.startswith(("-", "'"))
        assert not tok.endswith(("-", "'"))


def test_truncation():
    raw = " ".join(f"w{i}" for i in range(50))
    assert MAX_TOKENS == 32
    assert normalize(raw) == [f"w{i}" for i in range(MAX_TOKENS)]


def test_idempotence():
    samples = [
        "Gross domestic product (GDP)",
        "worker's  self-esteem!!",
        "Émotions & bien-être",
        "a---b  c'd'",
        "",
    ]
    for raw in samples:
        once = normalize(raw)
        assert normalize(" ".join(once)) == once


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_idempotence_property(raw):
    once = normalize(raw)
    assert normalize(" ".join(once)) == once


def test_empty_result_is_valid():
    assert normalize("???") == []


EDGE_RE = re.compile(r"^['’-]+|['’-]+$")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.text("ab-'’ ", max_size=6), max_size=6).map(" ".join))
def test_edge_strip_matches_the_regex_form(raw):
    """Edge hyphens and apostrophes come off each token as the anchored
    regex ^['’-]+|['’-]+$ removes them."""
    text = textnorm._PUNCT_RE.sub(" ", raw.lower())
    tokens = [EDGE_RE.sub("", t) for t in text.split()]
    assert normalize(raw) == [t for t in tokens if t][:MAX_TOKENS]
