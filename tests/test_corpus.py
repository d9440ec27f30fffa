import gc
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from conftest import apply_byte_edits, byte_edits, corpus_from_findings
from corrnet import corpus as corpus_mod
from corrnet.corpus import (Correlate, Corpus, Finding, corpus_stats,
                            generate_synthetic, load_corpus, save_corpus, split_corpus,
                            untested_fraction)
from corrnet.embeddings import random_table
from corrnet.textnorm import normalize


def write(tmp_path, lines):
    path = tmp_path / "c.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_single_finding(tmp_path):
    path = write(tmp_path, ["p1\t2010\tJob satisfaction\tJob performance\t0.30"])
    corpus = load_corpus(path)
    assert corpus.n_correlates == 2
    assert corpus.n_findings == 1
    assert corpus.findings[0].r == 0.30


def test_duplicate_text_shares_id(tmp_path):
    path = write(tmp_path, [
        "p1\t2010\tAge\tIncome\t0.2",
        "p2\t2011\tAge\tTenure\t0.3",
    ])
    corpus = load_corpus(path)
    assert corpus.n_correlates == 3
    assert corpus.findings[0].correlate_a == corpus.findings[1].correlate_a


def test_dedup_is_token_level(tmp_path):
    # Same normalized tokens, different raw text -> one correlate.
    path = write(tmp_path, ["p1\t2010\tAge!\tage\t0.2"])
    with pytest.raises(ValueError, match="same variable"):
        load_corpus(path)


def test_r_out_of_range(tmp_path):
    path = write(tmp_path, ["p1\t2010\tA\tB\t1.5"])
    with pytest.raises(ValueError, match=":1"):
        load_corpus(path)


def test_malformed_rows(tmp_path):
    with pytest.raises(ValueError, match="5 tab-separated"):
        load_corpus(write(tmp_path, ["p1\t2010\tA\tB"]))
    with pytest.raises(ValueError, match="unparseable r"):
        load_corpus(write(tmp_path, ["p1\t2010\tA\tB\txyz"]))
    with pytest.raises(ValueError, match="empty token"):
        load_corpus(write(tmp_path, ["p1\t2010\t???\tB\t0.1"]))


def test_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty corpus"):
        load_corpus(path)


def test_comments_and_blank_lines(tmp_path):
    path = write(tmp_path, [
        "# header comment",
        "",
        "p1\t2010\tA\tB\t0.1",
    ])
    assert load_corpus(path).n_findings == 1


def test_round_trip(tmp_path, demo_corpus):
    out = tmp_path / "rt.tsv"
    save_corpus(demo_corpus, out)
    reloaded = load_corpus(out)
    assert reloaded.n_correlates == demo_corpus.n_correlates
    assert reloaded.n_findings == demo_corpus.n_findings
    for f1, f2 in zip(demo_corpus.findings, reloaded.findings):
        assert f2.r == round(f1.r, 6)
        assert (f1.paper_id, f1.year) == (f2.paper_id, f2.year)
    texts = {c.raw_text for c in demo_corpus.correlates.values()}
    assert {c.raw_text for c in reloaded.correlates.values()} == texts


# Findings-file rows: text fields without tabs, line breaks or surrogates
# (which UTF-8 cannot encode), r with at most 6 decimals (what save_corpus
# writes). Each text holds a word between arbitrary characters, so that most
# normalize to a usable correlate.
free_text = st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="\t\n\r"))
field_text = st.tuples(free_text, st.text("abcxyz", min_size=1), free_text).map(" ".join)
finding_rows = st.lists(
    st.tuples(st.text("abcxyz0123456789_", min_size=1), st.integers(1900, 2100),
              field_text, field_text, st.integers(-10**6, 10**6)),
    min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(rows=finding_rows)
def test_save_load_save_round_trip(tmp_path_factory, rows):
    for _, _, text_a, text_b, _ in rows:
        assume(normalize(text_a) and normalize(text_b) and normalize(text_a) != normalize(text_b))
    tmp = tmp_path_factory.mktemp("rt")
    source = tmp / "source.tsv"
    with open(source, "w", encoding="utf-8") as fh:
        for paper, year, text_a, text_b, micro_r in rows:
            fh.write("%s\t%d\t%s\t%s\t%.6f\n" % (paper, year, text_a, text_b, micro_r / 1e6))
    loaded = load_corpus(source)
    save_corpus(loaded, tmp / "once.tsv")
    reloaded = load_corpus(tmp / "once.tsv")
    save_corpus(reloaded, tmp / "twice.tsv")
    assert reloaded == loaded
    assert (tmp / "twice.tsv").read_bytes() == (tmp / "once.tsv").read_bytes()
    assert [f.r for f in loaded.findings] == [row[4] / 1e6 for row in rows]


def test_pair_index_covers_findings(demo_corpus):
    assert sum(len(v) for v in demo_corpus.pair_index.values()) == demo_corpus.n_findings
    for (a, b), idx in demo_corpus.pair_index.items():
        assert a < b
        for i in idx:
            f = demo_corpus.findings[i]
            assert {f.correlate_a, f.correlate_b} == {a, b}


def test_indexes_are_derived_from_findings():
    correlates = {i: Correlate(f"v{i}", (f"v{i}",)) for i in range(3)}
    findings = [Finding(0, 1, 0.1, "pA", 2010), Finding(2, 1, 0.2, "pB", 2010),
                Finding(1, 0, 0.3, "pA", 2011)]
    corpus = corpus_from_findings(correlates, findings)
    assert corpus.pair_index == {(0, 1): (0, 2), (1, 2): (1,)}


# The indexes as a dict of lists per key, filled in finding order.
def index_reference(findings):
    pairs, papers = {}, {}
    for i, f in enumerate(findings):
        key = (min(f.correlate_a, f.correlate_b), max(f.correlate_a, f.correlate_b))
        pairs.setdefault(key, []).append(i)
        papers.setdefault(f.paper_id, []).append(i)
    return pairs, papers


# Few correlates and papers, so pairs and papers repeat and interleave.
finding_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from(["pA", "pB", "pC"]))
    .filter(lambda row: row[0] != row[1]),
    min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(rows=finding_rows)
def test_indexes_match_reference(rows):
    correlates = {i: Correlate(f"v{i}", (f"v{i}",)) for i in range(5)}
    findings = [Finding(a, b, 0.1, paper, 2010) for a, b, paper in rows]
    corpus = corpus_from_findings(correlates, findings)
    pairs, papers = index_reference(findings)
    # Same keys in the same (first-report) order, each with its indices in order.
    assert list(corpus.pair_index.items()) == [(k, tuple(v)) for k, v in pairs.items()]
    # A paper's rows, as build_table reads them from the paper_code column.
    assert corpus.paper_ids == list(papers)
    for code, rows in enumerate(papers.values()):
        assert np.flatnonzero(corpus.paper_code == code).tolist() == rows


def test_index_values_are_untracked_tuples(demo_corpus):
    assert all(type(idx) is tuple for idx in demo_corpus.pair_index.values())
    gc.collect()
    # A tuple of ints leaves the cyclic collector's care once it has been seen.
    assert not any(gc.is_tracked(idx) for idx in demo_corpus.pair_index.values())


def test_findings_view_builds_records_from_columns():
    correlates = {i: Correlate(f"v{i}", (f"v{i}",)) for i in range(4)}
    findings = [Finding(0, 1, 0.1, "pA", 2010), Finding(3, 2, -0.5, "pB", 2011),
                Finding(1, 0, 0.25, "pA", 2012)]
    view = corpus_from_findings(correlates, findings).findings
    assert len(view) == 3
    assert view[1] == findings[1] and view[np.int64(2)] == findings[2]
    assert view[-1] == findings[-1]
    assert list(view) == findings
    assert all(type(x) is int for x in (view[1].correlate_a, view[1].year))
    assert type(view[1].r) is float
    for i in (3, -4, np.int64(3)):
        with pytest.raises(IndexError):
            view[i]


def test_findings_view_iterates_in_chunks():
    correlates = {i: Correlate(f"v{i}", (f"v{i}",)) for i in range(50)}
    rng = np.random.default_rng(0)
    findings = [Finding(int(a), int(b), float(rng.uniform(-1, 1)), f"p{i % 7}", 1990 + i % 30)
                for i, (a, b) in enumerate(rng.choice(50, size=(12_293, 2)))
                if a != b]
    view = corpus_from_findings(correlates, findings).findings
    assert list(view) == findings
    assert list(view) == [view[i] for i in range(len(view))]


def test_pair_index_view_reads_the_int_keyed_index():
    correlates = {i: Correlate(f"v{i}", (f"v{i}",)) for i in range(4)}
    corpus = corpus_from_findings(correlates, [Finding(2, 0, 0.1, "p", 2010),
                                               Finding(1, 3, 0.2, "p", 2010),
                                               Finding(0, 2, 0.3, "p", 2010)])
    view = corpus.pair_index
    assert view == {(0, 2): (0, 2), (1, 3): (1,)}
    assert len(view) == 2 and list(view) == [(0, 2), (1, 3)]
    assert (0, 2) in view and view[(1, 3)] == (1,) and view.get((1, 3)) == (1,)
    for absent in [(2, 0), (0, 1), (0, 4), (-1, 3), (3, 9), "x", (1, 2, 3)]:
        assert absent not in view and view.get(absent) is None
        with pytest.raises(KeyError):
            view[absent]
    assert corpus.pair_rows == {0 * 4 + 2: (0, 2), 1 * 4 + 3: (1,)}
    assert corpus.n_correlates == 4
    a, b = np.array([2, 1, 0, 3, 1]), np.array([0, 3, 2, 1, 1])
    assert corpus.pair_keys(a, b).tolist() == [min(x, y) * 4 + max(x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("correlate_ids, finding", [
    ([-2, 0, 1], (0, 1)),
    ([0, 1, 2], (1, -3)),
    ([0, 1, 2], (-4, 2)),
])
def test_negative_correlate_id_is_refused(correlate_ids, finding):
    # Pair keys and the QBC sampler's direct draws assume ids >= 0.
    correlates = {i: Correlate(f"v{i}", (f"v{i}",)) for i in correlate_ids}
    low = min(*correlate_ids, *finding)
    message = (f"correlate id {low} is not a position: the ids of 3 correlates must be 0..2"
               if low in correlate_ids else
               f"finding 0 names correlate id {low}, outside [0, 3)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        corpus_from_findings(correlates, [Finding(*finding, 0.1, "p", 2010)])


@pytest.mark.parametrize("correlate_ids, finding, message", [
    ([0, 1, 3], (0, 1), "correlate id 3 is not a position: the ids of 3 correlates must be 0..2"),
    ([0, 1, 2], (2, 3), "finding 1 names correlate id 3, outside [0, 3)"),
], ids=["gapped-keys", "finding-id-past-n"])
def test_correlate_ids_that_are_not_positions_are_refused(correlate_ids, finding, message):
    # A correlate's id is its position in corpus.correlates; pair keys, the
    # QBC sampler's draws and the embedding lookups all rely on it.
    correlates = {i: Correlate(f"v{i}", (f"v{i}",)) for i in correlate_ids}
    findings = [Finding(0, 1, 0.2, "p", 2010), Finding(*finding, 0.1, "p", 2010)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        corpus_from_findings(correlates, findings)
    raised_in = info.traceback[-1]
    assert (raised_in.path.name, raised_in.name) == ("corpus.py", "__init__")


def columns_corpus(**columns):
    """A three-correlate, one-paper corpus of two findings, with the given
    columns in place of the defaults."""
    correlates = {i: Correlate(f"v{i}", (f"v{i}",)) for i in range(3)}
    cols = dict(a=[0, 1], b=[1, 2], r=[0.1, 0.2], year=[2010, 2011], paper_code=[0, 0],
                paper_ids=["p"])
    cols.update(columns)
    return Corpus(correlates, **cols)


@pytest.mark.parametrize("columns, message", [
    (dict(r=[0.1, 0.2, 0.3]),
     "finding columns of unequal length: a 2, b 2, r 3, year 2, paper_code 2"),
    (dict(b=[1, 2, 0]), "finding columns of unequal length: a 2, b 3, r 2, year 2, paper_code 2"),
    (dict(year=[2010]), "finding columns of unequal length: a 2, b 2, r 2, year 1, paper_code 2"),
], ids=["long-r", "long-b", "short-year"])
def test_columns_of_unequal_length_are_refused(columns, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        columns_corpus(**columns)


@pytest.mark.parametrize("paper_code, message", [
    ([0, 5], "finding 1 names paper code 5, outside [0, 1)"),
    ([-1, 0], "finding 0 names paper code -1, outside [0, 1)"),
], ids=["past-paper-ids", "negative"])
def test_paper_code_outside_paper_ids_is_refused(paper_code, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        columns_corpus(paper_code=paper_code)


def test_self_pair_is_refused():
    # load_corpus refuses such a line; corpus_stats would count the pair
    # (1, 1) as tested, and report 1 untested pair of 3 instead of 2.
    with pytest.raises(ValueError, match=r"^finding 1 pairs correlate id 1 with itself$"):
        columns_corpus(b=[1, 1])


def test_loaded_corpus_tracks_objects_per_correlate_not_per_finding(tmp_path):
    """The collector tracks no per-finding object: 20,000 findings over 200
    correlates add a few objects per correlate."""
    rng = np.random.default_rng(0)
    path = tmp_path / "big.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(20_000):
            a, b = rng.choice(200, size=2, replace=False)
            fh.write(f"p{i // 10}\t2010\tvariable {a}\tvariable {b}\t{rng.uniform(-1, 1):.6f}\n")
    gc.collect()
    before = len(gc.get_objects())
    corpus = load_corpus(path)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert (corpus.n_correlates, corpus.n_findings) == (200, 20_000)
    assert added <= 2 * corpus.n_correlates + 50, added


def test_records_are_immutable_tuples(demo_corpus):
    finding = demo_corpus.findings[0]
    correlate = demo_corpus.correlates[finding.correlate_a]
    with pytest.raises(AttributeError):
        finding.r = 0.5
    with pytest.raises(AttributeError):
        correlate.tokens = ("x",)
    assert finding == (finding.correlate_a, finding.correlate_b, 0.30, "p1", 2010)
    assert correlate == ("Job satisfaction", ("job", "satisfaction"))
    assert Finding(0, 1, 0.2, "p", 2010) == Finding(correlate_a=0, correlate_b=1, r=0.2,
                                                     paper_id="p", year=2010)


# Reference loader: normalizes both texts of every line and interns the
# tokens, the way load_corpus did before it normalized each text once.
def load_per_line(path):
    by_tokens, correlates, findings = {}, {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            paper_id, year, text_a, text_b, r = line.split("\t")
            ids = []
            for text in (text_a, text_b):
                tokens = tuple(normalize(text))
                if tokens not in by_tokens:
                    by_tokens[tokens] = len(correlates)
                    correlates[len(correlates)] = Correlate(text, tokens)
                ids.append(by_tokens[tokens])
            findings.append(Finding(ids[0], ids[1], float(r), paper_id, int(year)))
    return correlates, findings


# Texts are a few base phrases in case and punctuation variants that all
# normalize to the base phrase's tokens, so texts repeat verbatim and as
# variants; the two texts of a row come from different base phrases.
BASE_PHRASES = ["job satisfaction", "age", "self-esteem", "worker's income", "gdp growth"]


def phrase_variant(base):
    return st.tuples(st.sampled_from([str.lower, str.upper, str.title]),
                     st.sampled_from(["", "(", "  ", "*"]),
                     st.sampled_from(["", "!", ")", " ?", "."])
                     ).map(lambda v: v[1] + v[0](base) + v[2])


variant_rows = st.lists(
    st.tuples(st.sampled_from(["p1", "p2", "p3"]), st.integers(1990, 2020),
              st.lists(st.sampled_from(BASE_PHRASES), min_size=2, max_size=2, unique=True)
              .flatmap(lambda ab: st.tuples(phrase_variant(ab[0]), phrase_variant(ab[1]))),
              st.integers(-10**6, 10**6)),
    min_size=1, max_size=25)


@settings(max_examples=100, deadline=None)
@given(rows=variant_rows)
def test_load_matches_per_line_reference(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("variants") / "c.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        for paper, year, (text_a, text_b), micro_r in rows:
            fh.write("%s\t%d\t%s\t%s\t%.6f\n" % (paper, year, text_a, text_b, micro_r / 1e6))
    loaded = load_corpus(path)
    correlates, findings = load_per_line(path)
    assert loaded == corpus_from_findings(correlates, findings)
    assert (loaded.a.dtype, loaded.b.dtype, loaded.year.dtype) == (np.int64,) * 3
    assert loaded.a.tolist() == [f.correlate_a for f in findings]
    assert loaded.b.tolist() == [f.correlate_b for f in findings]
    assert loaded.year.tolist() == [f.year for f in findings]
    assert [loaded.paper_ids[c] for c in loaded.paper_code.tolist()] == \
        [f.paper_id for f in findings]
    assert loaded.r.view(np.int64).tolist() == \
        np.array([f.r for f in findings], dtype=np.float64).view(np.int64).tolist()
    first_text = {}
    for _, _, texts, _ in rows:
        for text in texts:
            first_text.setdefault(tuple(normalize(text)), text)
    assert {c.raw_text for c in loaded.correlates.values()} == set(first_text.values())


def test_empty_text_on_two_lines_names_the_first(tmp_path):
    path = write(tmp_path, [
        "p1\t2010\tAge\tIncome\t0.1",
        "p1\t2010\t???\tIncome\t0.2",
        "p2\t2011\tAge\t???\t0.3",
    ])
    with pytest.raises(ValueError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}:2: correlate text normalizes to empty token list"


@pytest.mark.parametrize("bad_2, bad_3, message", [
    ("p1\t2010\tAge\tIncome", "p1\t2010\tAge", "expected 5 tab-separated fields, got 4"),
    ("p1\t20x0\tAge\tIncome\t0.1", "p1\tyy\tAge\tIncome\t0.1", "unparseable year '20x0'"),
    ("p1\t2010\tAge\tIncome\tabc", "p1\t2010\tAge\tIncome\tdef", "unparseable r 'abc'"),
    ("p1\t2010\tAge\tIncome\t1.5", "p1\t2010\tAge\tIncome\t-2", "r = 1.5 outside [-1, 1]"),
    ("p1\t2010\t???\tIncome\t0.1", "p1\t2010\tAge\t!!\t0.1",
     "correlate text normalizes to empty token list"),
    ("p1\t2010\tAge\tage!\t0.1", "p1\t2010\tIncome\tINCOME\t0.1",
     "both correlates normalize to the same variable"),
    ("p1\t99999999999999999999\tAge\tIncome\t0.1", "p1\t-99999999999999999999\tA\tB\t0.1",
     "year '99999999999999999999' outside the int64 range"),
])
def test_first_of_two_bad_lines_is_reported(tmp_path, bad_2, bad_3, message):
    path = write(tmp_path, ["p0\t2009\tTenure\tIncome\t0.2", bad_2, bad_3])
    with pytest.raises(ValueError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_invalid_utf8_names_the_file_and_line(tmp_path, newline):
    # Text-mode reading ends a line at each of these, and so does the count.
    lines = ["p1\t2001\tanxiety\tdepression\t0.5", "# comment", "p2\t2002\tsleep\tmo\xa6od\t0.1"]
    path = tmp_path / "c.tsv"
    path.write_bytes(newline.join(lines).encode("latin-1") + newline.encode())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: not valid UTF-8$"):
        load_corpus(path)


@seed(21)
@settings(max_examples=40, deadline=None)
@given(edits=byte_edits)
def test_mutated_file_loads_or_names_the_file(tmp_path_factory, edits):
    path = write(tmp_path_factory.mktemp("corpus"), [
        "p1\t2001\tÄngstlichkeit\tnaïve trust\t0.5",
        "# a comment",
        "p2\t2002\tsleep quality\tmood – daily\t-0.25",
        "p2\t2002\tÄngstlichkeit\tsleep quality\t0.125",
    ])
    apply_byte_edits(path, edits)
    try:
        load_corpus(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}")


def test_normalizes_each_distinct_text_once(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(corpus_mod, "normalize", lambda raw: calls.append(raw) or normalize(raw))
    path = write(tmp_path, [
        "p1\t2010\tAge\tIncome\t0.1",
        "p1\t2010\tIncome\tAge\t0.2",
        "p2\t2011\tage!\tIncome\t0.3",
        "p2\t2011\tAge\tTenure\t0.4",
    ])
    corpus = load_corpus(path)
    assert sorted(calls) == ["Age", "Income", "Tenure", "age!"]
    assert corpus.n_correlates == 3
    assert corpus.correlates[corpus.findings[2].correlate_a].raw_text == "Age"


class TestSplit:
    def test_cardinality(self, synth_vocab):
        corpus, _ = generate_synthetic(10, 10, synth_vocab, seed=1)
        split = split_corpus(corpus, 0.8, seed=7)
        assert len(split.train_indices) == 8
        assert len(split.test_indices) == 2
        assert set(split.train_indices) | set(split.test_indices) == set(range(10))
        assert set(split.train_indices) & set(split.test_indices) == set()

    def test_round_half_up(self, synth_vocab):
        corpus, _ = generate_synthetic(10, 5, synth_vocab, seed=1)
        split = split_corpus(corpus, 0.5, seed=0)
        assert len(split.train_indices) == 3  # 2.5 rounds up

    def test_determinism(self, demo_corpus):
        assert split_corpus(demo_corpus, 0.8, seed=3) == split_corpus(demo_corpus, 0.8, seed=3)
        assert split_corpus(demo_corpus, 0.8, seed=3) != split_corpus(demo_corpus, 0.8, seed=4)

    def test_bad_fraction(self, demo_corpus):
        for frac in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                split_corpus(demo_corpus, frac, seed=0)

    @pytest.mark.parametrize("frac, message", [
        (0.9, "splits 5 findings into 5 train and 0 test"),
        (0.05, "splits 5 findings into 0 train and 5 test"),
    ])
    def test_empty_side(self, synth_vocab, frac, message):
        corpus, _ = generate_synthetic(6, 5, synth_vocab, seed=1)
        with pytest.raises(ValueError) as exc:
            split_corpus(corpus, frac, seed=0)
        assert str(exc.value) == f"train_fraction = {frac} {message}; neither side may be empty"

    @pytest.mark.parametrize("n", [3, 10, 997, 5000])
    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_indices_match_sorted_list_reference(self, n, frac, seed):
        findings = [Finding(0, 1, 0.0, "p", 2010)] * n
        corpus = corpus_from_findings({0: Correlate("a", ("a",)), 1: Correlate("b", ("b",))},
                                      findings)
        n_train = int(math.floor(frac * n + 0.5))
        order = np.random.default_rng(seed).permutation(n)
        split = split_corpus(corpus, frac, seed)
        # The expression split_corpus used before it sorted with np.sort.
        assert split.train_indices == tuple(sorted(order[:n_train].tolist()))
        assert split.test_indices == tuple(sorted(order[n_train:].tolist()))
        assert all(type(i) is int for i in split.train_indices + split.test_indices)

    def test_corpus_scale_arithmetic(self):
        # 80% of the 170k-scale corpus, round-half-up.
        assert int(math.floor(0.8 * 170_000 + 0.5)) == 136_000


class TestStats:
    def test_complete_graph(self, tmp_path):
        path = write(tmp_path, [
            "p1\t2010\tA\tB\t0.1",
            "p1\t2010\tB\tC\t0.2",
            "p1\t2010\tA\tC\t0.3",
        ])
        stats = corpus_stats(load_corpus(path))
        assert stats["untested_fraction"] == 0.0

    def test_sparse(self, tmp_path):
        path = write(tmp_path, [
            "p1\t2010\tA\tB\t0.1",
            "p1\t2010\tC\tD\t0.2",  # 4 correlates, 2 tested pairs
        ])
        stats = corpus_stats(load_corpus(path))
        assert stats["n_correlates"] == 4
        assert stats["n_tested_pairs"] == 2
        assert stats["untested_fraction"] == pytest.approx(1 - 2 / 6)

    def test_duplicate_reports_count_one_pair(self, tmp_path):
        path = write(tmp_path, [
            "p1\t2010\tA\tB\t0.1",
            "p2\t2011\tA\tB\t0.3",
            "p1\t2010\tA\tC\t0.2",
        ])
        assert corpus_stats(load_corpus(path))["n_tested_pairs"] == 2

    def test_published_scale_counts(self):
        frac = untested_fraction(21_736, 149_374)
        assert frac == pytest.approx(1 - 149_374 / (21_736 * 21_735 // 2))
        assert abs(frac - 0.9994) < 1e-4


class TestSynthetic:
    def test_determinism(self, synth_vocab):
        c1, clean1 = generate_synthetic(20, 30, synth_vocab, noise_sd=0.1, seed=9)
        c2, clean2 = generate_synthetic(20, 30, synth_vocab, noise_sd=0.1, seed=9)
        assert clean1 == clean2
        assert [f.r for f in c1.findings] == [f.r for f in c2.findings]
        assert [c.tokens for c in c1.correlates.values()] == \
               [c.tokens for c in c2.correlates.values()]

    def test_noise_free_matches_formula(self, synth_vocab):
        corpus, clean = generate_synthetic(15, 25, synth_vocab, noise_sd=0.0, seed=4)
        for f, r_clean in zip(corpus.findings, clean):
            assert f.r == r_clean
            va = np.mean([synth_vocab.vectors[t] for t in corpus.correlates[f.correlate_a].tokens], axis=0)
            vb = np.mean([synth_vocab.vectors[t] for t in corpus.correlates[f.correlate_b].tokens], axis=0)
            cos = float(va @ vb) / float(np.linalg.norm(va) * np.linalg.norm(vb))
            assert f.r == pytest.approx(math.tanh(2.0 * cos), abs=1e-12)

    def test_r_in_range_with_noise(self, synth_vocab):
        corpus, _ = generate_synthetic(20, 40, synth_vocab, noise_sd=0.5, seed=2)
        assert all(-1 <= f.r <= 1 for f in corpus.findings)

    def test_too_many_findings(self, synth_vocab):
        with pytest.raises(ValueError, match="available pairs"):
            generate_synthetic(4, 7, synth_vocab, seed=0)

    @pytest.mark.parametrize("noise_sd", [-1.0, float("nan")])
    def test_negative_noise(self, synth_vocab, noise_sd):
        with pytest.raises(ValueError, match="noise_sd must be >= 0"):
            generate_synthetic(6, 5, synth_vocab, noise_sd=noise_sd, seed=0)

    def test_infinite_noise(self, synth_vocab):
        # Unchecked, inf noise clips every r to +-1.
        with pytest.raises(ValueError, match="^noise_sd must be finite, got inf$"):
            generate_synthetic(6, 5, synth_vocab, noise_sd=float("inf"), seed=0)

    @pytest.mark.parametrize("n_correlates, n_findings, message", [
        (1, 0, "n_correlates must be >= 2, got 1"),
        (-1, 1, "n_correlates must be >= 2, got -1"),
        (10, 0, "n_findings must be >= 1, got 0"),
        (10, -3, "n_findings must be >= 1, got -3"),
    ])
    def test_impossible_request(self, synth_vocab, n_correlates, n_findings, message):
        with pytest.raises(ValueError) as exc:
            generate_synthetic(n_correlates, n_findings, synth_vocab, seed=0)
        assert str(exc.value) == message

    def test_smallest_request(self, synth_vocab):
        corpus, _ = generate_synthetic(2, 1, synth_vocab, seed=0)
        assert (corpus.n_correlates, corpus.n_findings) == (2, 1)

    def test_more_correlates_than_phrases(self):
        one_token = random_table(1, 4, seed=0)  # forms 6 phrases: 3 to 8 repeats
        generate_synthetic(6, 5, one_token, seed=0)
        with pytest.raises(ValueError, match="n_correlates = 7 exceeds the 6 distinct"):
            generate_synthetic(7, 5, one_token, seed=0)

    def test_pairs_distinct(self, synth_vocab):
        corpus, _ = generate_synthetic(6, 15, synth_vocab, seed=0)  # all pairs used
        assert len(corpus.pair_index) == 15
