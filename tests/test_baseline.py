import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrnet.baseline import baseline_predict, fit_baseline
from corrnet.corpus import Correlate, Finding, split_corpus

from conftest import corpus_from_findings, random_corpus


def make_corpus(rows):
    """rows: list of (a, b, r) over integer correlate ids."""
    n = max(c for a, b, _ in rows for c in (a, b)) + 1
    correlates = {i: Correlate(f"c{i}", (f"c{i}",)) for i in range(n)}
    findings = [Finding(a, b, r, "p1", 2010) for a, b, r in rows]
    return corpus_from_findings(correlates, findings)


def brute_force_predict(corpus, train_indices, c_i, c_j, global_mean):
    hits = [corpus.findings[i].r for i in train_indices
            if {c_i, c_j} & {corpus.findings[i].correlate_a, corpus.findings[i].correlate_b}]
    return sum(hits) / len(hits) if hits else global_mean


def test_fit_accumulates():
    corpus = make_corpus([(0, 1, 0.2), (0, 2, 0.4)])
    model = fit_baseline(corpus, [0, 1])
    assert model.per_correlate[0] == pytest.approx((0.6, 2))
    assert model.per_correlate[1] == pytest.approx((0.2, 1))
    assert model.global_mean == pytest.approx(0.3)


def test_single_finding_means():
    corpus = make_corpus([(0, 1, 0.5), (2, 3, 0.9)])
    model = fit_baseline(corpus, [0])
    assert baseline_predict(model, 0, 2) == pytest.approx(0.5)
    assert baseline_predict(model, 1, 3) == pytest.approx(0.5)


def test_unseen_correlate_absent():
    corpus = make_corpus([(0, 1, 0.2), (2, 3, 0.4)])
    model = fit_baseline(corpus, [0])
    assert 2 not in model.per_correlate
    assert 3 not in model.per_correlate


def test_union_example():
    corpus = make_corpus([(0, 1, 0.2), (0, 2, 0.4), (1, 3, 0.6)])
    model = fit_baseline(corpus, [0, 1, 2])
    # findings containing 0 or 1 = all three, counted once each
    assert baseline_predict(model, 0, 1) == pytest.approx(0.4)


def test_unseen_pair_falls_back_to_global_mean():
    corpus = make_corpus([(0, 1, 0.2), (2, 3, 0.8), (4, 5, 0.5)])
    model = fit_baseline(corpus, [0, 1])
    assert baseline_predict(model, 4, 5) == pytest.approx(model.global_mean)


@pytest.mark.parametrize("mode", ["pool", "average"])
@pytest.mark.parametrize("c_i, c_j, bad", [(0, 10**6, 10**6), (-1, 3, -1), (2, 4, 4)])
def test_correlate_id_outside_corpus_is_refused(mode, c_i, c_j, bad):
    # Unchecked, an unknown id reads as a correlate without training findings.
    corpus = make_corpus([(0, 1, 0.2), (0, 2, 0.4), (1, 3, 0.6)])
    model = fit_baseline(corpus, [0, 1], mode=mode)
    for pair in [(c_i, c_j), (c_j, c_i)]:
        with pytest.raises(ValueError, match=f"^correlate id {bad} outside \\[0, 4\\)$"):
            baseline_predict(model, *pair)


@pytest.mark.parametrize("mode", ["pool", "average"])
@pytest.mark.parametrize("c", [0, 3, 4])
def test_self_pair_is_refused(mode, c):
    # Unchecked, (c, c) returned correlate c's own training mean; 4 has no
    # training findings.
    corpus = make_corpus([(0, 1, 0.2), (0, 2, 0.4), (1, 3, 0.6), (2, 4, 0.1)])
    model = fit_baseline(corpus, [0, 1, 2], mode=mode)
    with pytest.raises(ValueError, match=f"^pair \\({c}, {c}\\) pairs correlate id {c} "
                                         "with itself$"):
        baseline_predict(model, c, c)


def test_symmetry():
    rng = np.random.default_rng(0)
    corpus = random_corpus(rng, n_correlates=6, n_findings=15)
    model = fit_baseline(corpus, range(15))
    for i in range(6):
        for j in range(6):
            if j != i:  # a self-pair is refused
                assert baseline_predict(model, i, j) == baseline_predict(model, j, i)


def test_predictions_within_train_range():
    rng = np.random.default_rng(1)
    corpus = random_corpus(rng, n_correlates=6, n_findings=20)
    model = fit_baseline(corpus, range(20))
    rs = [f.r for f in corpus.findings]
    for i in range(6):
        for j in range(i + 1, 6):
            pred = baseline_predict(model, i, j)
            assert min(rs) - 1e-12 <= pred <= max(rs) + 1e-12


def test_oracle_equivalence_random_corpora():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n_c = int(rng.integers(4, 10))
        n_f = int(rng.integers(5, 50))
        corpus = random_corpus(rng, n_correlates=n_c, n_findings=n_f)
        train = list(rng.choice(n_f, size=max(1, n_f // 2), replace=False))
        model = fit_baseline(corpus, train)
        for i in range(n_c):
            for j in range(n_c):
                if i == j:
                    continue
                expected = brute_force_predict(corpus, train, i, j, model.global_mean)
                assert baseline_predict(model, i, j) == pytest.approx(expected, abs=1e-12)


def test_average_mode():
    corpus = make_corpus([(0, 1, 0.2), (0, 2, 0.4), (1, 3, 0.6)])
    model = fit_baseline(corpus, [0, 1, 2], mode="average")
    # mean(0) = 0.3, mean(1) = 0.4 -> 0.35
    assert baseline_predict(model, 0, 1) == pytest.approx(0.35)


def test_invalid_mode():
    corpus = make_corpus([(0, 1, 0.2)])
    with pytest.raises(ValueError):
        fit_baseline(corpus, [0], mode="median")


def test_empty_train_set():
    corpus = make_corpus([(0, 1, 0.2)])
    with pytest.raises(ValueError):
        fit_baseline(corpus, [])


# The per-finding loops fit_baseline and baseline_predict replaced: every
# sum adds r in the order of the training indices.
def reference_fit(corpus, train_indices):
    per_correlate, per_pair, total = {}, {}, 0.0
    for i in train_indices:
        f = corpus.findings[i]
        total += f.r
        for cid in (f.correlate_a, f.correlate_b):
            s, c = per_correlate.get(cid, (0.0, 0))
            per_correlate[cid] = (s + f.r, c + 1)
        key = (min(f.correlate_a, f.correlate_b), max(f.correlate_a, f.correlate_b))
        s, c = per_pair.get(key, (0.0, 0))
        per_pair[key] = (s + f.r, c + 1)
    return per_correlate, per_pair, total / len(train_indices)


def reference_predict(reference, mode, c_i, c_j):
    per_correlate, per_pair, global_mean = reference
    seen = [per_correlate.get(c) for c in (c_i, c_j)]
    if seen == [None, None]:
        return global_mean
    if mode == "average":
        means = [s / c for s, c in filter(None, seen)]
        return sum(means) / len(means)
    (s_i, n_i), (s_j, n_j) = (entry or (0.0, 0) for entry in seen)
    s_ij, n_ij = per_pair.get((min(c_i, c_j), max(c_i, c_j)), (0.0, 0))
    return (s_i + s_j - s_ij) / (n_i + n_j - n_ij)


def assert_matches_reference(corpus, train, exact):
    reference = reference_fit(corpus, train)
    for mode in ("pool", "average"):
        model = fit_baseline(corpus, train, mode=mode)
        for i in range(corpus.n_correlates):
            for j in range(corpus.n_correlates):
                if i == j:
                    continue
                got, want = baseline_predict(model, i, j), reference_predict(reference, mode, i, j)
                if exact:
                    assert got == want
                else:
                    assert got == pytest.approx(want, abs=1e-12)
        if exact:
            assert model.per_correlate == reference[0]
            assert model.global_mean == reference[2]


# Small corpora over few correlates, so that pairs are reported several times;
# r has 6 decimals, as in a findings file, so sums round in each order differently.
reported_rows = st.integers(2, 6).flatmap(lambda n_c: st.tuples(
    st.just(n_c),
    st.lists(st.tuples(st.integers(0, n_c - 1), st.integers(0, n_c - 1),
                       st.integers(-10**6, 10**6).map(lambda micro_r: micro_r / 1e6))
             .filter(lambda row: row[0] != row[1]),
             min_size=1, max_size=30)))


@settings(max_examples=100, deadline=None)
@given(data=reported_rows, pick=st.data())
def test_matches_reference_loop(data, pick):
    _, rows = data
    corpus = make_corpus(rows)
    indices = st.integers(0, len(rows) - 1)
    # A split_corpus-style train set: sorted and unique, so sums match exactly.
    train = sorted(pick.draw(st.sets(indices, min_size=1)))
    assert_matches_reference(corpus, train, exact=True)
    # Any other index list: every occurrence counts, in any order.
    train = pick.draw(st.lists(indices, min_size=1, max_size=40))
    assert_matches_reference(corpus, train, exact=False)


def test_split_corpus_indices_match_reference_exactly():
    corpus = random_corpus(np.random.default_rng(4), n_correlates=12, n_findings=400)
    assert_matches_reference(corpus, split_corpus(corpus, 0.8, seed=1).train_indices,
                             exact=True)


def test_repeated_index_counts_every_occurrence():
    corpus = make_corpus([(0, 1, 0.2), (0, 2, 0.4), (1, 2, 0.7)])
    model = fit_baseline(corpus, [0, 0, 1])
    assert model.per_correlate[0] == pytest.approx((0.8, 3))
    assert model.global_mean == pytest.approx(0.8 / 3)
    # Findings with 0 or 1: 0.2 twice and 0.4 once; the pair's own reports count once each.
    assert baseline_predict(model, 0, 1) == pytest.approx(0.8 / 3)
    assert_matches_reference(corpus, [2, 0, 0, 1, 2, 2], exact=False)


def test_unsorted_indices():
    rng = np.random.default_rng(3)
    corpus = random_corpus(rng, n_correlates=6, n_findings=30)
    train = [int(i) for i in rng.permutation(30)[:20]]
    assert train != sorted(train)
    assert_matches_reference(corpus, train, exact=False)


@pytest.mark.parametrize("bad", [2, -1])
def test_index_outside_corpus(bad):
    corpus = make_corpus([(0, 1, 0.2), (0, 2, 0.4)])
    with pytest.raises(ValueError, match=f"train index {bad} outside the corpus's 2 findings"):
        fit_baseline(corpus, [0, bad])
