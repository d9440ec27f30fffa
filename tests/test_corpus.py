import math

import numpy as np
import pytest

from corrnet.corpus import (CorpusError, corpus_stats, generate_synthetic,
                            load_corpus, save_corpus, split_corpus,
                            untested_fraction)
from corrnet.embeddings import random_table


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
    with pytest.raises(CorpusError, match="same variable"):
        load_corpus(path)


def test_r_out_of_range(tmp_path):
    path = write(tmp_path, ["p1\t2010\tA\tB\t1.5"])
    with pytest.raises(CorpusError, match=":1"):
        load_corpus(path)


def test_malformed_rows(tmp_path):
    with pytest.raises(CorpusError, match="5 tab-separated"):
        load_corpus(write(tmp_path, ["p1\t2010\tA\tB"]))
    with pytest.raises(CorpusError, match="unparseable r"):
        load_corpus(write(tmp_path, ["p1\t2010\tA\tB\txyz"]))
    with pytest.raises(CorpusError, match="empty token"):
        load_corpus(write(tmp_path, ["p1\t2010\t???\tB\t0.1"]))


def test_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty corpus"):
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


def test_pair_index_covers_findings(demo_corpus):
    assert sum(len(v) for v in demo_corpus.pair_index.values()) == demo_corpus.n_findings
    for (a, b), idx in demo_corpus.pair_index.items():
        assert a < b
        for i in idx:
            f = demo_corpus.findings[i]
            assert {f.correlate_a, f.correlate_b} == {a, b}


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

    def test_more_correlates_than_phrases(self):
        one_token = random_table(1, 4, seed=0)  # forms 6 phrases: 3 to 8 repeats
        generate_synthetic(6, 5, one_token, seed=0)
        with pytest.raises(ValueError, match="n_correlates = 7 exceeds the 6 distinct"):
            generate_synthetic(7, 5, one_token, seed=0)

    def test_pairs_distinct(self, synth_vocab):
        corpus, _ = generate_synthetic(6, 15, synth_vocab, seed=0)  # all pairs used
        assert len(corpus.pair_index) == 15
