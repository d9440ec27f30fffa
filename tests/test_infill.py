import numpy as np
import pytest

from corrnet import neural
from corrnet.corpus import Correlate, Finding
from corrnet.ensemble import Ensemble
from corrnet.infill import (KIND_DIAGONAL, KIND_PREDICTED, KIND_REPORTED,
                            build_table, export_table)
from corrnet.neural import init_params, predict
from corrnet.training import embed_pairs

from conftest import corpus_from_findings, random_corpus


def two_paper_corpus():
    correlates = {i: Correlate(i, f"var {i}", (f"var{i}",)) for i in range(4)}
    findings = [
        Finding(0, 1, 0.3, "pA", 2010),
        Finding(2, 3, -0.2, "pB", 2010),
    ]
    return corpus_from_findings(correlates, findings)


@pytest.fixture
def model(synth_vocab):
    return init_params(synth_vocab.dim, 6, 4, seed=0)


def test_two_paper_infill_fraction(model, synth_vocab):
    ct = build_table(two_paper_corpus(), ["pA", "pB"], model, synth_vocab)
    assert ct.infill_fraction == pytest.approx(4 / 6)
    assert ct.correlate_order == [0, 1, 2, 3]


def test_reported_cells_hold_mean_r(model, synth_vocab):
    corpus = two_paper_corpus()
    corpus = corpus_from_findings(corpus.correlates,
                                  list(corpus.findings) + [Finding(0, 1, 0.5, "pC", 2012)])
    ct = build_table(corpus, ["pA", "pB"], model, synth_vocab)
    assert ct.kinds[0, 1] == KIND_REPORTED
    assert ct.values[0, 1] == pytest.approx(0.4)  # mean of 0.3 and 0.5


def test_fully_reported_paper(model, synth_vocab):
    correlates = {i: Correlate(i, f"v{i}", (f"v{i}",)) for i in range(3)}
    findings = [Finding(0, 1, 0.1, "pA", 2010), Finding(0, 2, 0.2, "pA", 2010),
                Finding(1, 2, 0.3, "pA", 2010)]
    ct = build_table(corpus_from_findings(correlates, findings), ["pA"], model, synth_vocab)
    assert ct.infill_fraction == 0.0


def test_symmetry_and_kinds(model, synth_vocab):
    ct = build_table(two_paper_corpus(), ["pA", "pB"], model, synth_vocab)
    n = len(ct.correlate_order)
    for i in range(n):
        assert ct.kinds[i, i] == KIND_DIAGONAL
        assert np.isnan(ct.values[i, i])
        for j in range(n):
            if i != j:
                assert ct.values[i, j] == ct.values[j, i]
                assert ct.kinds[i, j] == ct.kinds[j, i]
                assert -1.0 <= ct.values[i, j] <= 1.0


def test_reported_never_overwritten(model, synth_vocab):
    rng = np.random.default_rng(0)
    for trial in range(10):
        corpus = random_corpus(rng, n_correlates=6, n_findings=10)
        papers = sorted({f.paper_id for f in corpus.findings})
        ct = build_table(corpus, papers, model, synth_vocab)
        pos = {cid: k for k, cid in enumerate(ct.correlate_order)}
        for (a, b), idx in corpus.pair_index.items():
            i, j = pos[a], pos[b]
            assert ct.kinds[i, j] == KIND_REPORTED
            expected = np.mean([corpus.findings[k].r for k in idx])
            assert ct.values[i, j] == pytest.approx(expected)


def test_ensemble_model(synth_vocab):
    members = [init_params(synth_vocab.dim, 4, 3, seed=k) for k in range(2)]
    ens = Ensemble(members, [0, 1], False)
    ct = build_table(two_paper_corpus(), ["pA", "pB"], ens, synth_vocab)
    assert ct.infill_fraction == pytest.approx(4 / 6)


def test_encodes_each_correlate_once_per_member(synth_vocab, monkeypatch):
    # Every one of the 4 correlates is in a predicted cell; 2 members.
    encoded = []
    encode_block = neural._encode_block
    monkeypatch.setattr(neural, "_encode_block",
                        lambda a, *rest: encoded.append(a.shape[1]) or encode_block(a, *rest))
    members = [init_params(synth_vocab.dim, 4, 3, seed=k) for k in range(2)]
    build_table(two_paper_corpus(), ["pA", "pB"], Ensemble(members, [0, 1], False), synth_vocab)
    assert sum(encoded) == 4 * 2


def test_unknown_paper(model, synth_vocab):
    for papers in (["pZ"], ["pA", "pZ"]):
        with pytest.raises(ValueError, match="unknown paper id 'pZ'"):
            build_table(two_paper_corpus(), papers, model, synth_vocab)


def scan_table(corpus, paper_ids, model, table):
    """Correlate order and values from scans over every finding."""
    order = []
    for pid in paper_ids:
        for f in corpus.findings:
            if f.paper_id == pid:
                order += [c for c in (f.correlate_a, f.correlate_b) if c not in order]
    n = len(order)
    values = np.full((n, n), np.nan)
    unreported = []
    for i in range(n):
        for j in range(i + 1, n):
            rs = [f.r for f in corpus.findings
                  if {f.correlate_a, f.correlate_b} == {order[i], order[j]}]
            if rs:
                values[i, j] = values[j, i] = np.mean(rs)
            else:
                unreported.append((i, j))
    pairs = [(order[i], order[j]) for i, j in unreported]
    means = predict([model], embed_pairs(corpus, pairs, table), pairs).mean(axis=1)
    for (i, j), val in zip(unreported, means):
        values[i, j] = values[j, i] = val
    return order, values


def test_interleaved_papers_match_scan(model, synth_vocab):
    correlates = {i: Correlate(i, f"var {i}", (f"var{i}",)) for i in range(6)}
    findings = [Finding(0, 1, 0.1, "pA", 2010), Finding(2, 3, 0.2, "pB", 2010),
                Finding(4, 1, 0.3, "pA", 2010), Finding(5, 2, 0.4, "pC", 2010),
                Finding(3, 0, 0.5, "pB", 2010), Finding(1, 0, 0.6, "pA", 2010)]
    corpus = corpus_from_findings(correlates, findings)
    rng = np.random.default_rng(6)
    cases = [(corpus, ["pB", "pA"]), (corpus, ["pC", "pA", "pB"])]
    for _ in range(10):
        corpus = random_corpus(rng, n_correlates=8, n_findings=16)
        papers = sorted({f.paper_id for f in corpus.findings})
        cases.append((corpus, [str(p) for p in rng.permutation(papers)]))
    for corpus, papers in cases:
        ct = build_table(corpus, papers, model, synth_vocab)
        order, values = scan_table(corpus, papers, model, synth_vocab)
        assert ct.correlate_order == order
        np.testing.assert_array_equal(ct.values, values)
    assert build_table(*cases[0], model, synth_vocab).correlate_order == [2, 3, 0, 1, 4]


def read_tsv(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh]


def test_export_round_trip(tmp_path, model, synth_vocab):
    ct = build_table(two_paper_corpus(), ["pA", "pB"], model, synth_vocab)
    values_path, mask_path = export_table(ct, tmp_path / "table")
    values = read_tsv(values_path)
    mask = read_tsv(mask_path)
    n = len(ct.correlate_order)
    assert len(values) == n + 1 and len(values[0]) == n + 1
    assert values[0][1:] == ct.texts
    counts = {"R": 0, "P": 0, "D": 0}
    for i in range(n):
        assert values[i + 1][0] == ct.texts[i]
        for j in range(n):
            cell = values[i + 1][j + 1]
            kind = mask[i + 1][j + 1]
            counts[kind] += 1
            if i == j:
                assert cell == "" and kind == "D"
            else:
                assert float(cell) == pytest.approx(ct.values[i, j], abs=5e-7)
    assert counts["D"] == n
    assert counts["R"] == int(np.sum(ct.kinds == KIND_REPORTED))
    assert counts["P"] == int(np.sum(ct.kinds == KIND_PREDICTED))
