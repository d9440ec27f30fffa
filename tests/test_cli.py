import os

import numpy as np
import pytest

from corrnet.cli import main
from corrnet.neural import init_params, save_checkpoint


@pytest.fixture
def workdir(tmp_path, capsys):
    """Generate a small corpus and embedding file for CLI runs."""
    emb = tmp_path / "vectors.txt"
    rng = np.random.default_rng(0)
    with open(emb, "w") as fh:
        for i in range(50):
            fh.write("w%04d " % i + " ".join("%.6f" % v for v in rng.standard_normal(8)) + "\n")
    corpus = tmp_path / "corpus.tsv"
    rc = main(["corpus", "gen", "--correlates", "25", "--findings", "40",
               "--seed", "3", "--noise", "0.05", "--embeddings", str(emb),
               "--out", str(corpus)])
    assert rc == 0
    capsys.readouterr()
    return tmp_path, str(corpus), str(emb)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_no_arguments(capsys):
    rc, _, err = run(capsys, [])
    assert rc == 2
    assert "usage" in err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_corpus_stats(workdir, capsys):
    _, corpus, _ = workdir
    rc, out, _ = run(capsys, ["corpus", "stats", corpus])
    assert rc == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert 2 <= int(lines["n_correlates"]) <= 25
    assert int(lines["n_tested_pairs"]) <= 40
    assert 0.0 <= float(lines["untested_fraction"]) <= 1.0


def test_corpus_stats_missing_file(capsys):
    rc, _, err = run(capsys, ["corpus", "stats", "/nonexistent.tsv"])
    assert rc == 1
    assert "error:" in err


TRAIN_FLAGS = ["--epochs", "3", "--hidden-size", "8", "--head-width", "4", "--seed", "1"]


def test_train_eval_baseline(workdir, capsys):
    tmp_path, corpus, emb = workdir
    ckpt = str(tmp_path / "model.npz")
    log = str(tmp_path / "train.log")
    rc, out, _ = run(capsys, ["train", "--corpus", corpus, "--embeddings", emb,
                              "--out", ckpt, "--log", log] + TRAIN_FLAGS)
    assert rc == 0
    assert out.startswith("test_pearson_r\t")
    assert os.path.exists(ckpt)
    with open(log) as fh:
        header = fh.readline().strip()
    assert header == "epoch\ttrain_loss\tval_loss"

    rc, out2, _ = run(capsys, ["eval", "--corpus", corpus, "--embeddings", emb,
                               "--checkpoint", ckpt, "--seed", "1"])
    assert rc == 0
    assert out2 == out.splitlines()[-1] + "\n" or out2.startswith("test_pearson_r")

    rc, out3, _ = run(capsys, ["baseline", "--corpus", corpus, "--seed", "1"])
    assert rc == 0
    assert out3.startswith("test_pearson_r\t")


def test_ensemble_qbc_infill(workdir, capsys):
    tmp_path, corpus, emb = workdir
    ens_dir = str(tmp_path / "ens")
    rc, _, _ = run(capsys, ["ensemble-train", "--corpus", corpus, "--embeddings", emb,
                            "--members", "2", "--out", ens_dir] + TRAIN_FLAGS)
    assert rc == 0
    assert os.path.exists(os.path.join(ens_dir, "member_000.npz"))
    assert os.path.exists(os.path.join(ens_dir, "manifest.tsv"))

    report = str(tmp_path / "qbc.tsv")
    scatter = str(tmp_path / "scatter.tsv")
    rc, out, _ = run(capsys, ["qbc", "--corpus", corpus, "--embeddings", emb,
                              "--ensemble", ens_dir, "--candidates", "60",
                              "--top", "0.05", "--seed", "2",
                              "--out", report, "--scatter", scatter])
    assert rc == 0
    with open(report) as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()]
    assert rows[0] == ["correlate_a_text", "correlate_b_text", "mean",
                       "disagreement", "ci_half_width", "flagged"]
    assert len(rows) == 61
    assert sum(int(r[5]) for r in rows[1:]) == 3
    with open(scatter) as fh:
        assert fh.readline().strip() == "mean\tdisagreement"

    paper = None
    with open(corpus) as fh:
        paper = fh.readline().split("\t")[0]
    rc, out, _ = run(capsys, ["infill", "--corpus", corpus, "--embeddings", emb,
                              "--checkpoint", ens_dir, "--papers", paper,
                              "--out", str(tmp_path / "table")])
    assert rc == 0
    assert out.startswith("infill_fraction\t")
    assert os.path.exists(str(tmp_path / "table.values.tsv"))
    assert os.path.exists(str(tmp_path / "table.mask.tsv"))


def test_config_file_precedence(workdir, capsys):
    tmp_path, corpus, emb = workdir
    cfg = tmp_path / "corrnet.cfg"
    cfg.write_text("epochs = 2\nhidden_size = 8\nhead_width = 4\nseed = 9\n")
    ckpt = str(tmp_path / "m.npz")
    rc, _, _ = run(capsys, ["--config", str(cfg), "train", "--corpus", corpus,
                            "--embeddings", emb, "--out", ckpt])
    assert rc == 0
    from corrnet.neural import load_checkpoint
    assert load_checkpoint(ckpt).h == 8


def test_selftest(capsys):
    rc, out, _ = run(capsys, ["selftest"])
    assert rc == 0
    assert "gradient_check\tPASS" in out


def test_eval_rejects_checkpoint_of_other_dimension(workdir, capsys):
    tmp_path, corpus, emb = workdir
    ckpt = str(tmp_path / "d5.npz")
    save_checkpoint(init_params(5, 4, 3, seed=0), ckpt)
    rc, _, err = run(capsys, ["eval", "--corpus", corpus, "--embeddings", emb,
                              "--checkpoint", ckpt])
    assert rc == 1
    assert f"{ckpt}: model takes 5-dim vectors, the vector file has 8" in err


@pytest.fixture
def ens_dir(workdir, capsys):
    tmp_path, corpus, emb = workdir
    ens_dir = str(tmp_path / "ens")
    rc, _, _ = run(capsys, ["ensemble-train", "--corpus", corpus, "--embeddings", emb,
                            "--members", "2", "--out", ens_dir] + TRAIN_FLAGS)
    assert rc == 0
    return ens_dir


def qbc(capsys, workdir, ens_dir):
    tmp_path, corpus, emb = workdir
    return run(capsys, ["qbc", "--corpus", corpus, "--embeddings", emb, "--ensemble", ens_dir,
                        "--candidates", "20", "--out", str(tmp_path / "qbc.tsv")])


def test_qbc_rejects_missing_manifest(workdir, ens_dir, capsys):
    os.remove(os.path.join(ens_dir, "manifest.tsv"))
    rc, _, err = qbc(capsys, workdir, ens_dir)
    assert rc == 1
    assert "manifest.tsv: ensemble manifest is missing" in err


def test_qbc_rejects_manifest_member_count_mismatch(workdir, ens_dir, capsys):
    save_checkpoint(init_params(8, 8, 4, seed=0), os.path.join(ens_dir, "member_002.npz"))
    rc, _, err = qbc(capsys, workdir, ens_dir)
    assert rc == 1
    assert "manifest.tsv: 2 rows for 3 member checkpoints" in err


def test_qbc_rejects_members_of_different_dims(workdir, ens_dir, capsys):
    save_checkpoint(init_params(5, 8, 4, seed=0), os.path.join(ens_dir, "member_001.npz"))
    rc, _, err = qbc(capsys, workdir, ens_dir)
    assert rc == 1
    assert "member_001.npz: dims (5, 8, 4) differ from" in err
