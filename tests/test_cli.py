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
    assert os.path.isfile(ens_dir)

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
    cfg.write_text("epochs = 2\nhidden_size = 8\nhead_width = 4\nseed = 9\nnoise = 0.2\n")
    from corrnet.neural import load_checkpoint
    for flags, h in (([], 8), (["--hidden-size", "6"], 6)):
        ckpt = str(tmp_path / "m.npz")
        rc, _, _ = run(capsys, ["--config", str(cfg), "train", "--corpus", corpus,
                                "--embeddings", emb, "--out", ckpt] + flags)
        assert rc == 0
        assert load_checkpoint(ckpt).h == h

    # corpus gen sits under the nested corpus parser
    gen = ["corpus", "gen", "--correlates", "10", "--findings", "12", "--embeddings", emb]
    outputs = {}
    for name, argv in (("file", ["--config", str(cfg)] + gen),
                       ("flags", gen + ["--seed", "9", "--noise", "0.2"]),
                       ("file+flag", ["--config", str(cfg)] + gen + ["--seed", "4"]),
                       ("flags4", gen + ["--seed", "4", "--noise", "0.2"])):
        out = tmp_path / f"{name}.tsv"
        assert run(capsys, argv + ["--out", str(out)])[0] == 0
        outputs[name] = out.read_bytes()
    assert outputs["file"] == outputs["flags"]
    assert outputs["file+flag"] == outputs["flags4"] != outputs["file"]


def test_config_from_environment(workdir, capsys, monkeypatch):
    tmp_path, corpus, emb = workdir
    cfg = tmp_path / "env.cfg"
    cfg.write_text("epochs = 1\nhidden_size = 5\nhead_width = 4\n")
    monkeypatch.setenv("CORRNET_CONFIG", str(cfg))
    ckpt = str(tmp_path / "m.npz")
    rc, _, _ = run(capsys, ["train", "--corpus", corpus, "--embeddings", emb, "--out", ckpt])
    assert rc == 0
    from corrnet.neural import load_checkpoint
    assert load_checkpoint(ckpt).h == 5


@pytest.mark.parametrize("text, message", [
    (None, "No such file or directory"),
    ("seed 3\n", ":1: expected 'key = value'"),
    ("seed = 3\nepoch = 1\n", ":2: unknown key 'epoch'"),
    ("mode = average\n", ":1: unknown key 'mode'"),
    ("log = train.tsv\n", ":1: unknown key 'log'"),
    ("# comment\nepochs = abc\n", ":2: epochs: invalid int value 'abc'"),
])
def test_config_file_errors_name_the_file(workdir, capsys, text, message):
    tmp_path, corpus, _ = workdir
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_text(text)
    rc, _, err = run(capsys, ["--config", str(cfg), "baseline", "--corpus", corpus])
    assert rc == 1
    assert err.startswith("error: ") and str(cfg) in err
    assert message in err


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
def ens_file(workdir, capsys):
    tmp_path, corpus, emb = workdir
    ens_file = str(tmp_path / "ens")
    rc, _, _ = run(capsys, ["ensemble-train", "--corpus", corpus, "--embeddings", emb,
                            "--members", "2", "--out", ens_file] + TRAIN_FLAGS)
    assert rc == 0
    return ens_file


def qbc(capsys, workdir, ens_file):
    tmp_path, corpus, emb = workdir
    return run(capsys, ["qbc", "--corpus", corpus, "--embeddings", emb, "--ensemble", ens_file,
                        "--candidates", "20", "--out", str(tmp_path / "qbc.tsv")])


def test_qbc_rejects_seed_count_mismatch(workdir, ens_file, capsys):
    with np.load(ens_file) as data:
        stored = {k: data[k] for k in data.files}
    stored["__seeds"] = np.array([1, 2, 3])
    with open(ens_file, "wb") as fh:
        np.savez(fh, **stored)
    rc, _, err = qbc(capsys, workdir, ens_file)
    assert rc == 1
    assert f"{ens_file}: w_z has shape (2, 8, 8), expected (3, 8, 8)" in err


def test_qbc_rejects_model_file(workdir, capsys):
    ckpt = str(workdir[0] / "model.npz")
    save_checkpoint(init_params(8, 8, 4, seed=0), ckpt)
    rc, _, err = qbc(capsys, workdir, ckpt)
    assert rc == 1
    assert f"{ckpt}: this command needs an ensemble" in err


def test_eval_rejects_ensemble_file(workdir, ens_file, capsys):
    _, corpus, emb = workdir
    rc, _, err = run(capsys, ["eval", "--corpus", corpus, "--embeddings", emb,
                              "--checkpoint", ens_file])
    assert rc == 1
    assert f"{ens_file}: this command needs a single model" in err
