import contextlib
import io
import linecache
import math
import os
import pathlib
import re
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import apply_byte_edits

from corrnet import cli, neural, training
from corrnet import corpus as corpus_mod
from corrnet import ensemble as ensemble_mod
from corrnet import infill as infill_mod
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


def test_config_file_invalid_utf8_names_the_line(workdir, capsys):
    tmp_path, corpus, _ = workdir
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"# \xc3\xa9t\xc3\xa9\nseed = 3\nepochs = \xa6\n")
    rc, _, err = run(capsys, ["--config", str(cfg), "baseline", "--corpus", corpus])
    assert rc == 1
    assert err == f"error: {cfg}:3: not valid UTF-8\n"


def test_selftest(capsys):
    rc, out, _ = run(capsys, ["selftest"])
    assert rc == 0
    assert "gradient_check\tPASS" in out
    assert "group_rows_bitwise\tPASS\t(h 64, m 32, d 8 and 300)\n" in out


def test_selftest_fails_when_grouped_rows_change_bits(capsys, monkeypatch):
    monkeypatch.setattr(neural, "group_rows_bitwise", lambda d, h, m: d != 300)
    rc, out, _ = run(capsys, ["selftest"])
    assert rc == 1
    assert "group_rows_bitwise\tFAIL\t(h 64, m 32, d 8 and 300)\n" in out
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
    # 481 = 3 * 8 * 8 + 3 * 8 * 8 + 4 * 16 + 4 + 3 * 8 + 4 + 1 parameters per member.
    assert (f"{ens_file}: params has shape (2, 481), expected (3, 481) "
            "for d=8, h=8, m=4 and 3 member seeds") in err


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


def corrupt(path, name, index, value):
    """Rewrite one weight entry of a checkpoint file in place, in that
    weight's slice of params (the weights raveled in spec order, one row
    per member)."""
    with np.load(path) as data:
        stored = {k: data[k] for k in data.files}
    shapes = neural._shapes(*stored["__dims"].tolist())
    names = list(shapes)
    start = sum(math.prod(shapes[k]) for k in names[:names.index(name)])
    lead = stored["params"].ndim - 1
    entry = start + np.ravel_multi_index(index[lead:], shapes[name])
    stored["params"][index[:lead] + (entry,)] = value
    with open(path, "wb") as fh:
        np.savez(fh, **stored)


def first_paper(corpus):
    with open(corpus) as fh:
        return fh.readline().split("\t")[0]


@pytest.mark.parametrize("name, index, value", [("u_z", (2, 3), np.nan), ("head_b2", (0,), np.inf)])
def test_non_finite_checkpoint_fails_at_load(workdir, capsys, name, index, value):
    tmp_path, corpus, emb = workdir
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(init_params(8, 8, 4, seed=0), ckpt)
    corrupt(ckpt, name, index, value)
    table = tmp_path / "table"
    for argv in (["eval", "--corpus", corpus, "--checkpoint", ckpt],
                 ["infill", "--corpus", corpus, "--checkpoint", ckpt,
                  "--papers", first_paper(corpus), "--out", str(table)]):
        rc, out, err = run(capsys, argv + ["--embeddings", emb])
        assert rc == 1 and out == ""
        assert f"{ckpt}: non-finite values in parameter {name}" in err
    assert not os.path.exists(f"{table}.values.tsv")


def test_ensemble_with_non_finite_member_fails_at_load(workdir, ens_file, capsys):
    corrupt(ens_file, "w_c", (1, 0, 5), np.nan)
    rc, _, err = qbc(capsys, workdir, ens_file)
    assert rc == 1
    assert f"{ens_file}: non-finite values in parameter w_c" in err


@pytest.mark.parametrize("flags, message", [
    (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (["--epochs", "-1"], "epochs must be >= 0, got -1"),
    (["--learning-rate", "inf"], "learning_rate must be positive and finite, got inf"),
], ids=["batch_size", "epochs", "learning_rate"])
def test_train_rejects_out_of_range_config(workdir, capsys, flags, message):
    tmp_path, corpus, emb = workdir
    ckpt = tmp_path / "model.npz"
    rc, out, err = run(capsys, ["train", "--corpus", corpus, "--embeddings", emb,
                                "--out", str(ckpt)] + flags)
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert not ckpt.exists()


def test_corpus_gen_rejects_negative_noise(tmp_path, capsys):
    out = tmp_path / "c.tsv"
    rc, _, err = run(capsys, ["corpus", "gen", "--correlates", "10", "--findings", "12",
                              "--noise", "-1", "--out", str(out)])
    assert rc == 1
    assert err == "error: noise_sd must be >= 0, got -1.0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--correlates", "1", "--findings", "0"], "n_correlates must be >= 2, got 1"),
    (["--correlates", "10", "--findings", "-3"], "n_findings must be >= 1, got -3"),
    (["--correlates", "-1", "--findings", "1"], "n_correlates must be >= 2, got -1"),
    (["--correlates", "10", "--findings", "5", "--noise", "inf"],
     "noise_sd must be finite, got inf"),
])
def test_corpus_gen_rejects_impossible_request(tmp_path, capsys, argv, message):
    out = tmp_path / "c.tsv"
    rc, stdout, err = run(capsys, ["corpus", "gen", "--out", str(out)] + argv)
    assert (rc, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "baseline"])
@pytest.mark.parametrize("fraction, message", [
    ("0.9", "train_fraction = 0.9 splits 5 findings into 5 train and 0 test; "
            "neither side may be empty"),
    ("0.7", "train_fraction = 0.7 leaves 1 of 5 findings for testing; "
            "the test correlation needs at least 2"),
])
def test_degenerate_split_fails_before_any_work(workdir, capsys, command, fraction, message):
    tmp_path, _, emb = workdir
    corpus = str(tmp_path / "five.tsv")
    assert main(["corpus", "gen", "--correlates", "6", "--findings", "5",
                 "--embeddings", emb, "--out", corpus]) == 0
    capsys.readouterr()
    model, log = tmp_path / "m.npz", tmp_path / "train.log"
    argv = {"train": ["--embeddings", emb, "--out", str(model), "--log", str(log)] + TRAIN_FLAGS,
            "eval": ["--embeddings", emb, "--checkpoint", str(model)],
            "baseline": []}[command]
    rc, stdout, err = run(capsys, [command, "--corpus", corpus, "--train-fraction", fraction]
                          + argv)
    assert (rc, stdout, err) == (1, "", f"error: {message}\n")
    assert not model.exists() and not log.exists()


def test_ensemble_train_rejects_zero_jobs(workdir, capsys):
    tmp_path, corpus, emb = workdir
    out = tmp_path / "ens.npz"
    rc, stdout, err = run(capsys, ["ensemble-train", "--corpus", corpus, "--embeddings", emb,
                                   "--members", "2", "--jobs", "0", "--out", str(out)]
                          + TRAIN_FLAGS)
    assert (rc, stdout, err) == (1, "", "error: jobs must be >= 1, got 0\n")
    assert not out.exists()


def test_qbc_rejects_too_few_candidates_before_any_work(workdir, capsys):
    tmp_path, corpus, emb = workdir
    report = tmp_path / "qbc.tsv"
    rc, _, err = run(capsys, ["qbc", "--corpus", corpus, "--embeddings", emb,
                              "--ensemble", str(tmp_path / "missing"), "--candidates", "5",
                              "--out", str(report)])
    assert rc == 1
    assert err == "error: --candidates must be at least 8 for the disagreement trend, got 5\n"
    assert not report.exists()


def command_argv(workdir, command, out, checkpoint="missing.npz"):
    """The argv of one command on the workdir's inputs, writing to out."""
    tmp_path, corpus, emb = workdir
    inputs = ["--corpus", corpus, "--embeddings", emb]
    gen = ["corpus", "gen", "--correlates", "10", "--findings", "12", "--out", out]
    return {
        "corpus gen": gen,
        "corpus gen --embeddings": gen + ["--embeddings", emb],
        "train": ["train", *inputs, "--out", out] + TRAIN_FLAGS,
        "eval": ["eval", *inputs, "--checkpoint", checkpoint],
        "baseline": ["baseline", "--corpus", corpus],
        "ensemble-train": ["ensemble-train", *inputs, "--members", "2", "--out", out]
                          + TRAIN_FLAGS,
        "qbc": ["qbc", *inputs, "--ensemble", checkpoint, "--candidates", "20", "--out", out],
        "infill": ["infill", *inputs, "--checkpoint", checkpoint,
                   "--papers", first_paper(corpus), "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["corpus gen", "corpus gen --embeddings", "train", "eval",
                                     "baseline", "ensemble-train", "qbc"])
def test_negative_seed_is_refused(workdir, capsys, request, command):
    # Unchecked, numpy refuses it as "expected non-negative integer", naming no parameter.
    tmp_path = workdir[0]
    checkpoint = request.getfixturevalue("ens_file") if command == "qbc" else "missing.npz"
    before = set(os.listdir(tmp_path))
    argv = command_argv(workdir, command, str(tmp_path / "out"), checkpoint)
    rc, out, err = run(capsys, argv + ["--seed", "-1"])
    assert (rc, out, err) == (1, "", "error: seed must be >= 0, got -1\n")
    assert set(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command, flag, step", [
    ("corpus gen", "--out", (corpus_mod, "generate_synthetic")),
    ("corpus gen --embeddings", "--out", (corpus_mod, "generate_synthetic")),
    ("train", "--out", (training, "train")),
    ("train", "--log", (training, "train")),
    ("ensemble-train", "--out", (ensemble_mod, "train_ensemble")),
    ("qbc", "--out", (ensemble_mod, "qbc_search")),
    ("qbc", "--scatter", (ensemble_mod, "qbc_search")),
    ("infill", "--out", (infill_mod, "build_table")),
])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_bad_output_path_fails_before_any_work(workdir, capsys, monkeypatch, command, flag,
                                               step, where):
    tmp_path = workdir[0]

    def fail(*args, **kwargs):
        raise AssertionError("called before the output paths were checked")

    for module, name in (step, (corpus_mod, "load_corpus"), (cli, "load_embeddings"),
                         (cli, "random_table")):
        monkeypatch.setattr(module, name, fail)
    (tmp_path / "taken.values.tsv").mkdir()
    bad = str(tmp_path / "no" / "such" / "dir") if where == "missing-directory" else (
        str(tmp_path / "taken") if command == "infill" else str(tmp_path))
    before = set(os.listdir(tmp_path))
    argv = command_argv(workdir, command, bad if flag == "--out" else str(tmp_path / "out"))
    if flag != "--out":
        argv += [flag, bad]
    written = f"{bad}.values.tsv" if command == "infill" else bad
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (
        1, "", f"error: {flag} {written}: not a file in an existing directory\n")
    assert set(os.listdir(tmp_path)) == before


def test_defect_shows_its_traceback(workdir, monkeypatch):
    # A defect is no input error: main lets it propagate with its traceback.
    def defect(corpus):
        raise KeyError(7)

    monkeypatch.setattr(corpus_mod, "corpus_stats", defect)
    with pytest.raises(KeyError) as exc:
        main(["corpus", "stats", workdir[1]])
    assert exc.value.args == (7,)


def test_request_too_large_for_the_host_is_an_error(workdir, capsys, monkeypatch):
    message = ("Unable to allocate 7.28 EiB for an array with shape (1000000000, "
               "1000000000) and data type float64")

    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(training, "init_params", too_large)
    tmp_path = workdir[0]
    before = set(os.listdir(tmp_path))
    rc, out, err = run(capsys, command_argv(workdir, "train", str(tmp_path / "m.npz")))
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert set(os.listdir(tmp_path)) == before


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_member_names_its_seed_and_cause(workdir, capsys, jobs):
    tmp_path = workdir[0]
    out = tmp_path / "ens.npz"
    rc, stdout, err = run(capsys, command_argv(workdir, "ensemble-train", str(out))
                          + ["--learning-rate", "1e308", "--jobs", jobs])
    assert (rc, stdout, err) == (1, "", "error: training ensemble member 0 (seed 1) failed: "
                                        "non-finite gradient for parameter w_z; step rejected\n")
    assert not out.exists()


# The error contract, as a property over every command: one input is
# mutated, and the run either succeeds or fails as bad input. Inputs are the
# names in CONTRACT_INPUTS; outputs are "out", "log" and "scatter".
CONTRACT_INPUTS = ("corpus.tsv", "vectors.txt", "narrow.txt", "model.npz", "ensemble.npz")
SMALL_TRAIN = ["--epochs", "2", "--hidden-size", "3", "--head-width", "2", "--batch-size", "4",
               "--patience", "1", "--learning-rate", "0.01", "--grad-clip", "5", "--seed", "0",
               "--train-fraction", "0.8"]
SPLIT = ["--seed", "0", "--train-fraction", "0.8"]
GEN = ["corpus", "gen", "--correlates", "8", "--findings", "10", "--seed", "0",
       "--noise", "0.05", "--out", "out"]
CONTRACT_COMMANDS = {
    "corpus stats": ["corpus", "stats", "corpus.tsv"],
    "corpus gen": GEN,
    "corpus gen --embeddings": GEN + ["--embeddings", "vectors.txt"],
    "train": ["train", "--corpus", "corpus.tsv", "--embeddings", "vectors.txt", "--out", "out",
              "--log", "log"] + SMALL_TRAIN,
    "eval": ["eval", "--corpus", "corpus.tsv", "--embeddings", "vectors.txt",
             "--checkpoint", "model.npz"] + SPLIT,
    "baseline": ["baseline", "--corpus", "corpus.tsv"] + SPLIT,
    "ensemble-train": ["ensemble-train", "--corpus", "corpus.tsv", "--embeddings", "vectors.txt",
                       "--members", "2", "--jobs", "1", "--out", "out"] + SMALL_TRAIN,
    "qbc": ["qbc", "--corpus", "corpus.tsv", "--embeddings", "vectors.txt",
            "--ensemble", "ensemble.npz", "--candidates", "8", "--top", "0.25", "--seed", "0",
            "--out", "out", "--scatter", "scatter"],
    "infill": ["infill", "--corpus", "corpus.tsv", "--embeddings", "vectors.txt",
               "--checkpoint", "ensemble.npz", "--papers", "synth0", "--out", "out"],
}
# argparse itself refuses nan and inf for an int flag, with a usage error.
INT_FLAGS = {"--seed", "--epochs", "--hidden-size", "--head-width", "--batch-size", "--patience",
             "--members", "--jobs", "--candidates", "--correlates", "--findings"}
FLOAT_FLAGS = {"--train-fraction", "--learning-rate", "--grad-clip", "--noise", "--top"}


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """Tiny inputs for every command: 4-dim vectors with a header, 3-dim ones
    for the same tokens, a 24-finding corpus, a model and a 2-member ensemble."""
    where = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(1)
    for name, width in (("vectors.txt", 4), ("narrow.txt", 3)):
        rows = ["w%04d %s" % (i, " ".join("%.6f" % v for v in rng.standard_normal(width)))
                for i in range(20)]
        (where / name).write_text(f"20 {width}\n" + "\n".join(rows) + "\n")
    path = {name: str(where / name) for name in CONTRACT_INPUTS}
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["corpus", "gen", "--correlates", "12", "--findings", "24", "--seed", "2",
                      "--embeddings", path["vectors.txt"], "--out", path["corpus.tsv"]],
                     ["train", "--corpus", path["corpus.tsv"], "--embeddings", path["vectors.txt"],
                      "--out", path["model.npz"]] + SMALL_TRAIN,
                     ["ensemble-train", "--corpus", path["corpus.tsv"], "--embeddings",
                      path["vectors.txt"], "--members", "2", "--out", path["ensemble.npz"]]
                     + SMALL_TRAIN):
            assert main(argv) == 0
    return {name: (where / name).read_bytes() for name in CONTRACT_INPUTS}


@st.composite
def mutated_runs(draw):
    """A command, and one mutation of it: an input file truncated, given one
    byte or emptied, the vector file swapped for one of another width, or a
    numeric flag set to an edge value."""
    command = draw(st.sampled_from(sorted(CONTRACT_COMMANDS)))
    argv = list(CONTRACT_COMMANDS[command])
    files = [a for a in argv if a in CONTRACT_INPUTS]
    flags = [i for i, a in enumerate(argv) if a in INT_FLAGS | FLOAT_FLAGS]
    kind = draw(st.sampled_from([kind for kind, possible in (
        ("file", files), ("swap", "vectors.txt" in argv), ("flag", flags)) if possible]))
    edits, flag = [], None
    if kind == "file":
        edits = [(draw(st.sampled_from(files)), draw(st.one_of(
            st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True), st.just(0)),
            st.tuples(st.just("set"), st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
            st.just(("truncate", 0.0, 0)))))]
    elif kind == "swap":
        argv[argv.index("vectors.txt")] = "narrow.txt"
    else:
        i = draw(st.sampled_from(flags))
        flag = argv[i]
        value = draw(st.sampled_from(
            ["0", "-1"] if flag in INT_FLAGS else ["nan", "inf", "-inf", "0", "-1"]))
        argv[i:i + 2] = [f"{flag}={value}"]  # argparse would read a bare -inf as a flag
    return argv, edits, flag


def _raised_here(exc) -> bool:
    """Whether exc was raised by a raise statement in the corrnet package."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    filename = tb.tb_frame.f_code.co_filename
    return (os.path.dirname(filename) == os.path.dirname(cli.__file__)
            and linecache.getline(filename, tb.tb_lineno).lstrip().startswith("raise"))


@seed(33)
@settings(max_examples=400, deadline=None)
@given(case=mutated_runs())
def test_every_failure_is_one_error_line_raised_by_corrnet(contract_inputs, case):
    argv, edits, flag = case
    with tempfile.TemporaryDirectory() as where:
        for name, data in contract_inputs.items():
            with open(os.path.join(where, name), "wb") as fh:
                fh.write(data)
        for name, edit in edits:
            apply_byte_edits(pathlib.Path(where, name), [edit])
        before = set(os.listdir(where))
        argv = [os.path.join(where, a) if a in CONTRACT_INPUTS + ("out", "log", "scatter")
                else a for a in argv]
        reported = []

        def record(*args, **kwargs):  # main's print, which sees the exception it reports
            if sys.exc_info()[1] is not None:
                reported.append(sys.exc_info()[1])
            print(*args, **kwargs)

        out, err = io.StringIO(), io.StringIO()
        # Overflow in training on a mutated vector is a warning, not part of the contract.
        with mock.patch.object(cli, "print", record, create=True), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(argv)
        if rc == 0:
            assert err.getvalue() == ""
            return
        assert rc == 1 and out.getvalue() == ""
        assert re.fullmatch(r"error: [^\n]+\n", err.getvalue())
        assert set(os.listdir(where)) == before
        [exc] = reported
        assert isinstance(exc, (ValueError, OSError, MemoryError))
        if isinstance(exc, ValueError):
            assert _raised_here(exc), exc
        if flag is not None:
            assert flag[2:].replace("-", "_") in str(exc)
