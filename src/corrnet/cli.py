"""Command-line entry point: every workflow as a subcommand.

Configuration precedence: built-in defaults < config file (flat key = value
lines, located via --config or the CORRNET_CONFIG environment variable)
< command-line flags.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import baseline as baseline_mod
from . import corpus as corpus_mod
from . import ensemble as ensemble_mod
from . import infill as infill_mod
from . import neural, training
from .embeddings import load_embeddings, random_table
from .textnorm import utf8_errors

# The keys a config file may set, each read with its flag's type.
FILE_KEYS = {"train_fraction": float, "seed": int, "epochs": int, "learning_rate": float,
             "grad_clip": float, "batch_size": int, "patience": int, "hidden_size": int,
             "head_width": int, "members": int, "candidates": int, "top": float,
             "noise": float, "jobs": int}


def load_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh, utf8_errors(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = (part.strip() for part in line.partition("="))
            if key not in FILE_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = FILE_KEYS[key](raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key}: invalid "
                                 f"{FILE_KEYS[key].__name__} value {raw!r}") from None
    return values


def _check_output(flag: str, *paths) -> None:
    """Refuse an output path of the flag whose directory does not exist, or
    that is itself a directory; each command checks before it reads input."""
    for path in paths:
        if path is not None and (os.path.isdir(path)
                                 or not os.path.isdir(os.path.dirname(path) or ".")):
            raise ValueError(f"--{flag} {path}: not a file in an existing directory")


def _train_config(args) -> training.TrainConfig:
    return training.TrainConfig(
        epochs=args.epochs, learning_rate=args.learning_rate, grad_clip=args.grad_clip,
        batch_size=args.batch_size, early_stop_patience=args.patience, seed=args.seed,
        hidden_size=args.hidden_size, head_width=args.head_width)


def _load_split(args, min_test=0):
    """The corpus and its split; a command that reports a test correlation
    asks for min_test = 2 test findings."""
    corpus = corpus_mod.load_corpus(args.corpus)
    split = corpus_mod.split_corpus(corpus, args.train_fraction, args.seed)
    if len(split.test_indices) < min_test:
        raise ValueError(f"train_fraction = {args.train_fraction} leaves "
                         f"{len(split.test_indices)} of {corpus.n_findings} findings for testing; "
                         f"the test correlation needs at least {min_test}")
    return corpus, split


def _write_report_log(report: training.TrainReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\ttrain_loss\tval_loss\n")
        for e, (tl, vl) in enumerate(zip(report.train_losses, report.val_losses)):
            fh.write("%d\t%.10f\t%.10f\n" % (e, tl, vl))


def cmd_corpus(args) -> int:
    if args.corpus_cmd == "stats":
        corpus = corpus_mod.load_corpus(args.file)
        stats = corpus_mod.corpus_stats(corpus)
        print("n_correlates\t%d" % stats["n_correlates"])
        print("n_tested_pairs\t%d" % stats["n_tested_pairs"])
        print("untested_fraction\t%.6f" % stats["untested_fraction"])
        return 0
    # gen
    _check_output("out", args.out)
    if args.embeddings:
        vocab = load_embeddings(args.embeddings)
    else:
        vocab = random_table(100, 16, args.seed)
    corpus, _ = corpus_mod.generate_synthetic(
        args.correlates, args.findings, vocab, noise_sd=args.noise, seed=args.seed)
    corpus_mod.save_corpus(corpus, args.out)
    print(f"wrote {corpus.n_findings} findings over {corpus.n_correlates} correlates to {args.out}")
    return 0


def cmd_train(args) -> int:
    _check_output("out", args.out)
    _check_output("log", args.log)
    corpus, split = _load_split(args, min_test=2)
    table = load_embeddings(args.embeddings)
    params, report = training.train(corpus, split, table, _train_config(args))
    result = training.evaluate(params, corpus, split.test_indices, table)
    neural.save_checkpoint(params, args.out)
    if args.log:
        _write_report_log(report, args.log)
    print("test_pearson_r\t%.6f" % result["pearson_r"])
    return 0


def cmd_eval(args) -> int:
    corpus, split = _load_split(args, min_test=2)
    table = load_embeddings(args.embeddings)
    params = _load_model(args.checkpoint, table, neural.ModelParams)
    result = training.evaluate(params, corpus, split.test_indices, table)
    print("test_pearson_r\t%.6f" % result["pearson_r"])
    return 0


def cmd_baseline(args) -> int:
    corpus, split = _load_split(args, min_test=2)
    model = baseline_mod.fit_baseline(corpus, split.train_indices, mode=args.mode)
    rows = split.test_indices
    preds = [baseline_mod.baseline_predict(model, a, b)
             for a, b in zip(corpus.a[rows].tolist(), corpus.b[rows].tolist())]
    actual = corpus.r[rows].tolist()
    from .stats import pearson
    print("test_pearson_r\t%.6f" % pearson(actual, preds))
    return 0


def _load_model(path, table, kind=(neural.ModelParams, neural.Ensemble)):
    """A model or ensemble file, of the kind the command needs, whose input
    dimension is the vector file's."""
    model = neural.load_checkpoint(path)
    if not isinstance(model, kind):
        raise ValueError(f"{path}: this command needs "
                         + ("an ensemble" if kind is neural.Ensemble else "a single model"))
    d = (model.members[0] if isinstance(model, neural.Ensemble) else model).d
    if d != table.dim:
        raise ValueError(f"{path}: model takes {d}-dim vectors, the vector file has {table.dim}")
    return model


def cmd_ensemble_train(args) -> int:
    _check_output("out", args.out)
    corpus, split = _load_split(args)
    table = load_embeddings(args.embeddings)
    ens = ensemble_mod.train_ensemble(corpus, split, table, _train_config(args), args.members,
                                      bagging=not args.no_bagging, jobs=args.jobs)
    neural.save_checkpoint(ens, args.out)
    print(f"wrote a {args.members}-member ensemble to {args.out}")
    return 0


def cmd_qbc(args) -> int:
    if args.candidates < ensemble_mod.MIN_TREND_ESTIMATES:
        raise ValueError(f"--candidates must be at least {ensemble_mod.MIN_TREND_ESTIMATES} "
                         f"for the disagreement trend, got {args.candidates}")
    _check_output("out", args.out)
    _check_output("scatter", args.scatter)
    corpus = corpus_mod.load_corpus(args.corpus)
    table = load_embeddings(args.embeddings)
    ens = _load_model(args.ensemble, table, neural.Ensemble)
    estimates = ensemble_mod.qbc_search(ens, corpus, table, args.candidates, args.seed, args.top)
    trend = ensemble_mod.disagreement_trend(estimates)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("correlate_a_text\tcorrelate_b_text\tmean\tdisagreement\tci_half_width\tflagged\n")
        for e in estimates:
            fh.write("%s\t%s\t%.6f\t%.6f\t%.6f\t%d\n" % (
                corpus.correlates[e.pair[0]].raw_text,
                corpus.correlates[e.pair[1]].raw_text,
                e.mean, e.disagreement, e.ci_half_width, int(e.flagged)))
    if args.scatter:
        with open(args.scatter, "w", encoding="utf-8") as fh:
            fh.write("mean\tdisagreement\n")
            for e in estimates:
                fh.write("%.6f\t%.6f\n" % (e.mean, e.disagreement))
    print("trend_pearson_r\t%.6f" % trend["pearson_r"])
    print("mwu_u\t%.1f" % trend["mwu"].u_statistic)
    print("mwu_p\t%.3g" % trend["mwu"].p_value)
    return 0


def cmd_infill(args) -> int:
    _check_output("out", f"{args.out}.values.tsv", f"{args.out}.mask.tsv")
    corpus = corpus_mod.load_corpus(args.corpus)
    table = load_embeddings(args.embeddings)
    model = _load_model(args.checkpoint, table)
    papers = args.papers.split(",")
    ct = infill_mod.build_table(corpus, papers, model, table)
    values_path, mask_path = infill_mod.export_table(ct, args.out)
    print("infill_fraction\t%.6f" % ct.infill_fraction)
    print(f"wrote {values_path} and {mask_path}")
    return 0


def cmd_selftest(args) -> int:
    """Gradient check and small oracles; prints pass/fail per check."""
    from .stats import mann_whitney_u, pearson
    ok = True

    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(5):
        params = neural.init_params(4, 3, 2, seed=trial)
        seq_a = [rng.standard_normal(4) for _ in range(int(rng.integers(1, 5)))]
        seq_b = [rng.standard_normal(4) for _ in range(int(rng.integers(1, 5)))]
        worst = max(worst, neural.gradcheck(params, seq_a, seq_b))
    grad_ok = worst < 1e-4
    ok &= grad_ok
    print("gradient_check\t%s\t(max rel err %.2e)" % ("PASS" if grad_ok else "FAIL", worst))

    # predict and predict_pair agree bit for bit only if this host's BLAS
    # gives a row the same bits in any group of a product call.
    config = training.TrainConfig()
    h, m = config.hidden_size, config.head_width
    group_ok = all(neural.group_rows_bitwise(d, h, m) for d in (8, 300))
    ok &= group_ok
    print("group_rows_bitwise\t%s\t(h %d, m %d, d 8 and 300)" % ("PASS" if group_ok else "FAIL",
                                                                 h, m))

    p_ok = abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12
    ok &= p_ok
    print("pearson_oracle\t%s" % ("PASS" if p_ok else "FAIL"))

    u_ok = mann_whitney_u([1, 2], [3, 4]).u_statistic == 0.0
    ok &= u_ok
    print("mwu_oracle\t%s" % ("PASS" if u_ok else "FAIL"))
    return 0 if ok else 1


def build_parser(file_config=None) -> argparse.ArgumentParser:
    """The command-line parser; file_config's values replace the defaults of
    every command that has those flags."""
    parser = argparse.ArgumentParser(prog="corrnet",
                                     description="Predict correlations from correlate descriptions.")
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command")
    commands = []
    defaults = training.TrainConfig()

    def command(subparsers, name, func, summary):
        p = subparsers.add_parser(name, help=summary)
        p.set_defaults(func=func)
        commands.append(p)
        return p

    def common(p, embeddings=True):
        p.add_argument("--corpus", required=True)
        if embeddings:
            p.add_argument("--embeddings", required=True)
        p.add_argument("--seed", type=int, default=defaults.seed)
        p.add_argument("--train-fraction", type=float, dest="train_fraction", default=0.8)

    def train_flags(p):
        p.add_argument("--epochs", type=int, default=defaults.epochs)
        p.add_argument("--learning-rate", type=float, dest="learning_rate",
                       default=defaults.learning_rate)
        p.add_argument("--grad-clip", type=float, dest="grad_clip", default=defaults.grad_clip)
        p.add_argument("--batch-size", type=int, dest="batch_size", default=defaults.batch_size)
        p.add_argument("--patience", type=int, default=defaults.early_stop_patience)
        p.add_argument("--hidden-size", type=int, dest="hidden_size", default=defaults.hidden_size)
        p.add_argument("--head-width", type=int, dest="head_width", default=defaults.head_width)

    p = sub.add_parser("corpus", help="corpus utilities")
    csub = p.add_subparsers(dest="corpus_cmd", required=True)
    p = command(csub, "stats", cmd_corpus, "print corpus summary statistics")
    p.add_argument("file")
    p = command(csub, "gen", cmd_corpus, "generate a synthetic corpus")
    p.add_argument("--correlates", type=int, required=True)
    p.add_argument("--findings", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--embeddings")
    p.add_argument("--out", required=True)

    p = command(sub, "train", cmd_train, "train one model")
    common(p)
    train_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--log")

    p = command(sub, "eval", cmd_eval, "evaluate a checkpoint on the test split")
    common(p)
    p.add_argument("--checkpoint", required=True)

    p = command(sub, "baseline", cmd_baseline, "mean-value baseline on the test split")
    common(p, embeddings=False)
    p.add_argument("--mode", choices=["pool", "average"], default="pool")

    p = command(sub, "ensemble-train", cmd_ensemble_train, "train an ensemble of models")
    common(p)
    train_flags(p)
    p.add_argument("--members", type=int, default=50)
    p.add_argument("--no-bagging", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="ensemble checkpoint file")

    p = command(sub, "qbc", cmd_qbc, "query-by-committee search over untested pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--ensemble", required=True, help="ensemble checkpoint file")
    p.add_argument("--candidates", type=int, default=5000)
    p.add_argument("--top", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--scatter")

    p = command(sub, "infill", cmd_infill, "build and export an infilled correlation table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--checkpoint", required=True, help="model or ensemble checkpoint file")
    p.add_argument("--papers", required=True, help="comma-separated paper ids")
    p.add_argument("--out", required=True, help="output file prefix")

    command(sub, "selftest", cmd_selftest, "run gradient checks and statistic oracles")
    for p in commands:  # last: add_argument's default= overrides an earlier set_defaults
        p.set_defaults(**(file_config or {}))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        config_path = args.config or os.environ.get("CORRNET_CONFIG")
        if config_path:
            args = build_parser(load_config_file(config_path)).parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
