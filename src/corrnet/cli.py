"""Command-line entry point: every workflow as a subcommand.

Configuration precedence: built-in defaults < config file (flat key = value
lines, located via --config or the CORRNET_CONFIG environment variable)
< command-line flags.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import baseline as baseline_mod
from . import corpus as corpus_mod
from . import ensemble as ensemble_mod
from . import infill as infill_mod
from . import neural, training
from .embeddings import load_embeddings, random_table

DEFAULTS = {
    "train_fraction": 0.8,
    "seed": 0,
    "epochs": 100,
    "learning_rate": 1e-3,
    "grad_clip": 5.0,
    "batch_size": 32,
    "patience": 10,
    "hidden_size": 64,
    "head_width": 32,
    "members": 50,
    "candidates": 5000,
    "top": 0.01,
    "noise": 0.05,
    "jobs": 1,
}


def load_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
    return values


def resolve(args, key, cast=float):
    """defaults < config file < flags."""
    flag_val = getattr(args, key.replace("-", "_"), None)
    if flag_val is not None:
        return flag_val
    if key in args._file_config:
        return cast(args._file_config[key])
    return DEFAULTS[key]


def _train_config(args) -> training.TrainConfig:
    return training.TrainConfig(
        epochs=int(resolve(args, "epochs", int)),
        learning_rate=float(resolve(args, "learning_rate", float)),
        grad_clip=float(resolve(args, "grad_clip", float)),
        batch_size=int(resolve(args, "batch_size", int)),
        early_stop_patience=int(resolve(args, "patience", int)),
        seed=int(resolve(args, "seed", int)),
        hidden_size=int(resolve(args, "hidden_size", int)),
        head_width=int(resolve(args, "head_width", int)),
    )


def _load_split(args):
    corpus = corpus_mod.load_corpus(args.corpus)
    split = corpus_mod.split_corpus(corpus, float(resolve(args, "train_fraction", float)),
                                    int(resolve(args, "seed", int)))
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
    seed = int(resolve(args, "seed", int))
    if args.embeddings:
        vocab = load_embeddings(args.embeddings)
    else:
        vocab = random_table(100, 16, seed)
    corpus, _ = corpus_mod.generate_synthetic(
        args.correlates, args.findings, vocab,
        noise_sd=float(resolve(args, "noise", float)), seed=seed)
    corpus_mod.save_corpus(corpus, args.out)
    print(f"wrote {corpus.n_findings} findings over {corpus.n_correlates} correlates to {args.out}")
    return 0


def cmd_train(args) -> int:
    corpus, split = _load_split(args)
    table = load_embeddings(args.embeddings)
    params, report = training.train(corpus, split, table, _train_config(args))
    neural.save_checkpoint(params, args.out)
    if args.log:
        _write_report_log(report, args.log)
    result = training.evaluate(params, corpus, split.test_indices, table)
    print("test_pearson_r\t%.6f" % result["pearson_r"])
    return 0


def cmd_eval(args) -> int:
    corpus, split = _load_split(args)
    table = load_embeddings(args.embeddings)
    params = _load_model(args.checkpoint, table, neural.ModelParams)
    result = training.evaluate(params, corpus, split.test_indices, table)
    print("test_pearson_r\t%.6f" % result["pearson_r"])
    return 0


def cmd_baseline(args) -> int:
    corpus, split = _load_split(args)
    model = baseline_mod.fit_baseline(corpus, split.train_indices, mode=args.mode)
    preds, actual = [], []
    for i in split.test_indices:
        f = corpus.findings[i]
        preds.append(baseline_mod.baseline_predict(model, f.correlate_a, f.correlate_b))
        actual.append(f.r)
    from .stats import pearson
    print("test_pearson_r\t%.6f" % pearson(actual, preds))
    return 0


def _save_ensemble(ens: ensemble_mod.Ensemble, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for k, params in enumerate(ens.members):
        neural.save_checkpoint(params, os.path.join(dirpath, "member_%03d.npz" % k))
    with open(os.path.join(dirpath, "manifest.tsv"), "w", encoding="utf-8") as fh:
        fh.write("member\tseed\tbagging\n")
        for k, seed in enumerate(ens.member_seeds):
            fh.write("%d\t%d\t%d\n" % (k, seed, int(ens.bagging)))


def _load_ensemble(dirpath) -> ensemble_mod.Ensemble:
    manifest = os.path.join(dirpath, "manifest.tsv")
    if not os.path.isfile(manifest):
        raise ValueError(f"{manifest}: ensemble manifest is missing")
    with open(manifest, encoding="utf-8") as fh:
        rows = [r.split("\t") for r in fh.read().splitlines()[1:]]
    paths = sorted(os.path.join(dirpath, p) for p in os.listdir(dirpath) if p.endswith(".npz"))
    if len(rows) != len(paths):
        raise ValueError(f"{manifest}: {len(rows)} rows for {len(paths)} member checkpoints")
    try:
        seeds = [int(r[1]) for r in rows]
        bagging = bool(int(rows[0][2]))
    except (IndexError, ValueError):
        raise ValueError(f"{manifest}: expected rows of member, seed, bagging") from None
    members = [neural.load_checkpoint(p) for p in paths]
    dims = [(p.d, p.h, p.m) for p in members]
    for path, member_dims in zip(paths, dims):
        if member_dims != dims[0]:
            raise ValueError(f"{path}: dims {member_dims} differ from {paths[0]}'s {dims[0]}")
    return ensemble_mod.Ensemble(members, seeds, bagging)


def _load_model(path, table, kind=(neural.ModelParams, ensemble_mod.Ensemble)):
    """A model file or an ensemble directory, of the type the command needs,
    whose input dimension is the vector file's."""
    model = _load_ensemble(path) if os.path.isdir(path) else neural.load_checkpoint(path)
    if not isinstance(model, kind):
        raise ValueError(f"{path}: this command needs "
                         + ("an ensemble directory" if kind is ensemble_mod.Ensemble
                            else "a single model file"))
    d = (model.members[0] if isinstance(model, ensemble_mod.Ensemble) else model).d
    if d != table.dim:
        raise ValueError(f"{path}: model takes {d}-dim vectors, the vector file has {table.dim}")
    return model


def cmd_ensemble_train(args) -> int:
    corpus, split = _load_split(args)
    table = load_embeddings(args.embeddings)
    n = int(resolve(args, "members", int))
    ens = ensemble_mod.train_ensemble(corpus, split, table, _train_config(args), n,
                                      bagging=not args.no_bagging,
                                      jobs=int(resolve(args, "jobs", int)))
    _save_ensemble(ens, args.out)
    print(f"wrote {n} member checkpoints to {args.out}")
    return 0


def cmd_qbc(args) -> int:
    corpus = corpus_mod.load_corpus(args.corpus)
    table = load_embeddings(args.embeddings)
    ens = _load_model(args.ensemble, table, ensemble_mod.Ensemble)
    seed = int(resolve(args, "seed", int))
    estimates = ensemble_mod.qbc_search(
        ens, corpus, table, int(resolve(args, "candidates", int)), seed,
        float(resolve(args, "top", float)))
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
    trend = ensemble_mod.disagreement_trend(estimates)
    print("trend_pearson_r\t%.6f" % trend["pearson_r"])
    print("mwu_u\t%.1f" % trend["mwu"].u_statistic)
    print("mwu_p\t%.3g" % trend["mwu"].p_value)
    return 0


def cmd_infill(args) -> int:
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

    p_ok = abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12
    ok &= p_ok
    print("pearson_oracle\t%s" % ("PASS" if p_ok else "FAIL"))

    u_ok = mann_whitney_u([1, 2], [3, 4]).u_statistic == 0.0
    ok &= u_ok
    print("mwu_oracle\t%s" % ("PASS" if u_ok else "FAIL"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="corrnet",
                                     description="Predict correlations from correlate descriptions.")
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command")

    def common(p, embeddings=True):
        p.add_argument("--corpus", required=True)
        if embeddings:
            p.add_argument("--embeddings", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--train-fraction", type=float, dest="train_fraction")

    def train_flags(p):
        p.add_argument("--epochs", type=int)
        p.add_argument("--learning-rate", type=float, dest="learning_rate")
        p.add_argument("--grad-clip", type=float, dest="grad_clip")
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--patience", type=int)
        p.add_argument("--hidden-size", type=int, dest="hidden_size")
        p.add_argument("--head-width", type=int, dest="head_width")

    p = sub.add_parser("corpus", help="corpus utilities")
    csub = p.add_subparsers(dest="corpus_cmd", required=True)
    ps = csub.add_parser("stats", help="print corpus summary statistics")
    ps.add_argument("file")
    pg = csub.add_parser("gen", help="generate a synthetic corpus")
    pg.add_argument("--correlates", type=int, required=True)
    pg.add_argument("--findings", type=int, required=True)
    pg.add_argument("--seed", type=int)
    pg.add_argument("--noise", type=float)
    pg.add_argument("--embeddings")
    pg.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("train", help="train one model")
    common(p)
    train_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="mean-value baseline on the test split")
    common(p, embeddings=False)
    p.add_argument("--mode", choices=["pool", "average"], default="pool")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("ensemble-train", help="train an ensemble of models")
    common(p)
    train_flags(p)
    p.add_argument("--members", type=int)
    p.add_argument("--no-bagging", action="store_true")
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble_train)

    p = sub.add_parser("qbc", help="query-by-committee search over untested pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--ensemble", required=True, help="ensemble checkpoint directory")
    p.add_argument("--candidates", type=int)
    p.add_argument("--top", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--scatter")
    p.set_defaults(func=cmd_qbc)

    p = sub.add_parser("infill", help="build and export an infilled correlation table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--checkpoint", required=True, help="model file or ensemble directory")
    p.add_argument("--papers", required=True, help="comma-separated paper ids")
    p.add_argument("--out", required=True, help="output file prefix")
    p.set_defaults(func=cmd_infill)

    p = sub.add_parser("selftest", help="run gradient checks and statistic oracles")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    config_path = args.config or os.environ.get("CORRNET_CONFIG")
    args._file_config = load_config_file(config_path) if config_path else {}
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
