"""Workload definitions and the seeded input generator.

Run as a script, this writes one workload's inputs for one seed into a
directory: the findings TSV, the word-vector file, and the committee
checkpoints (trained with ``train_ensemble``, bagging on, one job, then
written with ``save_checkpoint``). ``run.py`` starts it in a child process
so that its memory never counts towards the measured peak RSS, and reuses
the directory for later runs with the same seed.

    python3 perfbench/gen.py --workload dense-d8 --seed 1 --out DIR --src src
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

# Every workload runs every pipeline stage, so every end-to-end metric exists
# on every workload; the stages a workload is about are sized up, the others
# are kept small. One pipeline iteration of the seed code takes two to three
# seconds on a 2-core machine, so a run holds five or more iterations whose
# samples are spread over the whole run, and reports medians.
#   train_subset:     training findings of the timed training in each iteration
#   quality_test:     test findings scored by the untimed quality training
#                     (None: the whole test split)
#   committee_subset: training findings each committee member is bagged from
#   qbc:              candidates ranked per qbc_search call and the flagged fraction
#   infill_papers:    papers infilled per iteration, one table each; a single
#                     ~36-correlate table makes the cost per cell depend on the seed
#   baseline_reps:    fit + predict repetitions per iteration, so a small
#                     baseline takes measurable time
#   setup_reps:       set-up repetitions per run, spread evenly between the
#                     iterations; setup_s is their median
WORKLOADS = {
    # Acceptance-05-shaped corpus over a 50-token, 8-dim vocabulary. Each
    # correlate appears in ~20 findings, and each training, QBC and infill call
    # encodes the same correlates again and again.
    "dense-d8": {
        "vectors": {"rows": 50, "dim": 8, "corpus_tokens": None},
        "corpus": {"correlates": 200, "findings": 2000},
        "train_subset": 400,
        "quality_test": None,
        "committee_subset": 400,
        "qbc": {"candidates": 200, "top": 0.01},
        "infill_papers": 3,
        "baseline_reps": 50,
        "setup_reps": 15,
    },
    # A 25,000-row, 300-dim vector file (Numberbatch-shaped: unit-length rows
    # with low-rank structure) of which the corpus uses 50 rows. Set-up is
    # dominated by parsing unused rows; the encoder's 64x300 input
    # projections make BLAS and thread policy matter.
    "wide-d300": {
        "vectors": {"rows": 25000, "dim": 300, "corpus_tokens": 50},
        "corpus": {"correlates": 200, "findings": 2000},
        "train_subset": 100,
        "quality_test": None,
        "committee_subset": 200,
        "qbc": {"candidates": 100, "top": 0.05},
        "infill_papers": 3,
        "baseline_reps": 50,
        "setup_reps": 5,
    },
    # The paper's corpus size over the 8-dim vocabulary. Loading, splitting
    # and the baseline do real work; QBC candidates almost never share a
    # correlate, and every SequenceCache covers 21,736 correlates.
    "paper-scale": {
        "vectors": {"rows": 50, "dim": 8, "corpus_tokens": None},
        "corpus": {"correlates": 21736, "findings": 149374},
        "train_subset": 200,
        "quality_test": 2000,
        "committee_subset": 400,
        "qbc": {"candidates": 100, "top": 0.01},
        "infill_papers": 2,
        "baseline_reps": 1,
        "setup_reps": 3,
    },
}

HIDDEN_SIZE = 64
HEAD_WIDTH = 32
TRAIN_FRACTION = 0.8
NOISE_SD = 0.05
LEARNING_RATE = 1e-2
TRAIN_EPOCHS = 1       # epochs of the timed training
QUALITY_EPOCHS = 3     # epochs of the untimed training that gives train.test_r
QUALITY_SUBSET = 800   # its training findings
EVAL_SUBSET = 100      # test findings scored by the timed evaluate
COMMITTEE_MEMBERS = 5
COMMITTEE_EPOCHS = 1

CORPUS_FILE = "findings.tsv"
VECTORS_FILE = "vectors.txt"
MEMBERS_FILE = "members.json"


def member_file(k: int) -> str:
    return "member_%03d.npz" % k


def train_config(training, epochs: int, seed: int):
    """The TrainConfig the benchmark trains with: fixed epochs, no early stop."""
    return training.TrainConfig(
        epochs=epochs, learning_rate=LEARNING_RATE, val_fraction=0.0, seed=seed,
        hidden_size=HIDDEN_SIZE, head_width=HEAD_WIDTH)


def _write_vectors(path: Path, tokens: list[str], matrix: np.ndarray, fmt: str) -> None:
    row_fmt = "%s " + " ".join([fmt] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % matrix.shape)
        for tok, row in zip(tokens, matrix):
            fh.write(row_fmt % (tok, *row))


def _vectors(spec: dict, seed: int, embeddings):
    """Write the vector file; return the table the corpus draws tokens from."""
    rows, dim = spec["rows"], spec["dim"]
    rng = np.random.default_rng((seed, 1))
    tokens = ["w%05d" % i for i in range(rows)]
    if spec["corpus_tokens"] is None:
        matrix = rng.standard_normal((rows, dim))
        used = range(rows)
        fmt = "%.17g"
    else:
        basis = rng.standard_normal((8, dim))
        matrix = rng.standard_normal((rows, 8)) @ basis + 0.05 * rng.standard_normal((rows, dim))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        used = sorted(rng.choice(rows, spec["corpus_tokens"], replace=False).tolist())
        fmt = "%.4f"
    return tokens, matrix, fmt, embeddings.make_table({tokens[i]: matrix[i] for i in used})


def generate(workload: str, seed: int, out: Path) -> None:
    from corrnet import corpus, embeddings, ensemble, neural, training

    spec = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    tokens, matrix, fmt, vocab = _vectors(spec["vectors"], seed, embeddings)
    _write_vectors(out / VECTORS_FILE, tokens, matrix, fmt)
    synth, _ = corpus.generate_synthetic(
        spec["corpus"]["correlates"], spec["corpus"]["findings"], vocab,
        noise_sd=NOISE_SD, seed=seed)
    corpus.save_corpus(synth, out / CORPUS_FILE)

    split = corpus.split_corpus(synth, TRAIN_FRACTION, seed)
    member_split = corpus.Split(split.train_indices[:spec["committee_subset"]],
                                split.test_indices, seed)
    ens = ensemble.train_ensemble(synth, member_split, vocab,
                                  train_config(training, COMMITTEE_EPOCHS, seed),
                                  COMMITTEE_MEMBERS, bagging=True, jobs=1)
    for k, params in enumerate(ens.members):
        neural.save_checkpoint(params, out / member_file(k))
    (out / MEMBERS_FILE).write_text(json.dumps({"seeds": ens.member_seeds}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--src", required=True, type=Path, help="directory holding the corrnet package")
    args = ap.parse_args()
    sys.path.insert(0, os.fspath(args.src))
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
