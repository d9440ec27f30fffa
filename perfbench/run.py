"""corrnet benchmark: one closed-loop caller drives the pipeline end to end.

    python3 perfbench/run.py --workload dense-d8 --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ./src. Inputs are
generated from the seed (untimed, in a child process) into .bench_cache/ and
reused by later runs with the same seed. The run repeats the pipeline
train -> evaluate -> qbc_search -> disagreement_trend -> build_table +
export_table -> fit_baseline + baseline_predict until --seconds of pipeline
time have passed, each operation starting when the previous one returns.
Between iterations, spread evenly over the run, it sets up several times
(load corpus, vectors, split, committee checkpoints); set-up time does not
count towards --seconds. Outputs are checked against a reference forward
pass and brute-force recomputations.

--trace 0 reports the end-to-end metrics: throughputs are medians over
iterations, setup_s is the median over set-up repetitions, each time scaled
to a reference host speed by the HostProbe timed next to it, and
train.test_r comes from one longer fixed-epoch training after the loop.
--trace 1 runs one warm-up iteration, then untraced for half the time and
with every layer wrapped for the other half, and reports per-layer metrics
(unscaled, except the iteration times behind the tracing overhead). Per-metric lines go to stderr; the
last line of stdout is the result object and the line before it records the
environment. Spans are written to .bench_cache/spans/ at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import checks
import tracing
from gen import (CORPUS_FILE, EVAL_SUBSET, MEMBERS_FILE, QUALITY_EPOCHS,
                 QUALITY_SUBSET, TRAIN_EPOCHS, TRAIN_FRACTION, VECTORS_FILE, WORKLOADS,
                 member_file, train_config)

HERE = Path(__file__).resolve().parent
CACHE_DIR = ".bench_cache"
KEEP_SEEDS = 10  # generated input sets kept per workload

# Top-level pipeline stages, in order; encoder calls are attributed to them.
STAGES = ("training.train", "training.evaluate", "ensemble.qbc_search", "infill.build_table")
# Per-layer counts computed from the inputs; they must repeat exactly.
COMPUTED_COUNTS = ("neural.gru_steps", "neural.gflop", "neural.encodes_per_correlate",
                   "neural.encodes_per_correlate.train", "neural.encodes_per_correlate.qbc",
                   "neural.encodes_per_correlate.infill", "embeddings.rows_used_ratio")
OVERHEAD_OF = ("setup_s", "train.findings_per_s", "qbc.pairs_per_s", "infill.cells_per_s",
               "baseline.findings_per_s")


class HostProbe:
    """A fixed piece of benchmark-owned work, timed next to every timed stage.

    On a shared host the speed of one core drifts by tens of percent within a
    minute, which no number of samples inside one run averages away. The
    end-to-end figures therefore scale each stage's time by REFERENCE_S /
    (median time of the five probes run between the stages of its
    iteration), and each set-up's time by REFERENCE_S / (mean of the probes
    just before and after it): they read as if the host ran at the speed at
    which one probe takes REFERENCE_S. One probe alone varies by about ten
    percent, hence the median over the iteration. The probe mixes small numpy products (a d=8 GRU forward, far
    below any BLAS threading threshold), plain Python arithmetic and dict
    inserts, like corrnet's per-pair work, and calls no corrnet code, so a
    change to corrnet cannot change it. Unscaled figures go to stderr.
    """

    REFERENCE_S = 0.005

    def __init__(self):
        rng = np.random.default_rng(0)
        h, d, m = 64, 8, 32
        shapes = {"w_z": (h, d), "u_z": (h, h), "b_z": (h,), "w_r": (h, d), "u_r": (h, h),
                  "b_r": (h,), "w_c": (h, d), "u_c": (h, h), "b_c": (h,),
                  "head_w1": (m, 2 * h), "head_b1": (m,), "head_w2": (1, m), "head_b2": (1,)}
        self.weights = {k: 0.1 * rng.standard_normal(s) for k, s in shapes.items()}
        self.seqs = [list(rng.standard_normal((6, d))) for _ in range(8)]

    def __call__(self) -> float:
        started = perf_counter()
        for i in range(len(self.seqs)):
            checks.reference_predict(self.seqs[i], self.seqs[i - 1], self.weights)
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        table = {}
        for i in range(4000):
            table[str(i)] = acc + i
        return perf_counter() - started


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_corrnet(root: Path) -> dict:
    src = (root / "src").resolve()
    if not (src / "corrnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no corrnet package under {root / 'src'}; run from the repository root")
    sys.path.insert(0, os.fspath(src))
    import corrnet
    if Path(corrnet.__file__).resolve().parent != src / "corrnet":
        sys.exit(f"perfbench: imported corrnet from {corrnet.__file__}, not from {src}")
    from corrnet import baseline, corpus, embeddings, ensemble, infill, neural, stats, training
    return {"baseline": baseline, "corpus": corpus, "embeddings": embeddings,
            "ensemble": ensemble, "infill": infill, "neural": neural, "stats": stats,
            "training": training}


def ensure_inputs(root: Path, workload: str, seed: int) -> Path:
    """Generate the seed's inputs once; evict older input sets of the workload.

    The directory is keyed by the workload, the generator and the corrnet
    source, which trains the committee: inputs made by other code are never
    reused, and computed counts are compared only between runs of this code.
    """
    h = hashlib.sha1(json.dumps(WORKLOADS[workload], sort_keys=True).encode())
    h.update((HERE / "gen.py").read_bytes())
    src = root / "src" / "corrnet"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    cache = root / CACHE_DIR / workload
    final = cache / f"seed{seed}-{h.hexdigest()[:12]}"
    if not (final / MEMBERS_FILE).is_file():
        tmp = final.with_name(final.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run([sys.executable, os.fspath(HERE / "gen.py"), "--workload", workload,
                        "--seed", str(seed), "--out", os.fspath(tmp),
                        "--src", os.fspath(root / "src")], check=True, timeout=800)
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
    os.utime(final)
    older = sorted((d for d in cache.iterdir() if d != final), key=lambda d: d.stat().st_mtime)
    for d in older[:max(0, len(older) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(d, ignore_errors=True)
    return final


@dataclass
class State:
    corpus: object
    table: object
    split: object
    ensemble: object


class Bench:
    def __init__(self, mods: dict, workload: str, seed: int, data: Path, rec: tracing.Recorder):
        self.m = mods
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.data = data
        self.rec = rec
        self.member_seeds = json.loads((data / MEMBERS_FILE).read_text())["seeds"]
        self.out_dir = data / "out"
        self.out_dir.mkdir(exist_ok=True)
        self.st: State | None = None
        self.train_idx: list[int] | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.iterations: list[dict] = []
        self.digest: str | None = None
        self.probe = HostProbe()
        self.setup_probe: dict[int, float] = {}  # set-up run id -> probe seconds around it

    # --- set-up ------------------------------------------------------------

    def set_up(self, kind: str) -> None:
        m, rec = self.m, self.rec
        self.st = None  # let the previous set-up's objects go first
        gc.collect()  # see iterate()
        run = rec.new_run(kind)
        before = self.probe()
        with rec.span("setup"):
            with rec.span("corpus.load_corpus"):
                corpus = m["corpus"].load_corpus(self.data / CORPUS_FILE)
            with rec.span("embeddings.load_embeddings"):
                table = m["embeddings"].load_embeddings(self.data / VECTORS_FILE)
            with rec.span("corpus.split_corpus"):
                split = m["corpus"].split_corpus(corpus, TRAIN_FRACTION, self.seed)
            with rec.span("ensemble.load_checkpoints"):
                members = [m["neural"].load_checkpoint(self.data / member_file(k))
                           for k in range(len(self.member_seeds))]
            ens = m["ensemble"].Ensemble(members, list(self.member_seeds), True)
        self.setup_probe[run] = (before + self.probe()) / 2
        self.attempted += 4
        self.st = State(corpus, table, split, ens)
        if self.train_idx is None:
            self.prepare()

    def prepare(self) -> None:
        """Fixed per-run selections, derived from the first set-up (untimed)."""
        st, spec = self.st, self.spec
        self.train_idx = list(st.split.train_indices[:spec["train_subset"]])
        self.eval_idx = list(st.split.test_indices[:EVAL_SUBSET])
        first_seen = dict.fromkeys(f.paper_id for f in st.corpus.findings)
        self.papers = list(first_seen)[:spec["infill_papers"]]
        tests = [st.corpus.findings[i] for i in st.split.test_indices]
        self.test_pairs = [(f.correlate_a, f.correlate_b) for f in tests]
        self.test_r = [f.r for f in tests]
        self.cfg = train_config(self.m["training"], TRAIN_EPOCHS, self.seed)
        used = {t for c in st.corpus.correlates.values() for t in c.tokens}
        self.rows_parsed = len(st.table.vectors)
        self.rows_used = len(used & st.table.vectors.keys())

    # --- the closed loop ----------------------------------------------------

    def run_phase(self, kind: str, seconds: float, reps: int, setups: list[int]) -> None:
        """Iterate for `seconds` of pipeline time with `reps` set-ups spread
        evenly through it, so that every stage and the set-up are sampled
        across the whole run rather than in one stretch of it."""
        busy = 0.0
        while True:  # at least one iteration; none that would end past the stop
            while len(setups) < reps and busy >= len(setups) * seconds / reps:
                self.set_up(f"setup-{kind}")
                setups.append(self.rec.run_id)
            started = perf_counter()
            self.iterate(kind)
            took = perf_counter() - started
            busy += took
            if busy + took >= seconds:
                break
        while len(setups) < reps:
            self.set_up(f"setup-{kind}")
            setups.append(self.rec.run_id)

    # --- one pipeline iteration ---------------------------------------------

    def iterate(self, kind: str) -> None:
        m, st, spec, rec = self.m, self.st, self.spec, self.rec
        run = rec.new_run(kind)
        probes = []
        # Start every iteration with no collection pending, so the cyclic
        # collector runs at the same points of each iteration: otherwise a full
        # collection of a large heap (paper-scale) lands in whichever stage
        # happens to cross the threshold, differently in every run.
        gc.collect()
        with rec.span("iteration"):
            probes.append(self.probe())
            with rec.span("training.train"):
                params, report = m["training"].train(st.corpus, st.split, st.table, self.cfg,
                                                     train_indices=self.train_idx)
            probes.append(self.probe())
            with rec.span("training.evaluate"):
                ev = m["training"].evaluate(params, st.corpus, self.eval_idx, st.table)
            with rec.span("ensemble.qbc_search"):
                estimates = m["ensemble"].qbc_search(st.ensemble, st.corpus, st.table,
                                                     spec["qbc"]["candidates"], self.seed,
                                                     spec["qbc"]["top"])
            probes.append(self.probe())
            with rec.span("ensemble.disagreement_trend"):
                trend = m["ensemble"].disagreement_trend(estimates)
            tables = []  # (table, exported paths), one per infilled paper
            for k, paper in enumerate(self.papers):
                with rec.span("infill.build_table"):
                    ct = m["infill"].build_table(st.corpus, [paper], params, st.table)
                with rec.span("infill.export_table"):
                    tables.append((ct, m["infill"].export_table(ct, self.out_dir / f"table{k}")))
            probes.append(self.probe())
            for _ in range(spec["baseline_reps"]):
                with rec.span("baseline.fit_baseline"):
                    bmodel = m["baseline"].fit_baseline(st.corpus, st.split.train_indices)
                with rec.span("baseline.predict"):
                    preds = [m["baseline"].baseline_predict(bmodel, a, b)
                             for a, b in self.test_pairs]
            probes.append(self.probe())
            base_r = m["stats"].pearson(self.test_r, preds)
        self.attempted += 4 + 2 * len(tables) + 2 * spec["baseline_reps"]
        kinds = np.concatenate([ct.kinds[np.triu_indices(len(ct.correlate_order), 1)]
                                for ct, _ in tables])
        self.iterations.append({
            "run": run, "kind": kind,
            "train_findings": len(self.train_idx) * len(report.train_losses),
            "epochs_run": len(report.train_losses),
            "candidates": len(estimates),
            "cells": len(kinds),
            "cells_predicted": int(np.sum(kinds == "P")),
            "cells_reported": int(np.sum(kinds == "R")),
            "export_bytes": sum(os.path.getsize(p) for _, paths in tables for p in paths),
            "baseline_findings": spec["baseline_reps"] * (len(st.split.train_indices) + len(preds)),
            "probe": median(probes),
        })
        self._check_outputs(params, ev, estimates, trend, tables, preds, base_r)

    def _check_outputs(self, params, ev, estimates, trend, tables, preds, base_r):
        """Full checks on the first iteration; later ones must repeat its outputs."""
        parts = [params.weights[k] for k in sorted(params.weights)]
        parts += [np.array([ev["pearson_r"], trend["pearson_r"], trend["mwu"].p_value, base_r]),
                  np.array([[e.pair[0], e.pair[1], e.mean, e.disagreement, e.flagged]
                            for e in estimates], dtype=np.float64),
                  *(ct.values for ct, _ in tables), np.array(preds)]
        digest = hashlib.sha1(b"".join(np.ascontiguousarray(p).tobytes() for p in parts)).hexdigest()
        if self.digest is not None:
            self._record("outputs repeat", [] if digest == self.digest else
                         ["outputs differ from the first iteration"])
            return
        self.digest = digest
        # The checks embed only the correlates they sample and recompute the
        # baseline only for the sampled pairs, so their memory stays small
        # next to the program's in the measured peak RSS.
        m, st, spec = self.m, self.st, self.spec

        @functools.lru_cache(maxsize=None)
        def seq(cid):
            return m["embeddings"].embed_sequence(st.corpus.correlates[cid].tokens, st.table)

        members = st.ensemble.members

        def swapped(a, b):
            return m["ensemble"].ensemble_estimate(st.ensemble, seq(b), seq(a), (b, a))

        def reference(a, b):
            return checks.reference_predict(seq(a), seq(b), params.weights)

        self._record("weights", checks.finite_weights(params))
        self._record("evaluate", checks.in_range([p[1] for p in ev["predictions"]],
                                                 "evaluate predictions"))
        self._record("qbc", checks.check_qbc(estimates, st.corpus, spec["qbc"]["candidates"],
                                             spec["qbc"]["top"], seq, members, swapped))
        self._record("trend", checks.check_trend(trend))
        for ct, paths in tables:
            self._record("infill", checks.check_table(ct, st.corpus, reference, paths))
        self._record("baseline", checks.check_baseline(st.corpus, st.split.train_indices,
                                                       self.test_pairs, preds))

    def quality(self) -> float:
        """Test-split r of one longer fixed-epoch training (untimed)."""
        st, spec = self.st, self.spec
        cfg = train_config(self.m["training"], QUALITY_EPOCHS, self.seed)
        idx = list(st.split.train_indices[:QUALITY_SUBSET])
        params, _ = self.m["training"].train(st.corpus, st.split, st.table, cfg, train_indices=idx)
        test = list(st.split.test_indices[:spec["quality_test"]])
        ev = self.m["training"].evaluate(params, st.corpus, test, st.table)
        self.attempted += 2
        self._record("quality weights", checks.finite_weights(params))
        return ev["pearson_r"]

    def _record(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failures.append(f"{what}: " + "; ".join(failures[:3]))

    # --- metrics --------------------------------------------------------------

    def e2e(self, spans: tracing.SpanTable, setup_runs, iters, scaled=True) -> dict:
        """Medians over set-ups and iterations; times scaled by the probes if `scaled`."""
        runs = [it["run"] for it in iters]

        def scale(probe_s):
            return HostProbe.REFERENCE_S / probe_s if scaled else 1.0

        def rate(work_key, *span_names):
            """Median over iterations of work done per second in the named spans."""
            secs = np.sum([spans.per_run(n, runs) for n in span_names], axis=0)
            return median(it[work_key] / (s * scale(it["probe"])) for it, s in zip(iters, secs))

        setup_s = spans.per_run("setup", setup_runs)
        return {
            "setup_s": median(s * scale(self.setup_probe[r]) for r, s in zip(setup_runs, setup_s)),
            "train.findings_per_s": rate("train_findings", "training.train"),
            "qbc.pairs_per_s": rate("candidates", "ensemble.qbc_search"),
            "infill.cells_per_s": rate("cells", "infill.build_table", "infill.export_table"),
            "baseline.findings_per_s": rate("baseline_findings", "baseline.fit_baseline",
                                            "baseline.predict"),
        }

    def per_layer(self, spans: tracing.SpanTable, setups: list[int], iters: list[dict],
                  base: dict, traced: dict, base_iter_s: float, traced_iter_s: float) -> dict:
        rec = self.rec
        runs = [it["run"] for it in iters]

        def med(name, self_only=False, runs=runs):
            return median(spans.per_run(name, runs, self_only))

        def count(name, runs=runs):
            return median(spans.count(name, r) for r in runs)

        def counter(key):
            return median(rec.counts[r][key] for r in runs)

        predict_us = spans.durations("neural.predict_pair", runs) * 1e6
        neural_s = [a + b for a, b in zip(spans.per_run("neural.predict_pair", runs, True),
                                          spans.per_run("neural.backward", runs, True))]

        def encodes_per_correlate(*stages):
            ratios = []
            for r in runs:
                keys = set().union(*(rec.encoded[(r, s)] for s in stages))
                n = sum(rec.counts[r]["encodes." + s] for s in stages)
                ratios.append(n / len(keys) if keys else 0.0)
            return ratios

        computed = {
            "neural.gru_steps": [rec.counts[r]["gru_steps"] for r in runs],
            "neural.gflop": [rec.counts[r]["flop"] / 1e9 for r in runs],
            "neural.encodes_per_correlate": encodes_per_correlate(*STAGES),
            "neural.encodes_per_correlate.train": encodes_per_correlate(STAGES[0]),
            "neural.encodes_per_correlate.qbc": encodes_per_correlate(STAGES[2]),
            "neural.encodes_per_correlate.infill": encodes_per_correlate(STAGES[3]),
        }
        stats_names = ("stats.pearson", "stats.mann_whitney_u", "stats.quartiles")
        adam = counter("adam_steps")
        out = {
            "neural.predict_calls": count("neural.predict_pair"),
            "neural.predict_s": med("neural.predict_pair"),
            "neural.predict_p50_us": float(np.median(predict_us)) if len(predict_us) else 0.0,
            "neural.predict_p99_us": tracing.high_percentile(predict_us, 0.99),
            "neural.backward_calls": count("neural.backward"),
            "neural.backward_s": med("neural.backward"),
            **{k: median(v) for k, v in computed.items()},
            "neural.gflop_per_s": median(g / s for g, s in zip(computed["neural.gflop"], neural_s)
                                         if s > 0),
            "training.train_s": med("training.train"),
            "training.epochs_run": median(it["epochs_run"] for it in iters),
            "training.adam_calls": count("training.adam_step"),
            "training.adam_s": med("training.adam_step"),
            "training.clip_rate": counter("clipped_steps") / adam if adam else 0.0,
            "training.evaluate_s": med("training.evaluate"),
            "training.cache_builds": count("training.SequenceCache"),
            "training.cache_s": med("training.SequenceCache"),
            "embeddings.load_s": med("embeddings.load_embeddings", runs=setups),
            "embeddings.rows_parsed": self.rows_parsed,
            "embeddings.rows_used": self.rows_used,
            "embeddings.rows_used_ratio": self.rows_used / self.rows_parsed,
            "embeddings.embed_calls": count("embeddings.embed_sequence"),
            "embeddings.embed_s": med("embeddings.embed_sequence"),
            "corpus.load_s": med("corpus.load_corpus", True, runs=setups),
            "corpus.findings_loaded": self.st.corpus.n_findings,
            "corpus.split_s": med("corpus.split_corpus", runs=setups),
            "textnorm.normalize_calls": count("textnorm.normalize", runs=setups),
            "textnorm.normalize_s": med("textnorm.normalize", runs=setups),
            "ensemble.checkpoint_load_s": med("ensemble.load_checkpoints", runs=setups),
            "ensemble.sample_s": med("ensemble.sample_untested_pairs"),
            "ensemble.estimate_calls": count("ensemble.ensemble_estimate"),
            "ensemble.estimate_s": med("ensemble.ensemble_estimate"),
            "ensemble.qbc_self_s": med("ensemble.qbc_search", True),
            "ensemble.trend_s": med("ensemble.disagreement_trend"),
            "infill.build_s": med("infill.build_table"),
            "infill.cells_predicted": median(it["cells_predicted"] for it in iters),
            "infill.cells_reported": median(it["cells_reported"] for it in iters),
            "infill.export_s": med("infill.export_table"),
            "infill.export_bytes": median(it["export_bytes"] for it in iters),
            "baseline.fit_s": med("baseline.fit_baseline"),
            "baseline.predict_calls": count("baseline.baseline_predict"),
            "baseline.predict_s": med("baseline.baseline_predict"),
            "stats.calls": sum(count(n) for n in stats_names),
            "stats.pearson_s": med("stats.pearson"),
            "stats.mwu_s": med("stats.mann_whitney_u"),
            "trace.iteration_s_untraced": base_iter_s,
            "trace.iteration_s_traced": traced_iter_s,
            "trace.overhead_share": traced_iter_s / base_iter_s - 1.0,
        }
        for name in OVERHEAD_OF:
            out[f"trace.overhead.{name}"] = traced[name] - base[name]
        for key, values in computed.items():
            self._record(f"{key} repeats", [] if len(set(values)) == 1 else
                         [f"{key} varies between iterations: {sorted(set(values))}"])
        return out

    def check_counts_across_runs(self, layer: dict) -> None:
        """Computed counts must equal those of earlier traced runs of this seed."""
        mine = {k: layer[k] for k in COMPUTED_COUNTS}
        path = self.data / "computed_counts.json"
        if path.is_file():
            before = json.loads(path.read_text())
            self._record("computed counts repeat", [f"{k} was {before.get(k)}, now {v}"
                                                    for k, v in mine.items() if before.get(k) != v])
        else:
            path.write_text(json.dumps(mine))


def environment(root: Path) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy too old for mode="dicts"
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        **{v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")},
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description="corrnet end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    mods = import_corrnet(root)
    data = ensure_inputs(root, args.workload, args.seed)
    rec = tracing.Recorder()
    bench = Bench(mods, args.workload, args.seed, data, rec)
    reps = WORKLOADS[args.workload]["setup_reps"]
    phases = ["untraced", "traced"] if args.trace else ["untraced"]

    def tracing_if(phase):
        return tracing.installed(rec, mods) if phase == "traced" else contextlib.nullcontext()

    setups: dict[str, list[int]] = {p: [] for p in phases}
    try:
        if args.trace:  # compare the phases warm: the run's cold first iteration is in neither
            bench.set_up("warm-up")
            bench.iterate("warm-up")
        for phase in phases:
            with tracing_if(phase):
                bench.run_phase(phase, args.seconds / len(phases), reps, setups[phase])
    except Exception as exc:  # a failed operation is counted, not hidden
        traceback.print_exc()
        bench.attempted += 1
        bench.failures.append(f"{type(exc).__name__}: {exc}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spans = tracing.SpanTable(rec)
    by_phase = {p: [it for it in bench.iterations if it["kind"] == p] for p in phases}
    values: dict[str, float] = {}
    unscaled: dict[str, float] = {}
    if all(by_phase.values()) and all(setups.values()):
        base = bench.e2e(spans, setups["untraced"], by_phase["untraced"])
        unscaled = bench.e2e(spans, setups["untraced"], by_phase["untraced"], scaled=False)
        if args.trace:
            traced = bench.e2e(spans, setups["traced"], by_phase["traced"])
            iter_s = {p: median(s * HostProbe.REFERENCE_S / it["probe"] for it, s in
                                zip(by_phase[p], spans.per_run("iteration",
                                                               [it["run"] for it in by_phase[p]])))
                      for p in phases}
            layer = bench.per_layer(spans, setups["traced"], by_phase["traced"], base, traced,
                                    iter_s["untraced"], iter_s["traced"])
            bench.check_counts_across_runs(layer)
            values = {k: v for k, v in layer.items() if v is not None}
        else:
            values = dict(base, peak_rss_mb=peak_rss_mb)
            values["train.test_r"] = bench.quality()
    units = declared_metrics(args.trace)
    bench.attempted += 1
    if values.keys() != units.keys():
        bench.failures.append("metrics differ from BENCHMARK.json: "
                              f"missing {sorted(units.keys() - values.keys())}, "
                              f"undeclared {sorted(values.keys() - units.keys())}")
    spans_dir = root / CACHE_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    rec.save(spans_dir / f"{args.workload}-trace{args.trace}.npz")

    for msg in bench.failures:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name}\t{value:.6g}\t{units.get(name)}", file=sys.stderr)
    for name, value in unscaled.items():
        print(f"unscaled {name}\t{value:.6g}", file=sys.stderr)
    probes = [it["probe"] for it in bench.iterations]
    print(json.dumps({"environment": environment(root), "workload": args.workload,
                      "seed": args.seed, "iterations": len(bench.iterations),
                      "probe_ms": median(probes) * 1e3 if probes else None,
                      "error_rate": len(bench.failures) / max(1, bench.attempted)}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()
                    if k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
