"""Span recorder and the wrappers a traced run installs around corrnet.

A span has a name, a start, an end, a parent span and a run id (one run id
per set-up repetition or pipeline iteration). Spans live in flat arrays in
memory and are written once, at exit. Untraced runs record only the
benchmark's own stage spans; a traced run also wraps public functions at the
module attributes where their callers look them up, so no corrnet source
changes. Hooks on some wrappers count work computed from the call's inputs
(GRU steps, FLOPs, distinct correlates encoded per model); these counts depend only on
the inputs and must repeat exactly.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack: list[int] = []
        self.run_id = -1
        self.run_kinds: list[str] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        # (run id, stage) -> distinct (model, correlate) keys passed to the encoder
        self.encoded: dict[tuple[int, str], set] = defaultdict(set)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_run(self, kind: str) -> int:
        self.run_id = len(self.run_kinds)
        self.run_kinds.append(kind)
        return self.run_id

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def stage(self) -> str:
        """Name of the outermost span below the run's top-level span."""
        return self.names[self.name[self._stack[1]]] if len(self._stack) > 1 else ""

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, hook=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self.counts[self.run_id], *args, **kwargs)
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "run": np.frombuffer(self.run, dtype=np.int32)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), run_kinds=np.array(self.run_kinds),
                            **self.arrays())


# --- computed work counts --------------------------------------------------

def _dims(params):
    h, d = params.weights["w_z"].shape
    return d, h, params.weights["head_w1"].shape[0]


def forward_flops(params, steps: int) -> int:
    """Multiply-add FLOPs of the GRU matrix-vector products plus the head."""
    d, h, m = _dims(params)
    return steps * (6 * h * d + 6 * h * h) + 2 * m * 2 * h + 2 * m


def backward_flops(params, steps: int) -> int:
    """Outer-product and transposed matrix-vector FLOPs of the backward pass."""
    d, h, m = _dims(params)
    return steps * (6 * h * d + 6 * h * h + 6 * h * h) + 2 * (2 * m * 2 * h)


def _seq_key(seq) -> tuple:
    # Token vectors are the table's own arrays, so their ids name the tokens.
    return tuple(map(id, seq))


class Hooks:
    """Per-call hooks that count work from the arguments of a wrapped call."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder

    def predict(self, counts, seq_a, seq_b, params):
        steps = len(seq_a) + len(seq_b)
        counts["gru_steps"] += steps
        counts["flop"] += forward_flops(params, steps)
        stage = self.rec.stage()
        counts["encodes." + stage] += 2
        enc = self.rec.encoded[(self.rec.run_id, stage)]
        enc.add((id(params), _seq_key(seq_a)))
        enc.add((id(params), _seq_key(seq_b)))

    def backward(self, counts, trace, upstream, params):
        counts["flop"] += backward_flops(params, len(trace.steps_a) + len(trace.steps_b))

    def adam(self, counts, params, grads, state, config):
        counts["adam_steps"] += 1
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if norm > config.grad_clip:
            counts["clipped_steps"] += 1


@contextmanager
def installed(recorder: Recorder, mods: dict):
    """Wrap corrnet's public functions in place for the duration of the block."""
    hooks = Hooks(recorder)
    targets = [
        # (module, attribute, span name, hook)
        ("training", "predict_pair", "neural.predict_pair", hooks.predict),
        ("ensemble", "predict_pair", "neural.predict_pair", hooks.predict),
        ("infill", "predict_pair", "neural.predict_pair", hooks.predict),
        ("training", "backward", "neural.backward", hooks.backward),
        ("training", "adam_step", "training.adam_step", hooks.adam),
        ("training", "SequenceCache", "training.SequenceCache", None),
        ("ensemble", "SequenceCache", "training.SequenceCache", None),
        ("infill", "SequenceCache", "training.SequenceCache", None),
        ("training", "embed_sequence", "embeddings.embed_sequence", None),
        ("corpus", "normalize", "textnorm.normalize", None),
        ("ensemble", "sample_untested_pairs", "ensemble.sample_untested_pairs", None),
        ("ensemble", "ensemble_estimate", "ensemble.ensemble_estimate", None),
        ("infill", "ensemble_estimate", "ensemble.ensemble_estimate", None),
        ("training", "pearson", "stats.pearson", None),
        ("ensemble", "pearson", "stats.pearson", None),
        ("stats", "pearson", "stats.pearson", None),
        ("ensemble", "mann_whitney_u", "stats.mann_whitney_u", None),
        ("ensemble", "quartiles", "stats.quartiles", None),
        ("baseline", "baseline_predict", "baseline.baseline_predict", None),
    ]
    saved = []
    try:
        for mod_name, attr, span_name, hook in targets:
            mod = mods[mod_name]
            if hasattr(mod, attr):
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, recorder.wrap(getattr(mod, attr), span_name, hook))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# --- derived per-layer numbers ---------------------------------------------

class SpanTable:
    """Durations and self times of recorded spans, grouped by run id."""

    def __init__(self, recorder: Recorder):
        a = recorder.arrays()
        self.names = recorder.names
        self.name = a["name"]
        self.run = a["run"]
        self.dur = a["end"] - a["start"]
        child = np.zeros_like(self.dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def _mask(self, name: str, runs) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return (self.name == self.names.index(name)) & np.isin(self.run, list(runs))

    def durations(self, name: str, runs) -> np.ndarray:
        return self.dur[self._mask(name, runs)]

    def per_run(self, name: str, runs, self_only=False) -> list[float]:
        """Total (or self) seconds of a span name in each listed run."""
        values = self.self_time if self_only else self.dur
        return [float(values[self._mask(name, [r])].sum()) for r in runs]

    def count(self, name: str, run: int) -> int:
        return int(self._mask(name, [run]).sum())


def high_percentile(samples: np.ndarray, q: float) -> float | None:
    """The q-quantile, only when at least ten samples lie beyond it."""
    if len(samples) * (1.0 - q) < 10:
        return None
    return float(np.quantile(samples, q))
