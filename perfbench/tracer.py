"""Span tracing around the public functions of each gmsel layer, and the
arithmetic that turns the recorded spans into per-layer metrics.

A :class:`Tracer` wraps every public function of the layers in ``LAYERS``
(plus ``bench._run_trial``, the trial boundary) and rebinds
the wrapper under every name any loaded ``gmsel`` module gave the original,
so ``from .knn import pairwise_distances`` inside ``selection`` and ``theory``
is traced too.  Each call keeps one span (name, start, end, parent) in
memory; :meth:`Tracer.save` writes them when the traced command ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("data", "knn", "metrics", "selection", "ensemble", "theory", "bench", "cli")
EXTRA_FUNCTIONS = {"bench": ("_run_trial",)}

# Percentiles the trial-latency tail is reported at; see tail_percentile().
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

SEARCHES = ("selection.eus", "selection.pso_select", "selection.random_edit")
LOO = ("knn.loo_gm", "knn.loo_predict")
BOOSTERS = {"ensemble.rusboost": "selection.rus", "ensemble.eusboost": "selection.eus"}


def _n_rows(a) -> int:
    return 1 if np.ndim(a) < 2 else int(np.shape(a)[0])


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_distances(tracer, idx, args, kwargs, result):
    rows_a, rows_b = _n_rows(args[0]), _n_rows(args[1])
    d = int(np.shape(args[0])[-1])
    mask = _arg(args, kwargs, 2, "nominal_mask")
    n_nominal = 0 if mask is None else int(np.count_nonzero(mask))
    cells = rows_a * rows_b
    tracer.cells[idx] = cells
    # float64 inputs read and output written once, plus the bool
    # rows_a x rows_b x n_nominal mismatch temporary of the nominal branch
    tracer.counters["knn.pairwise_distances.bytes_computed"] += (
        8 * (rows_a * d + rows_b * d + cells) + cells * n_nominal)


def _count_rows(tracer, idx, args, kwargs, result):
    tracer.counters["data.parse_keel.rows"] += result.n_instances


def _count_members(name):
    def hook(tracer, idx, args, kwargs, result):
        tracer.counters[f"{name}.members"] += result.size
    return hook


def _count_subsets(tracer, idx, args, kwargs, result):
    labels = np.asarray(_arg(args, kwargs, 1, "labels"))
    n, n_pos = labels.size, int(np.sum(labels == 1))
    # subsets of size >= 2 minus those holding a single class
    tracer.counters["theory.exhaustive_search.subsets"] += sum(
        (2 ** m - 1 - m) * sign for m, sign in ((n, 1), (n_pos, -1), (n - n_pos, -1)))


HOOKS = {
    "knn.pairwise_distances": _count_distances,
    "data.parse_keel": _count_rows,
    "ensemble.rusboost": _count_members("ensemble.rusboost"),
    "ensemble.eusboost": _count_members("ensemble.eusboost"),
    "theory.exhaustive_search": _count_subsets,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cells = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name, fn):
        code = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        stack, clock, end = self._stack, time.perf_counter, self.end
        name_append, parent_append = self.name.append, self.parent.append
        cells_append, end_append = self.cells.append, end.append
        start_append = self.start.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name_append(code)
            parent_append(stack[-1])
            cells_append(0.0)
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers' functions for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gmsel.{layer}")
            names = [n for n in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, n, None))
                     and getattr(mod, n).__module__ == mod.__name__]
            for fname in (*names, *EXTRA_FUNCTIONS.get(layer, ())):
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        rebound = []
        for mod in [m for n, m in sys.modules.items()
                    if n == "gmsel" or n.startswith("gmsel.")]:
            for attr, val in list(vars(mod).items()):
                if callable(val) and id(val) in wrappers:
                    original, wrapper = wrappers[id(val)]
                    setattr(mod, attr, wrapper)
                    rebound.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in rebound:
                setattr(mod, attr, original)

    def save(self, path):
        keys = sorted(self.counters)
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 cells=np.frombuffer(self.cells),
                 counter_keys=np.array(keys, dtype=str),
                 counter_vals=np.array([float(self.counters[k]) for k in keys]))


class Spans:
    """Spans of one or more traced processes, as parallel arrays."""

    def __init__(self, names, parent, start, end, cells=None, counters=None):
        self.names = np.asarray(names, dtype=str)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.cells = np.zeros(len(self.start)) if cells is None else np.asarray(cells, float)
        self.counters = Counter(counters or {})
        self.duration = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)

    @classmethod
    def load(cls, paths):
        """Concatenate the span files written by :meth:`Tracer.save`."""
        if not paths:
            return cls([], [], [], [])
        names, parent, start, end, cells, counters = [], [], [], [], [], Counter()
        offset = 0
        for path in paths:
            with np.load(path, allow_pickle=False) as z:
                table = z["names"]
                names.append(table[z["name"]] if len(z["name"]) else np.array([], str))
                p = z["parent"].astype(np.int64)
                parent.append(np.where(p >= 0, p + offset, -1))
                start.append(z["start"])
                end.append(z["end"])
                cells.append(z["cells"])
                counters.update(dict(zip(z["counter_keys"].tolist(),
                                         z["counter_vals"].tolist())))
                offset += len(p)
        return cls(np.concatenate(names), np.concatenate(parent),
                   np.concatenate(start), np.concatenate(end),
                   np.concatenate(cells), counters)

    def named(self, name) -> np.ndarray:
        return self.names == name

    def parent_names(self) -> np.ndarray:
        out = np.full(len(self.names), "", dtype=self.names.dtype)
        has = self.parent >= 0
        out[has] = self.names[self.parent[has]]
        return out

    def under(self, ancestors) -> np.ndarray:
        """True for spans with an ancestor named in ``ancestors``.

        A parent is always recorded before its children, so one forward pass
        over the spans settles every chain.
        """
        hit = np.isin(self.names, list(ancestors))
        out = np.zeros(len(self.names), dtype=bool)
        parent = self.parent.tolist()
        for i, p in enumerate(parent):
            if p >= 0:
                out[i] = out[p] or hit[p]
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    child = np.zeros(len(duration))
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    return duration - child


def tail_percentile(values):
    """``(percentile, value)`` at the highest ``TAIL_LADDER`` percentile with
    at least ``TAIL_MIN_BEYOND`` samples above its nearest-rank position, or
    ``None`` when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(round(pct * n / 100.0, 9)))  # nearest rank
        if n - rank >= TAIL_MIN_BEYOND:
            best = (pct, ordered[rank - 1])
    return best


def boost_effort(spans: Spans, booster: str):
    """``(attempts, members, useful_ratio)`` of one boosting method.

    An attempt is one member build (a call of the member's selection function
    made directly by the booster), retries included; useful_ratio is accepted
    members over attempts.
    """
    attempts = int(np.sum(spans.named(BOOSTERS[booster])
                          & (spans.parent_names() == booster)))
    members = int(spans.counters.get(f"{booster}.members", 0))
    return attempts, members, (members / attempts if attempts else 0.0)


def _self_s(spans, *names) -> float:
    return float(np.sum(spans.self_time[np.isin(spans.names, names)]))


def _calls_self(out, spans, name):
    sel = spans.named(name)
    out[f"{name}.calls"] = int(np.sum(sel))
    out[f"{name}.self_s"] = float(np.sum(spans.self_time[sel]))
    return sel


def layer_metrics(spans: Spans) -> dict:
    """Per-layer metrics computed from the spans of one traced workload."""
    out = {}
    parents = spans.parent_names()

    dist = _calls_self(out, spans, "knn.pairwise_distances")
    out["knn.pairwise_distances.cells"] = float(np.sum(spans.cells[dist]))
    out["knn.pairwise_distances.bytes_computed"] = float(
        spans.counters.get("knn.pairwise_distances.bytes_computed", 0))
    for fn in ("loo_gm", "loo_predict", "classify_1nn"):
        _calls_self(out, spans, f"knn.{fn}")
    loo_gm = spans.named("knn.loo_gm")
    out["knn.loo_gm.p50_us"] = (float(np.median(spans.duration[loo_gm])) * 1e6
                                if loo_gm.any() else 0.0)

    for fn in ("rus", "tomek_links", "cnn_mod", "ncl", "eus", "pso_select",
               "random_edit"):
        sel = _calls_self(out, spans, f"selection.{fn}")
        if f"selection.{fn}" in SEARCHES:
            out[f"selection.{fn}.total_s"] = float(np.sum(spans.duration[sel]))
    # one fitness evaluation is an outermost LOO call inside a search
    evals = (np.isin(spans.names, LOO) & (parents != "knn.loo_gm")
             & spans.under(SEARCHES))
    out["selection.fitness_evals"] = int(np.sum(evals))
    out["selection.cnn_mod.classify_calls"] = int(np.sum(
        spans.named("knn.classify_1nn") & (parents == "selection.cnn_mod")))

    for fn in ("bag_1nn", "erus", "rusboost", "eusboost", "predict_ensemble"):
        _calls_self(out, spans, f"ensemble.{fn}")
    out["ensemble.predict_ensemble.member_predicts"] = int(np.sum(
        spans.named("knn.classify_1nn") & (parents == "ensemble.predict_ensemble")))
    for booster in BOOSTERS:
        attempts, members, ratio = boost_effort(spans, booster)
        out[f"{booster}.attempts"] = attempts
        out[f"{booster}.members"] = members
        out[f"{booster}.useful_ratio"] = ratio

    out["theory.exhaustive_search.self_s"] = _self_s(spans, "theory.exhaustive_search")
    out["theory.exhaustive_search.subsets"] = int(
        spans.counters.get("theory.exhaustive_search.subsets", 0))
    for fn in ("removal_analysis", "asymptotic_gm", "lemma_check"):
        _calls_self(out, spans, f"theory.{fn}")
    out["theory.cb_bb_demo.self_s"] = _self_s(spans, "theory.cb_bb_demo")
    theory_fns = sorted({n for n in spans.names.tolist() if n.startswith("theory.")})
    selection_fns = sorted({n for n in spans.names.tolist() if n.startswith("selection.")})
    probes = dist & spans.under(theory_fns) & ~spans.under(selection_fns)
    out["theory.probe_cells"] = float(np.sum(spans.cells[probes]))

    out["data.parse_keel.self_s"] = _self_s(spans, "data.parse_keel")
    out["data.parse_keel.rows"] = int(spans.counters.get("data.parse_keel.rows", 0))
    out["data.scale.self_s"] = _self_s(spans, "data.fit_scaler", "data.apply_scaler")
    out["data.folds.self_s"] = _self_s(spans, "data.stratified_two_fold")

    trials = spans.duration[spans.named("bench._run_trial")]
    out["bench.trials"] = int(trials.size)
    out["bench.trial.p50_ms"] = float(np.median(trials)) * 1e3 if trials.size else 0.0
    tail = tail_percentile(trials.tolist())
    out["bench.trial.tail_pct"] = tail[0] if tail else 0.0
    out["bench.trial.tail_ms"] = tail[1] * 1e3 if tail else 0.0
    return out
