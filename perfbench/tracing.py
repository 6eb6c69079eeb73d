"""Span tracing of pareto_trm's layers, installed from outside the package.

The driver imports the functions it calls into its own namespace, so each
wrapper is installed where the name is looked up, not where it is defined.
A span is (layer, start, end, parent span); spans stay in memory in flat
arrays and are summarised per pass. A layer's self time is its span's
duration minus the durations of its child spans.

Counters that rate a layer's work are derived from the values the public
API returns: the bundle from ``build_bundle``, the step from
``compute_step`` and the database length around ``EvaluationDatabase.evaluate``.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from pareto_trm import criticality, driver, problem, steps, surrogates

# (owner, attribute, layer name); the owner is where the caller looks the name up
SITES = [
    (driver, "build_bundle", "surrogates.build_bundle"),
    (driver, "criticality_routine", "driver.criticality_routine"),
    (driver, "omega_of_gradients", "criticality.omega_of_gradients"),
    (driver, "compute_step", "steps.compute_step"),
    (driver, "true_omega", "criticality.true_omega"),
    (surrogates, "build_rbf", "surrogates.build_rbf"),
    (surrogates, "build_lagrange", "surrogates.build_lagrange"),
    (surrogates, "build_taylor_fd", "surrogates.build_taylor_fd"),
    (surrogates, "hessian_bound", "surrogates.hessian_bound"),
    (criticality, "solve_descent_lp", "linalg.solve_descent_lp"),
    (steps, "box_multistart_minimize", "linalg.box_multistart_minimize"),
    (problem.EvaluationDatabase, "evaluate", "problem.db.evaluate"),
    (problem.EvaluationDatabase, "query_ball", "problem.db.query_ball"),
    (problem.MOProblem, "evaluate_raw", "problem.evaluate_raw"),
]
RUN_LAYER = "driver.run"
LAYERS = [RUN_LAYER] + [name for _, _, name in SITES]

PS_METHOD = "pascoletti-serafini"


class Tracer:
    """Records spans and counters while installed; one instance per benchmark run."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._ids = {name: i for i, name in enumerate(LAYERS)}
        self._stack: list[int] = []
        self.clear()

    def clear(self) -> None:
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts.clear()

    def wrap(self, fn, name: str):
        layer_id = self._ids[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.layer)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # observers: run inside the layer's span, on the value the layer returns

    def _observe_bundle(self, fn):
        counts = self.counts

        def build_bundle(*args, **kwargs):
            bundle = fn(*args, **kwargs)
            counts["bundles"] += 1
            counts["bundles_fully_linear"] += bool(bundle.fully_linear)
            counts["bundle_new_sites"] += bundle.new_sites
            counts["bundle_sites"] += len(np.unique(bundle.training_sites, axis=0))
            return bundle

        return build_bundle

    def _observe_step(self, fn):
        counts = self.counts

        def compute_step(bundle, center, radius, crit, cfg, fs):
            res = fn(bundle, center, radius, crit, cfg, fs)
            if cfg.method == PS_METHOD:
                counts["ps_steps"] += 1
                counts["ps_fallbacks"] += bool(res.fallback)
            return res

        return compute_step

    def _observe_db(self, fn):
        counts = self.counts

        def evaluate(db, x):
            before = len(db)
            out = fn(db, x)
            counts["db_hits"] += len(db) == before
            return out

        return evaluate

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block; restore on exit."""
        observers = {
            "surrogates.build_bundle": self._observe_bundle,
            "steps.compute_step": self._observe_step,
            "problem.db.evaluate": self._observe_db,
        }
        saved = []
        try:
            for owner, attr, name in SITES:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                inner = observers[name](orig) if name in observers else orig
                setattr(owner, attr, self.wrap(inner, name))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def summary(self) -> dict:
        """Per-layer calls, inclusive seconds and self seconds of the recorded spans."""
        layer = np.frombuffer(self.layer, dtype=np.intc).copy()
        parent = np.frombuffer(self.parent, dtype=np.intc).copy()
        dur = np.frombuffer(self.end).copy() - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        size = len(LAYERS)
        calls = np.bincount(layer, minlength=size)
        incl = np.bincount(layer, weights=dur, minlength=size)
        own = np.bincount(layer, weights=dur - child, minlength=size)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(LAYERS)
        }

    def write(self, path) -> None:
        """Dump the recorded spans as gzipped CSV; `run` is the root span's index."""
        roots: list[int] = []
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,layer,start_s,end_s,parent,run\n")
            for i, (lid, t0, t1, par) in enumerate(
                zip(self.layer, self.start, self.end, self.parent)
            ):
                roots.append(i if par < 0 else roots[par])
                fh.write(f"{i},{LAYERS[lid]},{t0!r},{t1!r},{par},{roots[i]}\n")
