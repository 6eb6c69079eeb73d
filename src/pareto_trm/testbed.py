"""Benchmark problems: T6, ZDT1-ZDT3, DTLZ1, DTLZ6.

Each family is exposed through `make_problem` and the `PROBLEM_NAMES` registry.
Heterogeneity tagging follows the benchmark convention: the first objective is
cheap and the rest expensive, except T6 where the logarithmic objective is the
expensive one. `pareto_distance` gives the distance to the Pareto set where it
is known analytically; the final true criticality of a run is in its report.

Every objective and gradient is written once, as a batch evaluator over the
rows of an (m, n) array. Each batch evaluator repeats, elementwise and in the
same order, the operations of the one-point formula it was written from,
which is kept in the test suite as the oracle of its bits: array ufuncs
(np.cos, np.sin, ** on arrays) are applied to the batch, while the formula's
Python-scalar math-library calls (math.log, math.sin, ** on a float) are made
once per element through `_each`, because numpy's vectorized loops may round
them differently by an ulp. Keeping those bits keeps every recorded run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedDimension
from .problem import FeasibleSet, MOProblem

FIRST_CHEAP = "first-cheap-rest-expensive"
ALL_EXPENSIVE = "all-expensive"
FIRST_EXPENSIVE = "first-expensive-rest-cheap"
PATTERNS = (FIRST_CHEAP, ALL_EXPENSIVE, FIRST_EXPENSIVE)

PROBLEM_NAMES = ("T6", "ZDT1", "ZDT2", "ZDT3", "DTLZ1", "DTLZ6")


@dataclass(frozen=True)
class TestProblemSpec:
    __test__ = False  # keep pytest collection away

    name: str
    n_vars: int = 0  # 0 = family default
    pattern: str = ""  # "" = family default

    def resolved(self) -> "TestProblemSpec":
        name = self.name.upper()
        if name not in PROBLEM_NAMES:
            raise UnsupportedDimension(f"unknown problem {self.name!r}")
        n = self.n_vars or _default_n(name)
        pattern = self.pattern or _default_pattern(name)
        if pattern not in PATTERNS:
            raise ValueError(f"unknown expensive pattern {pattern!r}")
        return TestProblemSpec(name, n, pattern)


def _default_n(name: str) -> int:
    return 2 if name == "T6" else 5


def _default_pattern(name: str) -> str:
    return FIRST_EXPENSIVE if name == "T6" else FIRST_CHEAP


def n_objectives(name: str, n: int) -> int:
    return max(2, n - 4) if name.startswith("DTLZ") else 2


def _mask(pattern: str, k: int) -> np.ndarray:
    if pattern == ALL_EXPENSIVE:
        return np.ones(k, dtype=bool)
    mask = np.ones(k, dtype=bool)
    if pattern == FIRST_CHEAP:
        mask[0] = False
    else:  # first expensive, rest cheap
        mask[:] = False
        mask[0] = True
    return mask


def _each(fn, a, *args) -> np.ndarray:
    """fn(v, *args), a scalar math-library call, for every element v of a 1-d array."""
    return np.array([fn(v, *args) for v in a.tolist()], dtype=float)


def _t6(pattern: str) -> MOProblem:
    eps = 1e-12

    def f1(X):
        return X[:, 0] + _each(math.log, X[:, 0]) + _each(pow, X[:, 1], 2)

    def f2(X):
        return _each(pow, X[:, 0], 2) + _each(pow, X[:, 1], 4)

    def g1(X):
        return np.column_stack([1.0 + 1.0 / X[:, 0], 2.0 * X[:, 1]])

    def g2(X):
        return np.column_stack([2.0 * X[:, 0], 4.0 * _each(pow, X[:, 1], 3)])

    mask = _mask(pattern, 2)
    grads = [None if mask[0] else g1, None if mask[1] else g2]
    fs = FeasibleSet.box([eps, 0.0], [30.0, 30.0])
    return MOProblem(2, 2, [f1, f2], mask, fs, grads, name="T6")


def _zdt(name: str, n: int, pattern: str) -> MOProblem:
    if n < 2:
        raise UnsupportedDimension("ZDT requires n >= 2")

    def f1(X):
        return X[:, 0]

    def g_of(X):
        return 1.0 + 9.0 * np.sum(X[:, 1:], axis=1) / (n - 1)

    if name == "ZDT1":
        def f2(X):
            g = g_of(X)
            return g * (1.0 - np.sqrt(X[:, 0] / g))
    elif name == "ZDT2":
        def f2(X):
            g = g_of(X)
            return g * (1.0 - _each(pow, X[:, 0] / g, 2))
    else:  # ZDT3
        def f2(X):
            g = g_of(X)
            r = X[:, 0] / g
            return g * (1.0 - np.sqrt(r) - r * _each(math.sin, 10.0 * math.pi * X[:, 0]))

    def grad_f1(X):
        G = np.zeros(X.shape)
        G[:, 0] = 1.0
        return G

    mask = _mask(pattern, 2)
    fs = FeasibleSet.box(np.zeros(n), np.ones(n))
    return MOProblem(n, 2, [f1, f2], mask, fs, [None if mask[0] else grad_f1, None], name=name)


def _dtlz1_terms(X, k):
    """(g, pos, t, angle) of every row of X: g of shape (m,), pos the first
    k - 1 columns, t the last n - k + 1 columns minus 0.5 and angle 20 pi t."""
    t = X[:, k - 1:] - 0.5
    angle = 20.0 * math.pi * t
    g = 100.0 * (t.shape[1] + (t**2 - np.cos(angle)).sum(axis=1))
    return g, X[:, : k - 1], t, angle


def _dtlz1(n: int, pattern: str) -> MOProblem:
    k = n_objectives("DTLZ1", n)

    def make_f(j):
        def f(X):
            g, pos, _, _ = _dtlz1_terms(X, k)
            prod = pos[:, : k - j].prod(axis=1)
            if j == 1:
                return 0.5 * (1.0 + g) * prod
            return 0.5 * (1.0 + g) * prod * (1.0 - pos[:, k - j])

        return f

    # the columns of pos whose product is d f1 / d x_i, for each i < k - 1
    others = [[j for j in range(k - 1) if j != i] for i in range(k - 1)]

    def grad_f1(X):
        g, pos, t, angle = _dtlz1_terms(X, k)
        G = np.zeros(X.shape)
        scale = 0.5 * (1.0 + g)
        for i, cols in enumerate(others):
            G[:, i] = scale * pos[:, cols].prod(axis=1)
        dg = 100.0 * (2.0 * t + 20.0 * math.pi * np.sin(angle))
        G[:, k - 1:] = (0.5 * pos.prod(axis=1))[:, None] * dg
        return G

    mask = _mask(pattern, k)
    grads = [None] * k
    if not mask[0]:
        grads[0] = grad_f1
    fs = FeasibleSet.box(np.zeros(n), np.ones(n))
    objs = [make_f(j) for j in range(1, k + 1)]
    return MOProblem(n, k, objs, mask, fs, grads, name="DTLZ1")


def _dtlz6(n: int, pattern: str) -> MOProblem:
    k = n_objectives("DTLZ6", n)

    def theta_of(X):
        tail = X[:, k - 1:]
        g = np.sum(tail ** 0.1, axis=1)
        th = np.empty((len(X), k - 1))
        th[:, 0] = 0.5 * math.pi * X[:, 0]
        if k > 2:
            th[:, 1:] = (math.pi / (4.0 * (1.0 + g)))[:, None] * (
                1.0 + 2.0 * g[:, None] * X[:, 1: k - 1]
            )
        return g, th

    def make_f(j):
        def f(X):
            g, th = theta_of(X)
            val = (1.0 + g) * np.prod(np.cos(th[:, : k - j]), axis=1)
            if j > 1:
                val *= _each(math.sin, th[:, k - j])
            return val

        return f

    mask = _mask(pattern, k)
    fs = FeasibleSet.box(np.zeros(n), np.ones(n))
    objs = [make_f(j) for j in range(1, k + 1)]
    return MOProblem(n, k, objs, mask, fs, name="DTLZ6")


def make_problem(spec: TestProblemSpec) -> MOProblem:
    """Instantiate a registered test problem."""
    spec = spec.resolved()
    if spec.name == "T6":
        if spec.n_vars != 2:
            raise UnsupportedDimension("T6 is a 2-variable problem")
        return _t6(spec.pattern)
    if spec.name.startswith("ZDT"):
        return _zdt(spec.name, spec.n_vars, spec.pattern)
    if spec.n_vars < 2:
        raise UnsupportedDimension("DTLZ requires n >= 2")
    if spec.name == "DTLZ1":
        return _dtlz1(spec.n_vars, spec.pattern)
    return _dtlz6(spec.n_vars, spec.pattern)


def pareto_distance(prob: MOProblem, x) -> Optional[float]:
    """inf-norm distance from x to the Pareto set, where it is known (T6 only)."""
    if prob.name != "T6":
        return None
    return float(np.max(np.abs(np.asarray(x, dtype=float) - np.array([1e-12, 0.0]))))
