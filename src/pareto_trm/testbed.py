"""Benchmark problems: T6, ZDT1-ZDT3, DTLZ1, DTLZ6.

Each family is exposed through `make_problem` and the `PROBLEM_NAMES` registry.
Heterogeneity tagging follows the benchmark convention: the first objective is
cheap and the rest expensive, except T6 where the logarithmic objective is the
expensive one. `solution_quality` computes the final true criticality (scaled
coordinates, clamped) and, where the Pareto set is known analytically, the
distance to it.

Every objective also has a batch evaluator over the rows of an (m, n) array,
and every gradient callback a batch gradient. A batch evaluator repeats its
scalar function's operations elementwise, in the same order, so it gives the
same bits: the array ufuncs the scalar functions apply (np.cos, np.sin, ** on
arrays) are applied to the batch, and their Python-scalar math-library calls
(math.log, math.sin, ** on a float) are made once per element through
`_each`, because numpy's vectorized loops may round them differently by an ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criticality import true_omega
from .errors import ObjectiveFailure, UnsupportedDimension
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

    def f1(x):
        return x[0] + math.log(x[0]) + x[1] ** 2

    def f2(x):
        return x[0] ** 2 + x[1] ** 4

    def g1(x):
        return np.array([1.0 + 1.0 / x[0], 2.0 * x[1]])

    def g2(x):
        return np.array([2.0 * x[0], 4.0 * x[1] ** 3])

    def batch_f1(X):
        return X[:, 0] + _each(math.log, X[:, 0]) + _each(pow, X[:, 1], 2)

    def batch_f2(X):
        return _each(pow, X[:, 0], 2) + _each(pow, X[:, 1], 4)

    def batch_g1(X):
        return np.column_stack([1.0 + 1.0 / X[:, 0], 2.0 * X[:, 1]])

    def batch_g2(X):
        return np.column_stack([2.0 * X[:, 0], 4.0 * _each(pow, X[:, 1], 3)])

    mask = _mask(pattern, 2)
    grads = [None if mask[0] else g1, None if mask[1] else g2]
    batch_grads = [None if mask[0] else batch_g1, None if mask[1] else batch_g2]
    fs = FeasibleSet.box([eps, 0.0], [30.0, 30.0])
    return MOProblem(
        2, 2, [f1, f2], mask, fs, grads, name="T6",
        batch_objectives=[batch_f1, batch_f2], batch_gradients=batch_grads,
    )


def _zdt(name: str, n: int, pattern: str) -> MOProblem:
    if n < 2:
        raise UnsupportedDimension("ZDT requires n >= 2")

    def f1(x):
        return float(x[0])

    def g_of(x):
        return 1.0 + 9.0 * float(np.sum(x[1:])) / (n - 1)

    if name == "ZDT1":
        def f2(x):
            g = g_of(x)
            return g * (1.0 - math.sqrt(x[0] / g))
    elif name == "ZDT2":
        def f2(x):
            g = g_of(x)
            return g * (1.0 - (x[0] / g) ** 2)
    else:  # ZDT3
        def f2(x):
            g = g_of(x)
            r = x[0] / g
            return g * (1.0 - math.sqrt(r) - r * math.sin(10.0 * math.pi * x[0]))

    def grad_f1(x):
        g = np.zeros(n)
        g[0] = 1.0
        return g

    def batch_f1(X):
        return X[:, 0]

    def batch_g(X):
        return 1.0 + 9.0 * np.sum(X[:, 1:], axis=1) / (n - 1)

    if name == "ZDT1":
        def batch_f2(X):
            g = batch_g(X)
            return g * (1.0 - np.sqrt(X[:, 0] / g))
    elif name == "ZDT2":
        def batch_f2(X):
            g = batch_g(X)
            return g * (1.0 - _each(pow, X[:, 0] / g, 2))
    else:
        def batch_f2(X):
            g = batch_g(X)
            r = X[:, 0] / g
            return g * (1.0 - np.sqrt(r) - r * _each(math.sin, 10.0 * math.pi * X[:, 0]))

    def batch_grad_f1(X):
        G = np.zeros(X.shape)
        G[:, 0] = 1.0
        return G

    mask = _mask(pattern, 2)
    grads = [None if mask[0] else grad_f1, None]
    batch_grads = [None if mask[0] else batch_grad_f1, None]
    fs = FeasibleSet.box(np.zeros(n), np.ones(n))
    return MOProblem(
        n, 2, [f1, f2], mask, fs, grads, name=name,
        batch_objectives=[batch_f1, batch_f2], batch_gradients=batch_grads,
    )


def _dtlz1_terms(x, k):
    tail = x[k - 1:]
    g = 100.0 * (
        tail.size
        + float(np.sum((tail - 0.5) ** 2 - np.cos(20.0 * math.pi * (tail - 0.5))))
    )
    return g, x[: k - 1]


def _dtlz1_batch_terms(X, k):
    """_dtlz1_terms of every row of X: (g, pos) with g of shape (m,)."""
    tail = X[:, k - 1:]
    g = 100.0 * (
        tail.shape[1]
        + np.sum((tail - 0.5) ** 2 - np.cos(20.0 * math.pi * (tail - 0.5)), axis=1)
    )
    return g, X[:, : k - 1]


def _dtlz1(n: int, pattern: str) -> MOProblem:
    k = n_objectives("DTLZ1", n)

    def make_f(j):
        def f(x):
            g, pos = _dtlz1_terms(np.asarray(x, dtype=float), k)
            prod = float(np.prod(pos[: k - j])) if k - j > 0 else 1.0
            if j == 1:
                return 0.5 * (1.0 + g) * prod
            return 0.5 * (1.0 + g) * prod * (1.0 - pos[k - j])

        return f

    def grad_f1(x):
        x = np.asarray(x, dtype=float)
        g, pos = _dtlz1_terms(x, k)
        grad = np.zeros(n)
        for i in range(k - 1):
            others = np.prod(np.delete(pos, i)) if pos.size > 1 else 1.0
            grad[i] = 0.5 * (1.0 + g) * float(others)
        prod = float(np.prod(pos)) if pos.size else 1.0
        tail = x[k - 1:]
        dg = 100.0 * (2.0 * (tail - 0.5) + 20.0 * math.pi * np.sin(20.0 * math.pi * (tail - 0.5)))
        grad[k - 1:] = 0.5 * prod * dg
        return grad

    def make_batch_f(j):
        def batch_f(X):
            g, pos = _dtlz1_batch_terms(X, k)
            prod = np.prod(pos[:, : k - j], axis=1)
            if j == 1:
                return 0.5 * (1.0 + g) * prod
            return 0.5 * (1.0 + g) * prod * (1.0 - pos[:, k - j])

        return batch_f

    def batch_grad_f1(X):
        g, pos = _dtlz1_batch_terms(X, k)
        G = np.zeros(X.shape)
        for i in range(k - 1):
            G[:, i] = 0.5 * (1.0 + g) * np.prod(np.delete(pos, i, axis=1), axis=1)
        prod = np.prod(pos, axis=1)
        tail = X[:, k - 1:]
        dg = 100.0 * (2.0 * (tail - 0.5) + 20.0 * math.pi * np.sin(20.0 * math.pi * (tail - 0.5)))
        G[:, k - 1:] = (0.5 * prod)[:, None] * dg
        return G

    mask = _mask(pattern, k)
    grads = [None] * k
    batch_grads = [None] * k
    if not mask[0]:
        grads[0] = grad_f1
        batch_grads[0] = batch_grad_f1
    fs = FeasibleSet.box(np.zeros(n), np.ones(n))
    objs = [make_f(j) for j in range(1, k + 1)]
    return MOProblem(
        n, k, objs, mask, fs, grads, name="DTLZ1",
        batch_objectives=[make_batch_f(j) for j in range(1, k + 1)],
        batch_gradients=batch_grads,
    )


def _dtlz6(n: int, pattern: str) -> MOProblem:
    k = n_objectives("DTLZ6", n)

    def theta_of(x):
        tail = x[k - 1:]
        g = float(np.sum(tail ** 0.1))
        th = np.empty(k - 1)
        th[0] = 0.5 * math.pi * x[0]
        if k > 2:
            th[1:] = math.pi / (4.0 * (1.0 + g)) * (1.0 + 2.0 * g * x[1: k - 1])
        return g, th

    def make_f(j):
        def f(x):
            x = np.asarray(x, dtype=float)
            g, th = theta_of(x)
            val = (1.0 + g) * float(np.prod(np.cos(th[: k - j])))
            if j > 1:
                val *= math.sin(th[k - j])
            return val

        return f

    def batch_theta(X):
        tail = X[:, k - 1:]
        g = np.sum(tail ** 0.1, axis=1)
        th = np.empty((len(X), k - 1))
        th[:, 0] = 0.5 * math.pi * X[:, 0]
        if k > 2:
            th[:, 1:] = (math.pi / (4.0 * (1.0 + g)))[:, None] * (
                1.0 + 2.0 * g[:, None] * X[:, 1: k - 1]
            )
        return g, th

    def make_batch_f(j):
        def batch_f(X):
            g, th = batch_theta(X)
            val = (1.0 + g) * np.prod(np.cos(th[:, : k - j]), axis=1)
            if j > 1:
                val *= _each(math.sin, th[:, k - j])
            return val

        return batch_f

    mask = _mask(pattern, k)
    fs = FeasibleSet.box(np.zeros(n), np.ones(n))
    objs = [make_f(j) for j in range(1, k + 1)]
    return MOProblem(
        n, k, objs, mask, fs, [None] * k, name="DTLZ6",
        batch_objectives=[make_batch_f(j) for j in range(1, k + 1)],
    )


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


@dataclass(frozen=True)
class SolutionQuality:
    omega: float
    dist_to_pareto: Optional[float]
    nondifferentiable: bool


def solution_quality(prob: MOProblem, x_final, fd_step: float = 1e-6) -> SolutionQuality:
    """Final-iterate quality: clamped true criticality plus Pareto distance.

    Non-finite finite-difference gradients mean the objectives are not
    differentiable at the point; the benchmark convention sets omega to 0
    there (the families are non-differentiable only at Pareto-optimal points).
    """
    x_final = np.asarray(x_final, dtype=float)
    try:
        crit = true_omega(prob, x_final, fd_step)
        omega, nondiff = crit.omega_clamped, False
    except ObjectiveFailure:
        omega, nondiff = 0.0, True
    dist = None
    if prob.name == "T6":
        dist = float(np.max(np.abs(x_final - np.array([1e-12, 0.0]))))
    return SolutionQuality(omega, dist, nondiff)
