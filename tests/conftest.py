"""Shared oracles and problem builders for the test suite."""

import importlib.util
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from pareto_trm.problem import FeasibleSet, MOProblem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module, loaded by path; perfbench/ is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def lp_grid_oracle(G, lo, hi, res=1e-3):
    """Dense-grid minimizer of max_l g_l.d over the box (n <= 2 only)."""
    G = np.atleast_2d(G)
    n = G.shape[1]
    assert n <= 2, "grid oracle is only tractable for n <= 2"
    axes = [np.arange(lo[i], hi[i] + res / 2, res) for i in range(n)]
    if n == 1:
        D = axes[0][:, None]
    else:
        A, B = np.meshgrid(axes[0], axes[1], indexing="ij")
        D = np.column_stack([A.ravel(), B.ravel()])
    vals = np.max(D @ G.T, axis=1)
    i = int(np.argmin(vals))
    return D[i], float(vals[i])


def lp_vertex_oracle(G, lo, hi):
    """Exact LP optimum by enumerating vertices of the (d, beta) polyhedron.

    Constraints: g_l.d - beta <= 0, d <= hi, -d <= -lo. The minimum of beta is
    attained at a vertex, i.e. a feasible point where n+1 independent
    constraints are active. Independent of the simplex implementation.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    k, n = G.shape
    rows, rhs = [], []
    for g in G:
        rows.append(np.concatenate([g, [-1.0]]))
        rhs.append(0.0)
    for i in range(n):
        e = np.zeros(n + 1)
        e[i] = 1.0
        rows.append(e.copy())
        rhs.append(hi[i])
        rows.append(-e)
        rhs.append(-lo[i])
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = np.inf
    best_d = None
    for subset in combinations(range(len(rows)), n + 1):
        Asub = rows[list(subset)]
        if abs(np.linalg.det(Asub)) < 1e-12:
            continue
        point = np.linalg.solve(Asub, rhs[list(subset)])
        if np.all(rows @ point <= rhs + 1e-9) and point[n] < best:
            best = point[n]
            best_d = point[:n]
    assert best_d is not None, "polyhedron has no vertex (should not happen)"
    return best_d, float(best)


def fd_gradient(fn, z, h, lo, hi, f0=None):
    """One point at a time: central differences, one-sided at active box faces.

    fn maps one point to a scalar, or to a vector when f0 = fn(z) is passed.
    Without f0, f(z) is read when the first one-sided axis needs it. Stencil
    points are clipped into [lo, hi].
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    g = np.zeros((n,) + np.shape(f0))

    for i in range(n):
        up = min(z[i] + h, hi[i])
        dn = max(z[i] - h, lo[i])
        if up - dn <= 0:
            continue
        zp, zm = z.copy(), z.copy()
        zp[i], zm[i] = up, dn
        if up > z[i] and dn < z[i]:
            g[i] = (fn(zp) - fn(zm)) / (up - dn)
        else:
            if f0 is None:
                f0 = fn(z)
            other = zp if up > z[i] else zm
            g[i] = (fn(other) - f0) / (other[i] - z[i])
    return g


def row_loop(fn):
    """A batch evaluator made from a one-point function: fn at each row of X."""
    return lambda X: np.array([fn(x) for x in X], dtype=float)


def plain(value_fn, grad_fn):
    """Batch value and gradient functions in box_multistart_minimize's
    protocol: the values come with no aux rows, and the gradient ignores
    its aux argument."""
    return (lambda U: (value_fn(U), None)), (lambda U, aux: grad_fn(U))


def two_quadratics(a, b, box=None):
    """Convex bi-objective ||x-a||^2, ||x-b||^2 with analytic gradients."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    fs = FeasibleSet.box(*box) if box is not None else FeasibleSet.unconstrained()
    return MOProblem(
        n,
        2,
        [lambda X: np.sum((X - a) ** 2, axis=1), lambda X: np.sum((X - b) ** 2, axis=1)],
        np.array([False, False]),
        fs,
        [lambda X: 2.0 * (X - a), lambda X: 2.0 * (X - b)],
        name="two-quadratics",
    )


def segment_distance(x, a, b):
    """inf-norm distance from x to the segment [a, b]."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ts = np.linspace(0.0, 1.0, 20001)
    pts = a[None, :] + ts[:, None] * (b - a)[None, :]
    return float(np.min(np.max(np.abs(pts - x[None, :]), axis=1)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
