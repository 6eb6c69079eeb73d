"""Heterogeneous multiobjective problems, box feasible sets and the evaluation database.

All optimizer-internal geometry lives in scaled coordinates, and the problem
owns that frame: ``MOProblem.unit`` is the feasible set there (the unit
hypercube [0,1]^n for a box, R^n itself otherwise), ``MOProblem.width`` is the
box's upper - lower (None on R^n), ``scale``/``unscale`` map points with that
width (the identity on R^n) and ``unit_gradients`` carries a gradient
evaluator's output into the frame by the chain rule. The database stores
sites in the problem's original coordinates and dedupes / searches in scaled
coordinates.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExhausted,
    DimensionMismatch,
    InfeasiblePoint,
    ObjectiveFailure,
)
from .linalg import first_primes

UNCONSTRAINED = "unconstrained"
BOX = "box"

#: cache-hit tolerance for database lookups, in scaled coordinates
CACHE_TOL = 1e-14


@dataclass(frozen=True)
class FeasibleSet:
    """Either all of R^n or an axis-aligned box with finite bounds.

    R^n keeps the bounds -inf and +inf, which broadcast against any point, so
    clamps, region boxes and stencils read `lower`/`upper` for both kinds.
    """

    kind: str
    lower: np.ndarray | float = -np.inf
    upper: np.ndarray | float = np.inf

    def __post_init__(self):
        if self.kind not in (UNCONSTRAINED, BOX):
            raise ValueError(f"unknown feasible-set kind {self.kind!r}")
        if self.kind == UNCONSTRAINED:
            object.__setattr__(self, "lower", -np.inf)
            object.__setattr__(self, "upper", np.inf)
        else:
            lo = np.asarray(self.lower, dtype=float)
            hi = np.asarray(self.upper, dtype=float)
            if lo.shape != hi.shape or lo.ndim != 1:
                raise DimensionMismatch("box bounds must be 1-d arrays of equal length")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError("box bounds must be finite")
            if not np.all(hi > lo):
                raise ValueError("box requires upper > lower componentwise")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)

    @classmethod
    def unconstrained(cls) -> "FeasibleSet":
        return cls(UNCONSTRAINED)

    @classmethod
    def box(cls, lower, upper) -> "FeasibleSet":
        return cls(BOX, np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))

    @property
    def is_box(self) -> bool:
        return self.kind == BOX

    def contains(self, x: np.ndarray) -> bool:
        if not self.is_box:
            return True
        return bool((x >= self.lower).all() and (x <= self.upper).all())


def region_box(center, radius: float, fs: FeasibleSet) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the inf-ball B(center; radius), intersected with the box of fs."""
    center = np.asarray(center, dtype=float)
    return np.maximum(center - radius, fs.lower), np.minimum(center + radius, fs.upper)


def _check_dim(x: np.ndarray, fs: FeasibleSet) -> np.ndarray:
    """x as a float array: one point (n,) or a batch (m, n) of them."""
    x = np.asarray(x, dtype=float)
    if fs.is_box and x.shape[-1:] != fs.lower.shape:
        raise DimensionMismatch(f"expected length {fs.lower.size}, got shape {x.shape}")
    return x


def project_to_box(x, fs: FeasibleSet) -> np.ndarray:
    """Componentwise clamp onto the box, as a new array; a copy for unconstrained sets."""
    return np.clip(_check_dim(x, fs), fs.lower, fs.upper)


@dataclass
class MOProblem:
    """A vector objective with per-objective expensive/cheap tagging.

    objectives[l] evaluates f_l at every row of an (m, n) array of points in
    the original coordinates and returns the (m,) values. gradients[l], when
    given, must belong to a cheap objective and returns the (m, n) gradients
    in original coordinates. Each row's output must depend on that row alone,
    so a batch gives the bits of its rows evaluated one at a time. A one-point
    black box f(x) -> float becomes an objective with
    ``lambda X: np.array([f(x) for x in X])``.

    The problem owns the optimizer's working frame, set once from `feasible`:
    `unit` is the feasible set in scaled coordinates ([0,1]^n for a box,
    `feasible` itself on R^n) and `width` is upper - lower of the box (None on
    R^n). `scale` and `unscale` map between the frames with that width, and
    `unit_gradients` returns a gradient evaluator's rows in scaled
    coordinates, G * width by the chain rule.
    """

    n_vars: int
    n_objs: int
    objectives: Sequence[Callable[[np.ndarray], np.ndarray]]
    expensive_mask: np.ndarray
    feasible: FeasibleSet
    gradients: Optional[Sequence[Optional[Callable[[np.ndarray], np.ndarray]]]] = None
    name: str = ""
    unit: FeasibleSet = field(init=False, repr=False)
    width: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.expensive_mask = np.asarray(self.expensive_mask, dtype=bool)
        if self.n_vars < 1 or self.n_objs < 1:
            raise ValueError("n_vars and n_objs must be positive")
        if len(self.objectives) != self.n_objs:
            raise DimensionMismatch("need one evaluator per objective")
        if self.expensive_mask.shape != (self.n_objs,):
            raise DimensionMismatch("expensive_mask must have length n_objs")
        if self.feasible.is_box and self.feasible.lower.size != self.n_vars:
            raise DimensionMismatch("feasible set dimension mismatch")
        if self.gradients is None:
            self.gradients = [None] * self.n_objs
        if len(self.gradients) != self.n_objs:
            raise DimensionMismatch("gradients needs one entry per objective")
        if any(g is not None and exp for g, exp in zip(self.gradients, self.expensive_mask)):
            raise ValueError("gradients are only allowed on cheap objectives")
        fs = self.feasible
        if fs.is_box:
            self.unit = FeasibleSet.box(np.zeros(self.n_vars), np.ones(self.n_vars))
            self.width = fs.upper - fs.lower
        else:
            self.unit, self.width = fs, None

    @property
    def expensive_indices(self) -> np.ndarray:
        return np.flatnonzero(self.expensive_mask)

    def scale(self, x) -> np.ndarray:
        """A point, or each row of a batch, in scaled coordinates, as a new array."""
        x = _check_dim(x, self.feasible)
        return x.copy() if self.width is None else (x - self.feasible.lower) / self.width

    def unscale(self, z) -> np.ndarray:
        """Inverse of `scale`."""
        z = _check_dim(z, self.feasible)
        return z.copy() if self.width is None else self.feasible.lower + z * self.width

    def objective_values(self, index: int, X: np.ndarray) -> np.ndarray:
        """objectives[index] at the rows of the (m, n) array X: (m,) floats."""
        return self._call(self.objectives[index], index, X, X.shape[:1])

    def objective_gradients(self, index: int, X: np.ndarray) -> np.ndarray:
        """gradients[index] at the rows of the (m, n) array X: (m, n) floats."""
        return self._call(self.gradients[index], index, X, X.shape)

    def unit_gradients(self, index: int, X: np.ndarray) -> np.ndarray:
        """gradients[index] at the rows of X (original coordinates) with respect
        to the scaled coordinates: (m, n) floats."""
        G = self.objective_gradients(index, X)
        return G if self.width is None else G * self.width

    @staticmethod
    def _call(fn, index: int, X: np.ndarray, shape) -> np.ndarray:
        """fn(X) as a float array, which must have exactly `shape`; an empty
        batch is answered without calling fn."""
        if len(X) == 0:
            return np.empty(shape)
        out = np.asarray(fn(X), dtype=float)
        if out.shape != shape:
            raise DimensionMismatch(
                f"evaluator of objective {index} returned shape {out.shape}, expected {shape}"
            )
        return out

    def evaluate_raw(self, x) -> np.ndarray:
        """Every objective at one site (n,) -> (k,), or at every row of a batch
        (m, n) -> (m, k), with one call per objective; no caching, feasibility
        or finiteness checks."""
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        F = np.column_stack([self.objective_values(i, X) for i in range(self.n_objs)])
        return F if x.ndim == 2 else F[0]


class EvaluationDatabase:
    """Append-only store of evaluated sites and objective vectors, filled by
    ``evaluate`` alone.

    The sites (original coordinates), their scaled copies and their values
    fill the first ``len(db)`` rows of three capacity-doubling 2-D buffers.
    ``sites`` (m, n) and ``values`` (m, k) are views of the stored rows, in the
    order they were stored; a stored row never changes. Cache hits and ball
    queries work on the scaled copy. A read settles its rows one by one (see
    ``_settle``), finding each row's candidates by bisection in a sorted list
    of the keys w.z, one fixed projection of each stored scaled site. The
    rows a read stores are written with one write per buffer. Each stored
    row evaluated every objective, so len(db) counts expensive evaluation.
    """

    def __init__(self, problem: MOProblem, max_expensive: Optional[int] = None):
        self.problem = problem
        self.max_expensive = max_expensive
        n = problem.n_vars
        self._sites = np.empty((8, n))
        self._buffer = np.empty((8, n))  # the scaled sites
        self._values = np.empty((8, problem.n_objs))
        self._size = 0  # buffer rows in use
        # distinct weights 1 + frac(sqrt p_k) in [1, 2), p_k the first n primes:
        # no small integer combination of them vanishes, so the rows of a
        # finite-difference or quadratic stencil get keys far more than a
        # lookup window apart
        self._weights = 1.0 + np.modf(np.sqrt(first_primes(n)))[0]
        slack = (1.0 + np.finfo(float).eps) * float(self._weights.sum()) * CACHE_TOL
        gamma = (n + 2) * np.finfo(float).eps
        # the lookup radius 2 (slack + gamma (2 w.|z| + slack)) is |z|.spread + floor
        self._spread = 4.0 * gamma * self._weights
        self._floor = 2.0 * (1.0 + gamma) * slack
        self._keys: list[float] = []  # the key of each stored row, sorted, NaN as +inf
        self._rows: list[int] = []  # the row of each key

    def __len__(self) -> int:
        return self._size

    @property
    def sites(self) -> np.ndarray:
        """The stored sites in original coordinates, (len(db), n): a view."""
        return self._sites[: self._size]

    @property
    def values(self) -> np.ndarray:
        """The stored objective vectors, (len(db), k): a view."""
        return self._values[: self._size]

    @property
    def expensive_evals(self) -> int:
        """What the budget is charged: the stored rows, if any objective is expensive."""
        return self._size if self.problem.expensive_mask.any() else 0

    @property
    def eval_counts(self) -> np.ndarray:
        """Evaluations of each objective that count: len(db) if it is expensive, else 0."""
        return np.where(self.problem.expensive_mask, self._size, 0)

    @property
    def _scaled(self) -> np.ndarray:
        return self._buffer[: self._size]

    def _settle(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each row of a batch Z of finite scaled sites takes its values: (src, fresh).

        Row i, in order, reads buffer row src[i]: the smallest stored row it
        matches (max|z_row - z| <= CACHE_TOL), else that of the first earlier
        fresh row it matches, else row len(self) + j as the j-th fresh row.
        A prefix of Z settles as a prefix of (src, fresh); nothing is stored.

        The lookup window of z holds every row that matches z. A match has
        |w.z_row - w.z| <= slack = |w|_1 CACHE_TOL (times 1 + eps for the
        rounded difference), and each computed key lies within gamma w.|z_*|
        of its exact value (gamma = (n + 2) eps bounds the error of an n-term
        dot product in any order), where w.|z_row| <= w.|z| + slack. Twice
        that sum covers the rounding of the radius and of the window ends. A
        window that overflows takes every row; a key that overflows sorts
        outside every finite window, and a row that matches its row has an
        overflowing window.
        """
        size, stored_keys, stored_rows = self._size, self._keys, self._rows
        keys = Z @ self._weights
        radius = np.abs(Z) @ self._spread + self._floor
        lo, hi = keys - radius, keys + radius
        windows = zip(keys.tolist(), lo.tolist(), hi.tolist(), (~np.isfinite(hi - lo)).tolist())
        src, fresh = [], []
        fresh_keys, fresh_rows = [], []  # sorted like _keys: the fresh rows so far
        for i, (key, a, b, wide) in enumerate(windows):
            if wide:
                stored, earlier = range(size), fresh
            else:
                stored = _window(stored_keys, stored_rows, a, b)
                earlier = _window(fresh_keys, fresh_rows, a, b)
            row = _first_match(self._buffer, stored, Z[i]) if stored else -1
            if row < 0 and earlier:
                j = _first_match(Z, earlier, Z[i])
                row = src[j] if j >= 0 else -1
            if row < 0:
                row = size + len(fresh)
                _insert(fresh_keys, fresh_rows, key, i)
                fresh.append(i)
            src.append(row)
        return np.array(src, dtype=np.intp), np.array(fresh, dtype=np.intp)

    def _append(self, X: np.ndarray, Z: np.ndarray, F: np.ndarray) -> None:
        """Store the sites X, their scaled copies Z and their values F."""
        size, m = self._size, len(X)
        if size + m > len(self._buffer):
            cap = max(2 * len(self._buffer), size + m)
            self._sites = _grown(self._sites, size, cap)
            self._buffer = _grown(self._buffer, size, cap)
            self._values = _grown(self._values, size, cap)
        self._sites[size : size + m] = X
        self._buffer[size : size + m] = Z
        self._values[size : size + m] = F
        for row, key in enumerate((Z @ self._weights).tolist(), size):
            _insert(self._keys, self._rows, key, row)
        self._size = size + m

    def evaluate(self, x) -> np.ndarray:
        """f at one site (n,) -> (k,), or at every row of a batch (m, n) -> (m, k).

        A batch reads its rows in order, each as a read of that row alone
        would. A row within CACHE_TOL of a stored site, or of an earlier row
        of the batch, takes that site's values; any other row must be finite
        and feasible (else InfeasiblePoint), is charged once to the expensive
        budget (else BudgetExhausted) and must get finite values (else
        ObjectiveFailure). The first row that fails raises, after every row
        before it is stored. The rows to store are evaluated together, one
        call per objective; an objective that raises stores none of them.
        The result is a new array.
        """
        x = np.asarray(x, dtype=float)
        n = self.problem.n_vars
        if x.ndim not in (1, 2) or x.shape[-1] != n:
            raise DimensionMismatch(f"expected length {n}")
        X = x[None] if x.ndim == 1 else x
        fs, stop = self.problem.feasible, None
        finite = np.isfinite(X).all(axis=1)
        ok = finite & ((X >= fs.lower) & (X <= fs.upper)).all(axis=1)
        if not ok.all():
            b = int(np.argmin(ok))
            why = "violates the hard constraints" if finite[b] else "is not finite"
            stop = InfeasiblePoint(f"site {X[b]!r} {why}")
            X = X[:b]
        Z = self.problem.scale(X)
        src, fresh = self._settle(Z)
        if len(fresh) and self.max_expensive is not None and self.problem.expensive_mask.any():
            room = max(self.max_expensive - self.expensive_evals, 0)
            if len(fresh) > room:
                stop = BudgetExhausted(f"expensive budget {self.max_expensive} would be exceeded")
                src, fresh = src[: fresh[room]], fresh[:room]
        if len(fresh):
            F = self.problem.evaluate_raw(X[fresh])
            finite = np.isfinite(F).all(axis=1)
            good = len(fresh) if finite.all() else int(np.argmin(finite))
            self._append(X[fresh[:good]], Z[fresh[:good]], F[:good])
            if good < len(fresh):
                bad = X[fresh[good]]
                raise ObjectiveFailure(f"objective returned non-finite value at {bad!r}", site=bad)
        if stop is not None:
            raise stop
        out = self._values[src]
        return out[0] if x.ndim == 1 else out

    def evaluate_scaled(self, z) -> np.ndarray:
        """evaluate at a site, or at every row of a batch, given in scaled coordinates."""
        return self.evaluate(self.problem.unscale(np.asarray(z, dtype=float)))

    def query_ball(self, center, radius: float) -> np.ndarray:
        """The (m, n) stored sites with scaled inf-distance <= radius, closest first.

        Ties break by insertion index, so the order is deterministic. Sites
        are in scaled coordinates (the optimizer's working frame), as a new array.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        scaled = self._scaled
        dist = np.max(np.abs(scaled - np.asarray(center, dtype=float)), axis=1)
        inside = np.flatnonzero(dist <= radius)
        return scaled[inside[np.argsort(dist[inside], kind="stable")]]

    def to_csv(self, path) -> None:
        """Dump sites (original coordinates) and values: x_1..x_n, f_1..f_k."""
        n, k = self.problem.n_vars, self.problem.n_objs
        header = [f"x_{i + 1}" for i in range(n)] + [f"f_{j + 1}" for j in range(k)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for site, vals in zip(self.sites, self.values):
                writer.writerow([repr(float(v)) for v in site] + [repr(float(v)) for v in vals])


def _insert(keys: list, rows: list, key: float, row: int) -> None:
    """Insert key into the sorted list keys (NaN as +inf) and row into rows, at one place."""
    key = np.inf if key != key else key
    at = bisect_right(keys, key)
    keys.insert(at, key)
    rows.insert(at, row)


def _window(keys: list, rows: list, lo: float, hi: float) -> list:
    """The rows whose keys (sorted) lie in [lo, hi], in ascending order."""
    first = bisect_left(keys, lo)
    if first == len(keys) or keys[first] > hi:
        return []
    return sorted(rows[first : bisect_right(keys, hi, first)])


def _first_match(Z: np.ndarray, rows, z: np.ndarray) -> int:
    """The first of rows whose row of Z matches z (max|Z[row] - z| <= CACHE_TOL), or -1."""
    for row in rows:
        if np.abs(Z[row] - z).max() <= CACHE_TOL:
            return row
    return -1


def _grown(buffer: np.ndarray, size: int, cap: int) -> np.ndarray:
    """A buffer of cap rows whose first size rows are those of buffer."""
    out = np.empty((cap, buffer.shape[1]))
    out[:size] = buffer[:size]
    return out
