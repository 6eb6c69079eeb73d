"""Heterogeneous multiobjective problems, box feasible sets and the evaluation database.

All optimizer-internal geometry lives in scaled coordinates: box-constrained
problems are mapped onto the unit hypercube [0,1]^n, unconstrained problems are
left untouched (identity map). The database stores sites in the problem's
original coordinates and dedupes / searches in scaled coordinates.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExhausted,
    DimensionMismatch,
    InfeasiblePoint,
    ObjectiveFailure,
)

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

    def width(self) -> Optional[np.ndarray]:
        return None if not self.is_box else self.upper - self.lower

    def contains(self, x: np.ndarray) -> bool:
        if not self.is_box:
            return True
        return bool((x >= self.lower).all() and (x <= self.upper).all())

    def scaled(self) -> "FeasibleSet":
        """The set the optimizer works in: [0,1]^n for boxes, self otherwise."""
        if not self.is_box:
            return self
        n = self.lower.size
        return FeasibleSet.box(np.zeros(n), np.ones(n))


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


def scale_to_unit(x, fs: FeasibleSet) -> np.ndarray:
    """Map a feasible point, or each row of a batch, into [0,1]^n (identity for
    unconstrained sets)."""
    x = _check_dim(x, fs)
    if not fs.is_box:
        return x.copy()
    return (x - fs.lower) / (fs.upper - fs.lower)


def unscale_from_unit(z, fs: FeasibleSet) -> np.ndarray:
    """Inverse of :func:`scale_to_unit`."""
    z = _check_dim(z, fs)
    if not fs.is_box:
        return z.copy()
    return fs.lower + z * (fs.upper - fs.lower)


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
    """

    n_vars: int
    n_objs: int
    objectives: Sequence[Callable[[np.ndarray], np.ndarray]]
    expensive_mask: np.ndarray
    feasible: FeasibleSet
    gradients: Optional[Sequence[Optional[Callable[[np.ndarray], np.ndarray]]]] = None
    name: str = ""

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

    @property
    def expensive_indices(self) -> np.ndarray:
        return np.flatnonzero(self.expensive_mask)

    def scale(self, x) -> np.ndarray:
        return scale_to_unit(x, self.feasible)

    def unscale(self, z) -> np.ndarray:
        return unscale_from_unit(z, self.feasible)

    def objective_values(self, index: int, X: np.ndarray) -> np.ndarray:
        """objectives[index] at the rows of the (m, n) array X: (m,) floats."""
        return self._call(self.objectives[index], index, X, X.shape[:1])

    def objective_gradients(self, index: int, X: np.ndarray) -> np.ndarray:
        """gradients[index] at the rows of the (m, n) array X: (m, n) floats."""
        return self._call(self.gradients[index], index, X, X.shape)

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
    """Append-only store of evaluated sites and objective vectors.

    Single writer; read-only queries may run concurrently. Sites are kept in
    original coordinates with a parallel scaled copy used for cache hits and
    ball queries. The scaled copy lives in a capacity-doubling buffer, and
    cache lookups bisect a sorted index of the keys w.z instead of scanning
    every row. A read reserves the buffer rows and keys of the sites it will
    store before it evaluates them, so later rows of the same batch find them.
    """

    def __init__(self, problem: MOProblem, max_expensive: Optional[int] = None):
        self.problem = problem
        self.max_expensive = max_expensive
        self.sites: list[np.ndarray] = []
        self.values: list[np.ndarray] = []
        self.eval_counts = np.zeros(problem.n_objs, dtype=int)
        n = problem.n_vars
        self._buffer = np.empty((8, n))
        self._size = 0  # buffer rows in use: the stored sites, then reserved ones
        # distinct weights in [1, 2) (a Weyl sequence), so sites that differ in
        # one coordinate, like a finite-difference stencil, get distinct keys
        self._weights = 1.0 + np.modf(np.arange(1, n + 1) * (math.sqrt(5.0) - 1.0) / 2.0)[0]
        self._slack = (1.0 + np.finfo(float).eps) * float(self._weights.sum()) * CACHE_TOL
        self._gamma = (n + 2) * np.finfo(float).eps
        self._keys: list[float] = []  # ascending
        self._rows: list[int] = []  # the row of each key

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def expensive_evals(self) -> int:
        """What the budget is charged: the most evaluations of any expensive objective."""
        exp = self.problem.expensive_mask
        return int(self.eval_counts[exp].max()) if exp.any() else 0

    @property
    def _scaled(self) -> np.ndarray:
        return self._buffer[: len(self.sites)]

    def _find(self, z: np.ndarray) -> Optional[int]:
        """Smallest buffer row with max|z_row - z| <= CACHE_TOL, or None.

        A match has |w.z_row - w.z| <= slack = |w|_1 CACHE_TOL (times 1 + eps
        for the rounded difference), and each computed key lies within
        gamma w.|z_*| of its exact value (gamma = (n + 2) eps bounds the error
        of an n-term dot product in any order), where w.|z_row| <= w.|z| +
        slack. Twice that sum covers the rounding of the radius and of the
        window ends, so the window holds every row the linear scan matches.
        """
        key = float(self._weights @ z)
        radius = 2.0 * (
            self._slack + self._gamma * (2.0 * float(self._weights @ np.abs(z)) + self._slack)
        )
        lo, hi = key - radius, key + radius
        if math.isfinite(lo) and math.isfinite(hi):
            rows = sorted(self._rows[bisect_left(self._keys, lo) : bisect_right(self._keys, hi)])
        else:  # overflow: only a full scan is sure to see every match
            rows = range(self._size)
        for i in rows:
            if np.abs(self._buffer[i] - z).max() <= CACHE_TOL:
                return i
        return None

    def _reserve(self, z: np.ndarray) -> int:
        """Put z in the next buffer row and its key in the index; returns the row."""
        m = self._size
        if m == self._buffer.shape[0]:
            grown = np.empty((2 * m, z.size))
            grown[:m] = self._buffer
            self._buffer = grown
        self._buffer[m] = z
        key = float(self._weights @ z)
        # a key that overflows stays out of the index: any site that matches
        # it overflows the query window too, and that query scans every row
        if math.isfinite(key):
            pos = bisect_right(self._keys, key)
            self._keys.insert(pos, key)
            self._rows.insert(pos, m)
        self._size = m + 1
        return m

    def _release(self, size: int) -> None:
        """Give back the reserved rows from `size` on, with their keys."""
        kept = [(key, row) for key, row in zip(self._keys, self._rows) if row < size]
        self._keys = [key for key, _ in kept]
        self._rows = [row for _, row in kept]
        self._size = size

    def _store(self, x: np.ndarray, vals: np.ndarray) -> None:
        """Store the first reserved row that holds no values yet: site x, values vals."""
        self.eval_counts[self.problem.expensive_mask] += 1
        self.values.append(vals)
        # last: a concurrent reader sees the row once its value and buffer row exist
        self.sites.append(x.copy())

    def _insert(self, x: np.ndarray, z: np.ndarray, vals: np.ndarray) -> None:
        self._reserve(z)
        self._store(x, vals)

    def _feasible_prefix(self, X: np.ndarray) -> tuple[np.ndarray, Optional[InfeasiblePoint]]:
        """The scaled rows of X before its first non-finite or infeasible row,
        and the InfeasiblePoint that row raises (None when every row passes)."""
        fs = self.problem.feasible
        finite = np.isfinite(X).all(axis=1)
        ok = finite & ((X >= fs.lower) & (X <= fs.upper)).all(axis=1)
        if ok.all():
            return self.problem.scale(X), None
        b = int(np.argmin(ok))
        why = "violates the hard constraints" if finite[b] else "is not finite"
        return self.problem.scale(X[:b]), InfeasiblePoint(f"site {X[b]!r} {why}")

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
        """
        x = np.asarray(x, dtype=float)
        n = self.problem.n_vars
        if x.ndim not in (1, 2) or x.shape[-1] != n:
            raise DimensionMismatch(f"expected length {n}")
        X = np.atleast_2d(x)
        Z, stop = self._feasible_prefix(X)
        room = len(X)
        if self.max_expensive is not None and self.problem.expensive_mask.any():
            room = self.max_expensive - self.expensive_evals
        first = self._size
        src: list[int] = []  # the buffer row each read row takes its values from
        fresh: list[int] = []  # the rows to evaluate and store, in order
        for i, z in enumerate(Z):
            row = self._find(z)
            if row is None:
                if len(fresh) >= room:
                    stop = BudgetExhausted(
                        f"expensive budget {self.max_expensive} would be exceeded"
                    )
                    break
                row = self._reserve(z)
                fresh.append(i)
            src.append(row)
        if fresh:
            try:
                F = self.problem.evaluate_raw(X[fresh])
            except BaseException:
                self._release(first)
                raise
            finite = np.isfinite(F).all(axis=1)
            good = len(fresh) if finite.all() else int(np.argmin(finite))
            for i, vals in zip(fresh[:good], F):
                self._store(X[i], vals)
            if good < len(fresh):
                self._release(first + good)
                bad = X[fresh[good]]
                raise ObjectiveFailure(f"objective returned non-finite value at {bad!r}", site=bad)
        if stop is not None:
            raise stop
        if x.ndim == 1:
            return self.values[src[0]].copy()
        return np.array([self.values[row] for row in src]).reshape(len(src), self.problem.n_objs)

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

    @classmethod
    def from_csv(cls, path, problem: MOProblem) -> "EvaluationDatabase":
        """Rebuild a database from a CSV dump; values are checked, not re-evaluated.

        A site may appear once: a row whose site matches an earlier row within
        CACHE_TOL raises ObjectiveFailure naming both rows.
        """
        db = cls(problem)
        loaded = []
        n, k = problem.n_vars, problem.n_objs
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if len(header) != n + k:
                raise DimensionMismatch("CSV column count does not match the problem")
            for row in reader:
                if len(row) != n + k:
                    raise DimensionMismatch(f"CSV row {row!r} has {len(row)} fields, need {n + k}")
                try:
                    site = np.array([float(v) for v in row[:n]])
                except ValueError:
                    raise InfeasiblePoint(f"CSV row {row!r} has a non-numeric site field") from None
                try:
                    vals = np.array([float(v) for v in row[n:]])
                except ValueError:
                    raise ObjectiveFailure(
                        f"CSV row {row!r} has a non-numeric value field", site=site
                    ) from None
                if not np.all(np.isfinite(vals)):
                    raise ObjectiveFailure(f"CSV values at {site!r} are not finite", site=site)
                Z, infeasible = db._feasible_prefix(site[None])
                if infeasible is not None:
                    raise infeasible
                z = Z[0]
                dup = db._find(z)
                if dup is not None:
                    raise ObjectiveFailure(
                        f"CSV row {row!r} repeats the site of row {loaded[dup]!r}", site=site
                    )
                loaded.append(row)
                db._insert(site, z, vals)
        return db

