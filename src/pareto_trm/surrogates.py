"""Fully linear surrogate bundles: RBF, Lagrange, FD-Taylor and exact wrappers.

Builders work in the optimizer's scaled coordinates. Interpolation systems are
assembled in trust-region-local coordinates t = (u - center) / (THETA1 * Delta)
so conditioning does not degrade as the radius shrinks; shape parameters are
rescaled accordingly so the model in u-space is unchanged.

Every model is fully linear as built: an affinely independent point set
(pivot threshold) inside the THETA1-enlarged region for RBF, the box-fitted
finite-difference stencil for quadratic Lagrange models, a Lambda-poised set
for linear ones (|l_i| is bounded exactly at box vertices; a repair that hits
its swap cap raises PoisednessRepairStalled), and FD-Taylor and exact wrappers
by definition. The O(Delta^2)/O(Delta) error decay this buys is checked
empirically in the test suite.

These certificates rest on the geometry of the sites alone, so one site set
serves every expensive objective, and the bundle of one trust region owns it:
a builder selects the sites once, reads each from the database once (all k
expensive values of the site), fits the k models from one system with k
right-hand sides and returns (sites, models). A model keeps only the state
its values, gradients and curvature bound read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateGeometry,
    PoisednessRepairStalled,
    SingularMatrix,
)
from .linalg import axis_differences, halton, solve_linear
from .problem import EvaluationDatabase, FeasibleSet, MOProblem, region_box

PIVOT_THRESHOLD = 1e-4
TAYLOR_FD_STEP = 1e-2  # FD-Taylor difference step, relative to the radius
THETA1 = 2.0  # sites are selected in B(center; THETA1 * radius)
THETA2 = 5.0  # RBF extra sites come from B(center; THETA2 * delta_ub)
LAMBDA_POISED = 1.5  # degree-1 Lagrange bound on every |l_i| over the region
SHAPE_ALPHA = 1.0  # fixed RBF shape parameter; the cubic kernel ignores it
C_ALPHA, ALPHA_LO, ALPHA_HI = 20.0, 1e-2, 1e3  # adaptive shape c / radius, clamped
KERNELS = ("cubic", "multiquadric", "gaussian")
KINDS = ("taylor-fd1", "lagrange", "rbf")


@dataclass(frozen=True)
class ModelSpec:
    """How to build the surrogate of every expensive objective."""

    kind: str = "rbf"
    degree: int = 1  # lagrange only
    kernel: str = "cubic"  # rbf only, always with a linear polynomial tail
    shape_mode: str = "fixed"  # rbf: fixed | adaptive

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "lagrange" and self.degree not in (1, 2):
            raise ValueError("lagrange degree must be 1 or 2")
        if self.kind == "rbf":
            if self.kernel not in KERNELS:
                raise ValueError(f"unknown kernel {self.kernel!r}")
            if self.shape_mode not in ("fixed", "adaptive"):
                raise ValueError("shape_mode must be 'fixed' or 'adaptive'")


MODEL_SPECS = {
    "rbf-cubic": ModelSpec(kind="rbf", kernel="cubic"),
    "rbf-multiquadric": ModelSpec(kind="rbf", kernel="multiquadric"),
    "rbf-gaussian": ModelSpec(kind="rbf", kernel="gaussian"),
    "rbf-multiquadric-adaptive": ModelSpec(kind="rbf", kernel="multiquadric", shape_mode="adaptive"),
    "rbf-gaussian-adaptive": ModelSpec(kind="rbf", kernel="gaussian", shape_mode="adaptive"),
    "lagrange-1": ModelSpec(kind="lagrange", degree=1),
    "lagrange-2": ModelSpec(kind="lagrange", degree=2),
    "taylor-fd1": ModelSpec(kind="taylor-fd1"),
}


def adaptive_shape(radius: float) -> float:
    """Shape parameter C_ALPHA / radius, clamped to [ALPHA_LO, ALPHA_HI]."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return float(min(max(C_ALPHA / radius, ALPHA_LO), ALPHA_HI))


def kernel_value(kernel: str, r, alpha: float = 1.0):
    """phi(r) for the supported radial functions."""
    r = np.asarray(r, dtype=float)
    if kernel == "cubic":
        return r**3
    if kernel == "multiquadric":
        return -np.sqrt(1.0 + (alpha * r) ** 2)
    if kernel == "gaussian":
        return np.exp(-((alpha * r) ** 2))
    raise ValueError(f"unknown kernel {kernel!r}")


def _kernel_w(kernel: str, r, alpha: float):
    """phi'(r)/r, finite at r = 0 for all supported kernels."""
    if kernel == "cubic":
        return 3.0 * r
    if kernel == "multiquadric":
        return -(alpha**2) / np.sqrt(1.0 + (alpha * r) ** 2)
    return -2.0 * alpha**2 * np.exp(-((alpha * r) ** 2))


def _kernel_a(kernel: str, r, alpha: float):
    """(phi''(r) - phi'(r)/r) / r^2; cubic needs the r -> 0 guard downstream."""
    if kernel == "cubic":
        return 3.0 / np.maximum(r, 1e-30)
    if kernel == "multiquadric":
        return alpha**4 / (1.0 + (alpha * r) ** 2) ** 1.5
    return 4.0 * alpha**4 * np.exp(-((alpha * r) ** 2))


# Coordinates per innermost evaluator call in ExactCheapModel.hessian_norm_bound.
# A sample point sends 2n stencil rows (2n^2 coordinates) to a gradient
# evaluator; without one, each of those gradients differences 2n value rows,
# so the value evaluator gets 4n^3 coordinates per point. Batching points to
# this many coordinates takes the whole 25-point sample up to n = 18 with a
# gradient evaluator (up to n = 5 without), fewer points beyond, so each
# transient array stays under 128 KiB. Measured at n = 30 and 40 with gradient
# evaluators, 64 KiB batches pay more per-call overhead and 192 KiB ones run
# slower per point.
STENCIL_BATCH = 16384


class ExactCheapModel:
    """Wraps a cheap objective as its own model (gradient evaluator or FD).

    Every evaluation takes a batch of scaled points, unscaled by the
    problem, and makes one call of the problem's evaluator of the objective
    (or of its gradient, carried into scaled coordinates by the problem).
    Without a gradient evaluator, gradients are axis_differences of the
    values (step 1e-7, one-sided at the faces of `prob.unit`). The curvature
    bound takes axis_differences of the gradients (step 1e-5) at a batch of
    sample points at a time.
    """

    def __init__(self, prob: MOProblem, index: int):
        self.prob = prob
        self.index = index

    def values(self, U) -> np.ndarray:
        return self.prob.objective_values(self.index, self.prob.unscale(np.atleast_2d(U)))

    def gradients(self, U) -> np.ndarray:
        prob = self.prob
        if prob.gradients[self.index] is None:
            return axis_differences(self.values, U, 1e-7, prob.unit.lower, prob.unit.upper)
        return prob.unit_gradients(self.index, prob.unscale(np.atleast_2d(U)))

    def hessian_norm_bound(self, lo, hi, seed=0) -> float:
        """1.1 x the largest Frobenius norm of the symmetrized difference Hessian,
        the axis_differences of the gradients over a +-1e-5 stencil clipped into
        the feasible box, at 25 Halton points of [lo, hi]."""
        pts = lo + halton(25, lo.size, offset=17 + seed) * (hi - lo)
        n, unit = lo.size, self.prob.unit
        per_point = 2 * n**2 if self.prob.gradients[self.index] is not None else 4 * n**3
        per_batch = max(1, STENCIL_BATCH // per_point)
        squares = []
        for k in range(0, len(pts), per_batch):
            batch = pts[k : k + per_batch]
            H = axis_differences(self.gradients, batch, 1e-5, unit.lower, unit.upper)
            H = 0.5 * (H + H.transpose(0, 2, 1))
            # h.dot(h) is the square np.linalg.norm takes the root of, without its call overhead
            squares.extend(h.dot(h) for h in H.reshape(len(H), -1))
        return 1.1 * float(np.sqrt(max(squares)))


class PolyModel:
    """Polynomial model c0 + g.t + t.H t / 2 in local coordinates
    t = (u - center)/R; linear when H_local is None.

    `values` and `gradients` are row-independent: each row of the result has
    the bits it has when that row is evaluated alone. The products with g and
    H are einsum loops, not BLAS gemv/gemm, whose blocking depends on the
    batch; box_multistart_minimize relies on this.
    """

    def __init__(
        self,
        center,
        local_scale: float,
        c0: float,
        g_local,
        H_local=None,
    ):
        self.center = np.asarray(center, dtype=float)
        self.R = float(local_scale)
        self.c0 = float(c0)
        self.g_local = np.array(g_local, dtype=float)  # a contiguous copy of a fitted column
        self.H_local = None if H_local is None else np.asarray(H_local, dtype=float)

    def _local(self, U):
        return (np.atleast_2d(np.asarray(U, dtype=float)) - self.center) / self.R

    def values(self, U) -> np.ndarray:
        T = self._local(U)
        out = self.c0 + np.einsum("ij,j->i", T, self.g_local)
        if self.H_local is not None:
            out = out + 0.5 * np.einsum("ij,ij->i", np.einsum("ij,jk->ik", T, self.H_local), T)
        return out

    def gradients(self, U) -> np.ndarray:
        T = self._local(U)
        G = np.tile(self.g_local, (T.shape[0], 1))
        if self.H_local is not None:
            G = G + np.einsum("ij,jk->ik", T, self.H_local)
        return G / self.R

    def hessian_norm_bound(self, lo, hi, seed=0) -> float:
        if self.H_local is None:
            return 0.0
        return float(np.linalg.norm(self.H_local)) / self.R**2


class RBFModel:
    """Radial basis surrogate with polynomial tail, in local coordinates.

    T holds the interpolation sites in local coordinates; alpha_local is the
    shape parameter in those coordinates.

    `values` and `gradients` are row-independent, as for PolyModel: the
    kernel matrix and the tail meet their coefficients in einsum loops, not
    in BLAS gemv.
    """

    def __init__(
        self,
        center,
        local_scale: float,
        local_sites,
        coeffs,
        tail_c0: float,
        tail_g_local,
        kernel: str,
        alpha_local: float,
    ):
        self.center = np.asarray(center, dtype=float)
        self.R = float(local_scale)
        self.T = np.atleast_2d(np.asarray(local_sites, dtype=float))
        self.coeffs = np.array(coeffs, dtype=float)  # a contiguous copy of a fitted column
        self.tail_c0 = float(tail_c0)
        self.tail_g_local = np.asarray(tail_g_local, dtype=float)
        self.kernel = kernel
        self.alpha_local = float(alpha_local)

    def _local(self, U):
        return (np.atleast_2d(np.asarray(U, dtype=float)) - self.center) / self.R

    def _dists(self, T):
        diff = T[:, None, :] - self.T[None, :, :]
        r = np.einsum("mkn,mkn->mk", diff, diff)
        return np.sqrt(r, out=r), diff

    def values(self, U) -> np.ndarray:
        T = self._local(U)
        r, _ = self._dists(T)
        vals = np.einsum("mk,k->m", kernel_value(self.kernel, r, self.alpha_local), self.coeffs)
        return vals + self.tail_c0 + np.einsum("mn,n->m", T, self.tail_g_local)

    def gradients(self, U) -> np.ndarray:
        T = self._local(U)
        r, diff = self._dists(T)
        W = _kernel_w(self.kernel, r, self.alpha_local) * self.coeffs[None, :]
        G = np.einsum("mk,mkn->mn", W, diff) + self.tail_g_local
        return G / self.R

    def hessian_norm_bound(self, lo, hi, seed=0) -> float:
        """1.1 x the largest Frobenius Hessian norm at 100 Halton points of
        [lo, hi] and at the interpolation sites."""
        pts = lo + halton(100, lo.size, offset=29 + seed) * (hi - lo)
        T = np.vstack([self._local(pts), self.T])
        r, diff = self._dists(T)
        w = _kernel_w(self.kernel, r, self.alpha_local)
        a = np.where(r > 1e-14, _kernel_a(self.kernel, r, self.alpha_local), 0.0)
        H = np.einsum("mk,mki,mkj->mij", self.coeffs[None, :] * a, diff, diff)
        trace_part = (self.coeffs[None, :] * w).sum(axis=1)
        H[:, np.arange(T.shape[1]), np.arange(T.shape[1])] += trace_part[:, None]
        norms = np.sqrt(np.einsum("mij,mij->m", H, H)) / self.R**2
        return 1.1 * float(norms.max())


# ---------------------------------------------------------------------------
# polynomial basis helpers


@lru_cache(maxsize=None)
def _triu(n: int):
    return np.triu_indices(n)  # (i, j) pairs with i <= j, row-major


def _basis_eval(T: np.ndarray, degree: int) -> np.ndarray:
    m, n = T.shape
    if degree == 1:
        out = np.empty((m, n + 1))
        out[:, 0] = 1.0
        out[:, 1:] = T
        return out
    iu, ju = _triu(n)
    out = np.empty((m, 1 + n + iu.size))
    out[:, 0] = 1.0
    out[:, 1: n + 1] = T
    out[:, n + 1:] = T[:, iu] * T[:, ju]
    return out


def _coeffs_to_quadratic(a: np.ndarray, n: int):
    c0 = float(a[0])
    g = np.array(a[1: n + 1], dtype=float)
    iu, ju = _triu(n)
    H = np.empty((n, n))
    H[iu, ju] = H[ju, iu] = a[n + 1:]
    H.flat[:: n + 1] *= 2.0  # the basis holds t_i^2, so its coefficient is H_ii / 2
    return c0, g, H


class _LagrangeMachine:
    """Poised-set selection and Lambda-poisedness repair for a linear model.

    Keeps the Lagrange basis as coefficient rows (c, g) over [1, t] in local
    coordinates. A linear polynomial peaks in absolute value at a vertex of
    the region box, so max |l_i| is exact and costs one pass over the rows.
    Every repair swap multiplies the set's volume by more than LAMBDA_POISED,
    which is the finiteness certificate.
    """

    def __init__(self, n, center, local_scale, box_lo, box_hi):
        self.n = n
        self.p = n + 1
        self.center = np.asarray(center, dtype=float)
        self.R = float(local_scale)
        self.lo = np.asarray(box_lo, dtype=float)
        self.hi = np.asarray(box_hi, dtype=float)
        self.L = np.eye(self.p)
        self.sites: list[np.ndarray] = []

    def box_peaks(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """For each row (c, g): the region-box vertex where |c + g.t| peaks, and the peak.

        The maximizing vertex takes hi where g_i > 0, the minimizing one hi
        where g_i < 0; both take lo elsewhere. Coordinates come straight from
        the box, so every returned site lies exactly inside it.
        """
        rows = np.atleast_2d(rows)
        G = rows[:, 1:]
        verts = np.stack([np.where(G > 0, self.hi, self.lo), np.where(G < 0, self.hi, self.lo)])
        vals = np.abs(rows[:, 0] + np.einsum("kmn,mn->km", (verts - self.center) / self.R, G))
        pick = (vals[1] > vals[0]).astype(int)
        idx = np.arange(rows.shape[0])
        return verts[pick, idx], vals[pick, idx]

    def _normalize_and_sweep(self, i, site):
        t = ((np.asarray(site, dtype=float) - self.center) / self.R)[None, :]
        vals = self.L @ _basis_eval(t, 1)[0]  # every row at the site
        self.L[i] /= vals[i]
        mask = np.arange(self.p) != i
        self.L[mask] -= np.outer(vals[mask], self.L[i])

    def select(self, db_sites: Sequence[np.ndarray]):
        """Greedy pivoted site selection; center first, database points preferred."""
        pool = [
            np.asarray(s, dtype=float)
            for s in db_sites
            if np.max(np.abs(np.asarray(s) - self.center)) > 1e-12
        ]
        self.sites = [self.center.copy()]
        self._normalize_and_sweep(0, self.center)
        for i in range(1, self.p):
            site = None
            if pool:
                vals = np.abs(self.lagrange_values(np.vstack(pool))[:, i])
                best = int(np.argmax(vals))
                if vals[best] >= PIVOT_THRESHOLD:
                    site = pool.pop(best)
            if site is None:
                verts, mags = self.box_peaks(self.L[i])
                if mags[0] < PIVOT_THRESHOLD:
                    raise DegenerateGeometry(
                        "cannot complete a poised set inside the region"
                    )
                site = verts[0]
            self.sites.append(site)
            self._normalize_and_sweep(i, site)

    def repair(self, max_swaps: int, db_sites: Optional[Sequence[np.ndarray]] = None) -> None:
        """Maximizer-swap repair until max |l_i| <= Lambda over the region box.

        Each sweep bounds every basis polynomial exactly at its peak vertex and
        swaps out the worst one. Database points are recycled as the swap
        target whenever they also exceed Lambda (the volume still grows by more
        than Lambda per swap), so repair rarely demands fresh expensive
        evaluations along a well-sampled trajectory. Raises
        PoisednessRepairStalled if the set still needs a swap after max_swaps
        of them.
        """
        pool = np.asarray([] if db_sites is None else db_sites, dtype=float).reshape(-1, self.n)
        lam_gate = LAMBDA_POISED * (1.0 + 1e-9)
        swaps = 0
        while True:
            verts, mags = self.box_peaks(self.L)
            worst = int(np.argmax(mags))
            if mags[worst] <= lam_gate:
                return
            if swaps >= max_swaps:
                raise PoisednessRepairStalled(
                    f"Lambda-poisedness repair still failing after {max_swaps} swaps"
                )
            site = verts[worst]
            if pool.size:
                db_vals = np.abs(self.lagrange_values(pool)[:, worst])
                cand = int(np.argmax(db_vals))
                near = np.abs(np.asarray(self.sites) - pool[cand]).max(axis=1) <= 1e-12
                if db_vals[cand] > lam_gate and not near.any():
                    site = pool[cand]
            self.sites[worst] = site
            self._normalize_and_sweep(worst, site)
            swaps += 1

    def lagrange_values(self, U) -> np.ndarray:
        T = (np.atleast_2d(np.asarray(U, dtype=float)) - self.center) / self.R
        return _basis_eval(T, 1) @ self.L.T

    def fit(self, F: np.ndarray) -> list[PolyModel]:
        """One model per column of F, the (p, k) values at the sites."""
        out = []
        for f in F.T.copy():  # contiguous rows: each column gets a single-RHS product
            coeffs = f @ self.L
            out.append(PolyModel(self.center, self.R, coeffs[0], coeffs[1:]))
        return out


def _affine_set(db, center, local_scale, box_lo, box_hi) -> list[np.ndarray]:
    """Affinely independent seed set of n+1 points, database points first.

    Fresh points walk along directions orthogonal to the span so far,
    projected into the region box; the opposite sign is tried before giving up
    on a direction. The chosen points are rows of one (n+1, n) buffer, and a
    candidate within 1e-12 in the max norm of a chosen row is skipped; the
    returned list holds views of those rows.
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    chosen = np.empty((n + 1, n))
    chosen[0] = center
    m = 1  # rows of `chosen` filled
    Q = np.zeros((0, n))

    def residual(v):
        return v - Q.T @ (Q @ v) if Q.shape[0] else v.copy()

    def try_accept(point):
        nonlocal Q, m
        if (np.abs(chosen[:m] - point).max(axis=1) <= 1e-12).any():
            return False
        v = (point - center) / local_scale
        r = residual(v)
        nr = float(np.linalg.norm(r))
        if nr < PIVOT_THRESHOLD:
            return False
        chosen[m] = point
        m += 1
        Q = np.vstack([Q, r / nr])
        return True

    for site in db.query_ball(center, local_scale):
        if m == n + 1:
            break
        try_accept(site)
    while m < n + 1:
        proj = np.eye(n) - Q.T @ Q if Q.shape[0] else np.eye(n)
        norms = np.linalg.norm(proj, axis=0)
        placed = False
        for j in np.argsort(-norms, kind="stable"):
            if norms[j] < 1e-12:
                continue
            q = proj[:, j] / norms[j]
            for sign in (1.0, -1.0):
                point = np.clip(center + sign * local_scale * q, box_lo, box_hi)
                if try_accept(point):
                    placed = True
                    break
            if placed:
                break
        if not placed:
            raise DegenerateGeometry(
                "feasible region collapsed onto a lower-dimensional face"
            )
    return list(chosen)


def _extra_sites(ball: np.ndarray, affine: np.ndarray, max_extra: int) -> np.ndarray:
    """The first max_extra rows of `ball`, in order, that are near no row of
    `affine` and no earlier chosen row; near is within 1e-12 in the max norm.

    A near pair is within 1e-12 in coordinate 0 too, so only the pairs that
    are close there are compared in full: every step takes O(len(ball) n)
    memory, never a (len(ball), len(affine), n) array.
    """
    i, j = np.nonzero(np.abs(ball[:, :1] - affine[:, 0]) <= 1e-12)
    far = np.ones(len(ball), dtype=bool)
    far[i[np.abs(ball[i] - affine[j]).max(axis=1) <= 1e-12]] = False
    rest = ball[far]
    # the rows of `rest` with another row within 1e-12 in coordinate 0
    order = np.argsort(rest[:, 0], kind="stable")
    close = np.diff(rest[order, 0]) <= 1e-12
    paired = np.zeros(len(rest), dtype=bool)
    paired[order[1:][close]] = True
    paired[order[:-1][close]] = True
    keep: list[int] = []
    for r, check in enumerate(paired.tolist()):
        if len(keep) == max_extra:
            break
        if check and (np.abs(rest[keep] - rest[r]).max(axis=1) <= 1e-12).any():
            continue
        keep.append(r)
    return rest[keep]


def _read(db: EvaluationDatabase, sites) -> np.ndarray:
    """(m, k) values of the k expensive objectives at the sites, in one database read."""
    return np.take(db.evaluate_scaled(np.vstack(sites)), db.problem.expensive_indices, axis=1)


def build_rbf(
    db: EvaluationDatabase,
    spec: ModelSpec,
    center,
    radius: float,
    delta_ub: float,
    fs: FeasibleSet,
) -> tuple[np.ndarray, list[RBFModel]]:
    """Select sites and solve the saddle interpolation system; returns the
    (m, n) sites and one model per expensive objective.

    The sites are the affine set (`_affine_set`), then up to total_cap - (n+1)
    extras: the database's sites in B(center; THETA2 * delta_ub), closest
    first, that lie within 1e-12 in the max norm of no affine site and no
    earlier extra (`_extra_sites`). If the extras make the saddle system
    singular, the models are fitted on the affine sites alone."""
    center = np.asarray(center, dtype=float)
    n = center.size
    R1 = THETA1 * radius
    lo1, hi1 = region_box(center, R1, fs)
    sites = _affine_set(db, center, R1, lo1, hi1)

    total_cap = (n + 1) * (n + 2) // 2 if n <= 10 else 2 * n + 1
    max_extra = max(0, total_cap - (n + 1))
    affine = np.vstack(sites)
    extras = _extra_sites(db.query_ball(center, THETA2 * delta_ub), affine, max_extra)

    alpha_user = adaptive_shape(radius) if spec.shape_mode == "adaptive" else SHAPE_ALPHA
    alpha_local = alpha_user * R1
    candidates = np.vstack([affine, extras])
    F = _read(db, candidates)

    def solve(N):
        """Fit on the first N candidates: the sites, their local coordinates
        and the (N + n + 1, k) solution."""
        S = candidates[:N]
        T = (S - center) / R1
        r = np.sqrt(np.sum((T[:, None, :] - T[None, :, :]) ** 2, axis=2))
        Phi = kernel_value(spec.kernel, r, alpha_local)
        p = n + 1
        P = np.ones((p, N))
        P[1:, :] = T.T
        M = np.zeros((N + p, N + p))
        M[:N, :N] = Phi
        M[:N, N:] = P.T
        M[N:, :N] = P
        rhs = np.vstack([F[:N], np.zeros((p, F.shape[1]))])
        return S, T, solve_linear(M, rhs)

    try:
        N = len(candidates)
        S, T, sol = solve(N)
    except SingularMatrix:
        N = len(sites)  # extras made the system degenerate
        S, T, sol = solve(N)
    return S, [
        RBFModel(center, R1, T, a[:N], float(a[N]), a[N + 1:], spec.kernel, alpha_local)
        for a in sol.T
    ]


_STENCIL_MIN_OFFSET = 1e-8


def _stencil_sites(center, local_scale, lo, hi):
    """Canonical {0, +e_i, -e_i, e_i + e_j} quadratic design fitted to the box."""
    center = np.asarray(center, dtype=float)
    n = center.size
    up = np.minimum(local_scale, hi - center)
    dn = np.minimum(local_scale, center - lo)
    first = np.empty(n)
    second = np.empty(n)
    for i in range(n):
        if up[i] >= _STENCIL_MIN_OFFSET and dn[i] >= _STENCIL_MIN_OFFSET:
            first[i], second[i] = up[i], -dn[i]
        elif up[i] >= _STENCIL_MIN_OFFSET:
            first[i], second[i] = up[i], up[i] / 2.0
        elif dn[i] >= _STENCIL_MIN_OFFSET:
            first[i], second[i] = -dn[i], -dn[i] / 2.0
        else:
            raise DegenerateGeometry("region box is flat along a coordinate")
    sites = [center.copy()]
    for i in range(n):
        for off in (first[i], second[i]):
            pt = center.copy()
            pt[i] += off
            sites.append(pt)
    major = np.where(np.abs(first) >= np.abs(second), first, second)
    for i in range(n):
        for j in range(i + 1, n):
            pt = center.copy()
            pt[i] += major[i]
            pt[j] += major[j]
            sites.append(pt)
    return sites


def build_lagrange(
    db: EvaluationDatabase,
    spec: ModelSpec,
    center,
    radius: float,
    fs: FeasibleSet,
) -> tuple[np.ndarray, list[PolyModel]]:
    """Lagrange interpolation models of every expensive objective on the
    THETA1-enlarged region, with the (m, n) sites they interpolate.

    Degree 2 interpolates on the finite-difference stencil fitted into the
    region box. Degree 1 selects a poised set greedily, database points
    first, and repairs it until every basis polynomial is bounded by Lambda
    over the region box, with a 10p swap cap past which the build raises
    PoisednessRepairStalled.
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    R1 = THETA1 * radius
    lo1, hi1 = region_box(center, R1, fs)

    if spec.degree == 2:
        sites = np.vstack(_stencil_sites(center, R1, lo1, hi1))
        coeffs = solve_linear(_basis_eval((sites - center) / R1, 2), _read(db, sites))
        return sites, [PolyModel(center, R1, *_coeffs_to_quadratic(a, n)) for a in coeffs.T]

    machine = _LagrangeMachine(n, center, R1, lo1, hi1)
    region_sites = db.query_ball(center, R1)
    machine.select(region_sites)
    machine.repair(10 * machine.p, db_sites=region_sites)
    sites = np.vstack(machine.sites)
    return sites, machine.fit(_read(db, sites))


def build_taylor_fd(
    db: EvaluationDatabase,
    center,
    radius: float,
    fs: FeasibleSet,
) -> tuple[np.ndarray, list[PolyModel]]:
    """Linear Taylor models of every expensive objective from central
    differences, one-sided at box faces; returns the (m, n) stencil sites,
    center first, and the models."""
    center = np.asarray(center, dtype=float)
    h = TAYLOR_FD_STEP * max(radius, 1e-8)
    exp = db.problem.expensive_indices
    sites = [center]

    def read(P):
        sites.append(P)
        return np.take(db.evaluate_scaled(P), exp, axis=1)

    f0 = db.evaluate_scaled(center)[exp]
    G = axis_differences(read, center, h, fs.lower, fs.upper, f0=f0[None])[0]
    return np.vstack(sites), [PolyModel(center, 1.0, c0, g) for c0, g in zip(f0, G.T)]


@dataclass
class SurrogateBundle:
    """k model functions valid on one trust region, plus certificates.

    `training_sites` is the one (m, n) site set, as its builder returned it,
    that every expensive model is fitted on (empty when every objective is
    cheap); `new_sites` counts the evaluations the build added to the
    database. The curvature bound H enters only the sufficient-decrease
    certificate of a step, so it is computed on the first read of
    `hessian_bound` and cached. A step reads it only when the certificate
    fails at `curvature_floor(k)`, which H never undercuts: the rhs cannot
    grow with H, so a step that floor certifies is certified by H. Bundles
    that never reach such a step never pay for it. `fs` is the scaled
    feasible set and `seed` shifts the bound's Halton sample.
    """

    models: list
    center: np.ndarray
    radius: float
    training_sites: np.ndarray
    new_sites: int
    fs: FeasibleSet
    seed: int = 0
    fully_linear = True  # every model is certified when built; the bench tracer reads this

    @property
    def k(self) -> int:
        return len(self.models)

    @cached_property
    def hessian_bound(self) -> float:
        # the module-level function, looked up at call time so it can be wrapped
        return hessian_bound(self.models, self.center, self.radius, self.fs, c=self.k, seed=self.seed)

    def values(self, u) -> np.ndarray:
        """The k model values at one point (n,) -> (k,), or at every row of a
        batch (m, n) -> (m, k), as `EvaluationDatabase.evaluate` maps them.
        Every model is row-independent, so a point's values have the bits of
        its row in any batch."""
        u = np.asarray(u, dtype=float)
        V = np.empty((len(u) if u.ndim == 2 else 1, len(self.models)))
        for l, model in enumerate(self.models):
            V[:, l] = model.values(u)
        return V if u.ndim == 2 else V[0]

    def gradients(self, u) -> np.ndarray:
        return np.vstack([m.gradients(u)[0] for m in self.models])


def curvature_floor(c: float) -> float:
    """The least value `hessian_bound` returns for c objectives: positive, and
    large enough that c * H > 1 always holds."""
    return max(1e-8, 1.01 / c)


def hessian_bound(models, center, radius, fs: FeasibleSet, c: float, seed: int = 0) -> float:
    """Max sampled/exact Frobenius Hessian norm over the region, never below
    curvature_floor(c)."""
    lo, hi = region_box(center, radius, fs)
    worst = curvature_floor(c)
    for model in models:
        worst = max(worst, model.hessian_norm_bound(lo, hi, seed))
    return float(worst)


def build_bundle(
    prob: MOProblem,
    db: EvaluationDatabase,
    spec: Optional[ModelSpec],
    center,
    radius: float,
    delta_ub: float,
    seed: int = 0,
) -> SurrogateBundle:
    """Construct the per-objective surrogates on B(center; radius).

    Cheap objectives are wrapped exactly. The expensive ones share one site
    set: one builder call selects it, reads every site once and fits all of
    them from the one ModelSpec, which is None only when no objective is
    expensive. Expensive evaluations stay inside X intersect the
    THETA2-enlarged region and are all routed through the database.
    """
    center = np.asarray(center, dtype=float)
    fs = prob.unit
    before = len(db)
    # the module-level builders, looked up at call time so they can be wrapped
    if not prob.expensive_mask.any():
        sites, fitted = np.empty((0, prob.n_vars)), []
    elif spec.kind == "rbf":
        sites, fitted = build_rbf(db, spec, center, radius, delta_ub, fs)
    elif spec.kind == "lagrange":
        sites, fitted = build_lagrange(db, spec, center, radius, fs)
    else:
        sites, fitted = build_taylor_fd(db, center, radius, fs)
    expensive = iter(fitted)
    models = [
        next(expensive) if prob.expensive_mask[idx] else ExactCheapModel(prob, idx)
        for idx in range(prob.n_objs)
    ]
    return SurrogateBundle(
        models=models,
        center=center,
        radius=radius,
        training_sites=sites,
        new_sites=len(db) - before,
        fs=fs,
        seed=seed,
    )
