"""Trial-step computation inside the trust region.

All variants return a StepResult whose certificate pair (lhs, rhs) witnesses
the sufficient decrease in standard form:

    Phi_m(x) - Phi_m(x + s) >= kappa * w~ * min(w~ / (c H), Delta),

with kappa = min(2 b (1 - a), a), w~ the clamped model criticality, c the
number of objectives (inf-norm choice) and H the bundle's Hessian bound.
The rhs is first evaluated at curvature_floor(c), the least value H takes,
and H is computed only when lhs falls below that: the rhs is non-increasing
in H under IEEE rounding (c H, w~ / (c H), the min and the product are each
monotone), so a step the floor certifies is certified by H too, and every
decision that reads the pair (the driver's sufficient-decrease check, the
Pascoletti-Serafini fallback) comes out as it would with H. The
Pascoletti-Serafini step falls back to the strict Pareto-Cauchy step when
its subsolver does not reach that bound, so the certificate holds regardless
of subsolver quality.

compute_step decides every zero step: at a model-critical center (w~ = 0)
before any method runs, and when Armijo backtracking runs out, as a value
whose `failure` says why. Methods run only at w~ > 0, where the LP
direction d is nonzero: d = 0 gives the LP a zero right-hand side, so beta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criticality import CriticalityResult
from .linalg import box_multistart_minimize
from .problem import FeasibleSet, project_to_box, region_box
from .surrogates import SurrogateBundle, curvature_floor

MAX_BACKTRACKS = 30  # Armijo halvings before the zero step
GRID_POINTS = 64  # exact-pc ray grid before the golden-section refine


@dataclass(frozen=True)
class StepConfig:
    method: str = "strict-pc"
    armijo_a: float = 0.1
    armijo_b: float = 0.5

    def __post_init__(self):
        if self.method not in STEP_METHODS:
            raise ValueError(f"unknown step method {self.method!r}")
        if not (0.0 < self.armijo_a < 1.0 and 0.0 < self.armijo_b < 1.0):
            raise ValueError("Armijo constants must be strictly inside (0, 1)")


@dataclass
class StepResult:
    step: np.ndarray
    trial: np.ndarray
    certificate_lhs: float  # Phi_m(x) - Phi_m(x + s), the model decrease
    # an upper bound of the standard-form rhs, equal to it whenever H was read:
    # the rhs at the curvature floor when that already certifies the step
    certificate_rhs: float
    backtracks: int = 0
    r_ratio: Optional[float] = None
    fallback: bool = False
    # the model values at the center and the trial; the zero step has none
    m_center: Optional[np.ndarray] = None
    m_trial: Optional[np.ndarray] = None
    # why a method took the zero step (backtracking ran out); None otherwise
    failure: Optional[str] = None

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.step == 0.0))


def sufficient_decrease_kappa(a: float, b: float) -> float:
    return min(2.0 * b * (1.0 - a), a)


def certificate_rhs(crit: CriticalityResult, c: int, H: float, radius: float, cfg: StepConfig) -> float:
    """The standard-form rhs for c objectives and the curvature bound H."""
    kappa = sufficient_decrease_kappa(cfg.armijo_a, cfg.armijo_b)
    wt = crit.omega_clamped
    return kappa * wt * min(wt / (c * H), radius)


def _certified(bundle, center, trial, m_center, m_trial, crit, radius, cfg, **extra) -> StepResult:
    """The step from center to trial, with its certificate (lhs, rhs): the
    model decrease Phi_m(center) - Phi_m(trial) and the standard-form bound,
    at the curvature floor unless that fails to certify the step."""
    lhs = float(np.max(m_center) - np.max(m_trial))
    rhs = certificate_rhs(crit, bundle.k, curvature_floor(bundle.k), radius, cfg)
    if lhs < rhs:
        rhs = certificate_rhs(crit, bundle.k, bundle.hessian_bound, radius, cfg)
    return StepResult(
        step=trial - center,
        trial=trial,
        certificate_lhs=lhs,
        certificate_rhs=rhs,
        m_center=m_center,
        m_trial=m_trial,
        **extra,
    )


def zero_step(center, failure: Optional[str] = None) -> StepResult:
    """No move: the trial is the center, certified by (0, 0)."""
    center = np.asarray(center, dtype=float)
    return StepResult(
        step=np.zeros_like(center), trial=center.copy(), certificate_lhs=0.0,
        certificate_rhs=0.0, failure=failure,
    )


def bar_sigma(d, radius: float) -> float:
    """Step-length cap along d: min(Delta, |d|) in the short/small regime, else Delta."""
    nd = float(np.max(np.abs(np.asarray(d, dtype=float))))
    if nd < 1.0 or radius <= 1.0:
        return min(radius, nd)
    return radius


def _backtrack(
    bundle: SurrogateBundle,
    center: np.ndarray,
    radius: float,
    crit: CriticalityResult,
    cfg: StepConfig,
    fs: FeasibleSet,
    strict: bool,
) -> StepResult:
    d = crit.direction
    nd = float(np.max(np.abs(d)))
    sigma = bar_sigma(d, radius)
    if fs.is_box:
        # keep x + t d inside X by convexity: t <= 1 along the LP direction
        sigma = min(sigma, nd)
    unit = d / nd
    m_center = bundle.values(center)
    phi_center = float(np.max(m_center))
    for j in range(MAX_BACKTRACKS + 1):
        t = (cfg.armijo_b**j) * sigma
        trial = project_to_box(center + t * unit, fs)
        m_trial = bundle.values(trial)
        quantum = cfg.armijo_a * t * crit.omega / nd
        if strict:
            ok = float(np.min(m_center - m_trial)) >= quantum
        else:
            ok = float(np.max(m_trial)) <= phi_center - quantum
        if ok:
            return _certified(
                bundle, center, trial, m_center, m_trial, crit, radius, cfg, backtracks=j
            )
    return zero_step(center, f"no Armijo step within {MAX_BACKTRACKS} halvings")


def modified_pareto_cauchy(bundle, center, radius, crit, cfg, fs) -> StepResult:
    """Armijo-backtracked step along the model steepest-descent direction."""
    return _backtrack(bundle, np.asarray(center, dtype=float), radius, crit, cfg, fs, strict=False)


def strict_pareto_cauchy(bundle, center, radius, crit, cfg, fs) -> StepResult:
    """Backtracked step where every objective model drops by the Armijo quantum."""
    return _backtrack(bundle, np.asarray(center, dtype=float), radius, crit, cfg, fs, strict=True)


def _sigma_box_exit(center, d, fs: FeasibleSet) -> float:
    """Smallest sigma at which center + sigma d reaches a face that d moves
    toward (inf on R^n); among equal ratios the lowest axis gives its bits."""
    move = d != 0
    ratios = (np.where(d > 0, fs.upper, fs.lower) - center)[move] / d[move]
    return float(ratios[np.argmin(ratios)]) if ratios.size else np.inf


def exact_pareto_cauchy(bundle, center, radius, crit, cfg, fs) -> StepResult:
    """Best point along the steepest-descent ray: grid + golden-section refine."""
    center = np.asarray(center, dtype=float)
    d = crit.direction
    nd = float(np.max(np.abs(d)))
    sigma_max = min(radius / nd, _sigma_box_exit(center, d, fs))

    def phi(s):
        return float(np.max(bundle.values(center + s * d)))

    sigmas = np.linspace(0.0, sigma_max, GRID_POINTS)
    pts = center[None, :] + sigmas[:, None] * d[None, :]
    phis = np.max(bundle.values(pts), axis=1)
    best = int(np.argmin(phis))
    lo = sigmas[max(best - 1, 0)]
    hi = sigmas[min(best + 1, GRID_POINTS - 1)]
    gold = 0.5 * (np.sqrt(5.0) - 1.0)
    a_, b_ = lo, hi
    c_ = b_ - gold * (b_ - a_)
    d_ = a_ + gold * (b_ - a_)
    fc = phi(c_)
    fd = phi(d_)
    tol = 1e-8 * max(radius, 1e-12) / nd
    while (b_ - a_) > tol:
        if fc <= fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - gold * (b_ - a_)
            fc = phi(c_)
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + gold * (b_ - a_)
            fd = phi(d_)
    sigma = 0.5 * (a_ + b_)
    cands = [0.0, sigmas[best], sigma]
    vals = [phis[0], phis[best], phi(sigma)]
    sigma = cands[int(np.argmin(vals))]
    trial = project_to_box(center + sigma * d, fs)
    m_center = bundle.values(center)
    return _certified(bundle, center, trial, m_center, bundle.values(trial), crit, radius, cfg)


def local_ideal_point(bundle, center, radius, fs: FeasibleSet) -> np.ndarray:
    """Componentwise minimum of each model over the trust region (not all of X).

    The center is one of the multistart's starts, and a start's value never
    increases, so each entry is at most that model's value at the center.
    """
    center = np.asarray(center, dtype=float)
    lo, hi = region_box(center, radius, fs)
    ideal = np.empty(bundle.k)
    for idx, model in enumerate(bundle.models):
        _, ideal[idx] = box_multistart_minimize(
            lambda U: (model.values(U), None), lambda U, _: model.gradients(U), lo, hi,
            n_starts=10 + center.size, seed=idx, max_iters=150, include=center[None, :],
        )
    return ideal


def pascoletti_serafini(bundle, center, radius, crit, cfg, fs) -> StepResult:
    """Scalarized trial step toward the local model ideal point.

    Minimizes max_l (m_l(x) - m_l(center)) / r_l over the region via annealed
    log-sum-exp smoothing; degenerate r (model-critical center) returns the
    zero step, and a trial below the standard-form bound is replaced by the
    strict Pareto-Cauchy step, or by its zero step, unchanged, if that fails.
    """
    center = np.asarray(center, dtype=float)
    ideal = local_ideal_point(bundle, center, radius, fs)
    m_center = bundle.values(center)
    r = np.maximum(m_center - ideal, 0.0)
    r_max = float(np.max(r))
    if r_max <= 1e-12:
        return zero_step(center)
    r_ratio = float(np.min(r) / r_max)
    r_safe = np.maximum(r, 1e-9 * r_max)
    lo, hi = region_box(center, radius, fs)

    def make_smooth(temp):
        # value returns as aux the softmax numerators E = exp((Q - max Q) / temp)
        # of the ratios Q = (m(U) - m(center)) / r; grad normalizes them into the
        # weights of the model gradients
        def value(U):
            Q = bundle.values(U)
            Q -= m_center
            Q /= r_safe
            mx = Q.max(axis=1)
            E = np.subtract(Q, mx[:, None], out=Q)
            E /= temp
            np.exp(E, out=E)
            return mx + temp * np.log(E.sum(axis=1)), E

        def grad(U, E):
            W = E / E.sum(axis=1, keepdims=True)
            W /= r_safe
            out = np.zeros_like(U)
            for idx, model in enumerate(bundle.models):
                out += W[:, idx, None] * model.gradients(U)
            return out

        return value, grad

    v1, g1 = make_smooth(1e-2)
    x_best, _ = box_multistart_minimize(
        v1, g1, lo, hi, n_starts=10 + center.size, seed=7, max_iters=150, include=center[None, :]
    )
    v2, g2 = make_smooth(1e-4)
    x_best, _ = box_multistart_minimize(
        v2, g2, lo, hi, n_starts=1, seed=8, max_iters=150, include=x_best[None, :]
    )
    trial = project_to_box(x_best, fs)
    res = _certified(
        bundle, center, trial, m_center, bundle.values(trial), crit, radius, cfg, r_ratio=r_ratio
    )
    if res.certificate_lhs < res.certificate_rhs:
        res = strict_pareto_cauchy(bundle, center, radius, crit, cfg, fs)
        if res.failure is None:
            res.r_ratio, res.fallback = r_ratio, True
    return res


STEP_METHODS = {
    "modified-pc": modified_pareto_cauchy,
    "strict-pc": strict_pareto_cauchy,
    "pascoletti-serafini": pascoletti_serafini,
    "exact-pc": exact_pareto_cauchy,
}


def compute_step(bundle, center, radius, crit, cfg: StepConfig, fs: FeasibleSet) -> StepResult:
    """The trial step of cfg.method, or the zero step at a model-critical center."""
    if crit.omega_clamped <= 0.0:
        return zero_step(center)
    return STEP_METHODS[cfg.method](bundle, center, radius, crit, cfg, fs)
