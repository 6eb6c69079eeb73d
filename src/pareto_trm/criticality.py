"""The multiobjective criticality measure: steepest-descent LP value and clamp.

omega(x) is the negative optimal value of the descent LP built from the
objective (or surrogate) gradients at x; it vanishes exactly at Pareto-critical
points. omega_clamped = min(omega, 1) is the variant the trust-region control
logic uses. Diagnostics on true objectives work in the optimizer's scaled
coordinates so that values line up with the internal stopping tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ObjectiveFailure
from .linalg import LPProblem, axis_differences, solve_descent_lp
from .problem import FeasibleSet, MOProblem, project_to_box


@dataclass(frozen=True)
class CriticalityResult:
    direction: np.ndarray
    omega: float
    omega_clamped: float


def omega_of_gradients(gradients, x, fs: FeasibleSet) -> CriticalityResult:
    """Solve the descent LP for the given gradient rows at x.

    The direction box is the intersection of the unit inf-ball with the
    shifted feasible set: max(-1, lower - x) <= d <= min(1, upper - x).
    Raises ObjectiveFailure naming the first gradient row that is not finite.
    """
    G = np.atleast_2d(np.asarray(gradients, dtype=float))
    finite = np.isfinite(G).all(axis=1)
    if not finite.all():
        raise ObjectiveFailure(f"gradient of objective {int(np.argmin(finite))} is not finite")
    x = project_to_box(np.asarray(x, dtype=float), fs)
    lo = np.maximum(-1.0, fs.lower - x)
    hi = np.minimum(1.0, fs.upper - x)
    d, beta = solve_descent_lp(LPProblem(G, lo, hi))
    omega = -beta
    return CriticalityResult(d, omega, min(omega, 1.0))


def true_omega(
    prob: MOProblem, x, fd_step: float = 1e-6, counter: dict | None = None
) -> CriticalityResult:
    """Criticality of the true objectives at x (given in original coordinates).

    Gradients come from the problem's gradient evaluators where available,
    otherwise from central finite differences with step fd_step in scaled
    coordinates, one objective call per stencil. Evaluations bypass the
    database (diagnostic use only); counter["evals"] adds up the stencil rows.
    """
    x = np.asarray(x, dtype=float)
    unit = prob.unit
    z = prob.scale(x)
    G = np.empty((prob.n_objs, prob.n_vars))
    for idx in range(prob.n_objs):
        if prob.gradients[idx] is not None:
            G[idx] = prob.unit_gradients(idx, x[None])[0]
        else:
            G[idx] = axis_differences(
                lambda Z, i=idx: _counted_values(prob, i, Z, counter),
                z, fd_step, unit.lower, unit.upper,
            )[0]
    return omega_of_gradients(G, z, unit)


def _counted_values(prob: MOProblem, index: int, Z, counter: dict | None) -> np.ndarray:
    """Objective `index` at every row of Z (scaled coordinates), counted."""
    if counter is not None:
        counter["evals"] = counter.get("evals", 0) + len(Z)
    return prob.objective_values(index, prob.unscale(Z))
