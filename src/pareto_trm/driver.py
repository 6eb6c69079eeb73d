"""Main trust-region loop: model builds, criticality control, step dispatch,
acceptance ratio, iterate/radius updates, stopping, and reporting.

The loop works on the unit-scaled problem throughout; reports translate the
final iterate back to original coordinates. Every iteration checks the
invariants - sufficient-decrease certificate, feasibility, radius cap, Phi
monotonicity over accepted moves - and records violations in the report
instead of aborting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .criticality import CriticalityResult, omega_of_gradients, true_omega
from .errors import (
    BudgetExhausted,
    DegenerateDenominator,
    ObjectiveFailure,
    ParetoTRMError,
)
from .problem import EvaluationDatabase, MOProblem, project_to_box
from .steps import StepConfig, compute_step, zero_step
from .surrogates import ModelSpec, SurrogateBundle, build_bundle

SUCCESSFUL = "successful"
# the paper's fourth class; never assigned, because every bundle is fully linear
MODEL_IMPROVING = "model-improving"
ACCEPTABLE = "acceptable"
INACCEPTABLE = "inacceptable"

STOP_MAX_ITERATIONS = "max-iterations"
STOP_BUDGET = "budget-exhausted"
STOP_RADIUS_MIN = "radius-min"
STOP_RADIUS_CRIT_SMALL_STEP = "radius-crit-small-step"
STOP_CRITICALITY_LOOP_CAP = "criticality-loop-cap"


@dataclass
class AlgoConfig:
    """Algorithm parameters; defaults follow the benchmark configuration."""

    eps_crit: float = 1e-3
    mu: float = 2e3
    beta_c: float = 1e3
    nu_pp: float = 0.4
    nu_p: float = 0.0
    gamma_up: float = 2.0
    gamma_down: float = 0.75
    gamma_downdown: float = 0.51
    delta_ub: float = 0.5
    delta0: float = 0.1
    crit_alpha: float = 0.5
    acceptance: str = "standard"  # standard | strict
    max_iters: int = 100
    max_expensive: Optional[int] = None  # None = 1000 n^2
    n_loops: int = 10
    delta_min: float = 1e-6
    delta_crit: float = 1e-3
    eps_rel: float = 1e-8
    step: StepConfig = field(default_factory=StepConfig)
    models: Optional[ModelSpec] = None  # one spec for every expensive objective
    compute_true_omega: bool = False

    def __post_init__(self):
        if not (self.mu > self.beta_c > 0):
            raise ValueError("need mu > beta_c > 0")
        if not (1 > self.nu_pp >= self.nu_p >= 0) or self.nu_pp == 0:
            raise ValueError("need 1 > nu_pp >= nu_p >= 0 with nu_pp != 0")
        if not (self.gamma_up >= 1 > self.gamma_down >= self.gamma_downdown > 0):
            raise ValueError("need gamma_up >= 1 > gamma_down >= gamma_downdown > 0")
        if not (0 < self.delta0 <= self.delta_ub):
            raise ValueError("need 0 < delta0 <= delta_ub")
        if not (0 < self.crit_alpha < 1):
            raise ValueError("criticality backtracking constant must be in (0, 1)")
        if self.acceptance not in ("standard", "strict"):
            raise ValueError("acceptance must be 'standard' or 'strict'")
        if self.eps_crit < 0:
            raise ValueError("eps_crit must be nonnegative")
        if self.n_loops < 1:
            raise ValueError("n_loops must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.models is not None and not isinstance(self.models, ModelSpec):
            raise ValueError("models must be one ModelSpec for every expensive objective")


@dataclass
class TrustRegionState:
    x: np.ndarray  # scaled coordinates
    delta: float
    t: int
    f_current: np.ndarray


@dataclass
class RunReport:
    problem_name: str
    n_vars: int
    n_objs: int
    stop_reason: str
    iterations: list
    final_x: list
    final_f: list
    final_omega_m_clamped: float
    eval_counts: list
    expensive_evals: int
    diagnostic_evals: int
    final_omega_true_clamped: Optional[float] = None
    final_nondifferentiable: bool = False
    anomalies: list = field(default_factory=list)
    violations: dict = field(default_factory=dict)
    min_r_ratio: Optional[float] = None
    config: dict = field(default_factory=dict)
    x0: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        payload = asdict(self)
        payload["schema"] = 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    def iterations_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "class", "rho", "omega_m", "delta", "evals", "step_norm"])
            for rec in self.iterations:
                writer.writerow(
                    [
                        rec["t"],
                        rec["classification"],
                        repr(rec["rho"]),
                        repr(rec["omega_m_clamped"]),
                        repr(rec["delta_before"]),
                        rec["expensive_evals_cum"],
                        repr(rec["step_norm"]),
                    ]
                )


def compute_rho(f_center, f_trial, m_center, m_trial, mode: str) -> float:
    """Actual-over-predicted reduction of a nonzero step; min over objectives in strict mode."""
    f_center = np.asarray(f_center, dtype=float)
    f_trial = np.asarray(f_trial, dtype=float)
    m_center = np.asarray(m_center, dtype=float)
    m_trial = np.asarray(m_trial, dtype=float)
    if mode == "strict":
        dens = m_center - m_trial
        if np.any(dens <= 1e-15):
            raise DegenerateDenominator("per-objective model decrease vanished")
        return float(np.min((f_center - f_trial) / dens))
    den = float(np.max(m_center) - np.max(m_trial))
    if den <= 1e-15:
        raise DegenerateDenominator("Phi_m decrease vanished for a nonzero step")
    return float((np.max(f_center) - np.max(f_trial)) / den)


def classify_iteration(rho: float, cfg: AlgoConfig) -> str:
    if rho >= cfg.nu_pp:
        return SUCCESSFUL
    if rho >= cfg.nu_p:
        return ACCEPTABLE
    return INACCEPTABLE


def update_state(
    state: TrustRegionState,
    classification: str,
    trial: np.ndarray,
    f_trial: np.ndarray,
    cfg: AlgoConfig,
) -> TrustRegionState:
    """Iterate and radius update (endpoint concretization of the interval rule);
    the radius factor follows the class."""
    x, delta, f_cur = state.x, state.delta, state.f_current
    if classification == SUCCESSFUL or classification == ACCEPTABLE:
        x = np.asarray(trial, dtype=float)
        f_cur = np.asarray(f_trial, dtype=float)
    if classification == SUCCESSFUL:
        delta = min(cfg.gamma_up * delta, cfg.delta_ub)
    elif classification == INACCEPTABLE:
        delta = cfg.gamma_downdown * delta
    else:
        delta = cfg.gamma_down * delta
    return TrustRegionState(x=x, delta=delta, t=state.t + 1, f_current=f_cur)


def criticality_routine(
    prob: MOProblem,
    db: EvaluationDatabase,
    cfg: AlgoConfig,
    x: np.ndarray,
    delta: float,
    seed: int,
    bundle: SurrogateBundle,
    crit: CriticalityResult,
):
    """Shrink-and-certify loop: Delta_j = alpha^(j-1) Delta_* until
    Delta_j <= mu * omega~_m, then Delta = min(max(Delta_j, beta omega~_m), Delta_*).

    The fully linear bundle and its criticality on B(x; Delta_*) are loop 1;
    later loops rebuild on the shrunk radius. Returns (bundle, delta, crit,
    loops, cap_hit); cap_hit means the loop budget ran out (criticality stop).
    """
    delta_star = delta
    d_j = delta_star
    j = 1
    cap = False
    while d_j > cfg.mu * crit.omega_clamped:
        if j >= cfg.n_loops:
            cap = True
            break
        j += 1
        d_j = (cfg.crit_alpha ** (j - 1)) * delta_star
        bundle = build_bundle(prob, db, cfg.models, x, d_j, cfg.delta_ub, seed)
        crit = omega_of_gradients(bundle.gradients(x), x, prob.unit)
    delta_out = min(max(d_j, cfg.beta_c * crit.omega_clamped), delta_star)
    return bundle, delta_out, crit, j, cap


def check_stopping(state: TrustRegionState, step_norm: float, cfg: AlgoConfig,
                   expensive: int, budget: Optional[int]) -> Optional[str]:
    """First applicable stop reason, or None."""
    if state.t >= cfg.max_iters:
        return STOP_MAX_ITERATIONS
    if budget is not None and expensive >= budget:
        return STOP_BUDGET
    if state.delta <= cfg.delta_min:
        return STOP_RADIUS_MIN
    if state.delta <= cfg.delta_crit and step_norm <= cfg.eps_rel:
        return STOP_RADIUS_CRIT_SMALL_STEP
    return None


def run(
    prob: MOProblem, cfg: AlgoConfig, x0, seed: int = 0,
    db: Optional[EvaluationDatabase] = None,
) -> RunReport:
    """Run the trust-region method from x0 (original coordinates).

    x0 is admitted by its database read, as any site. Every iteration has
    one failure boundary: BudgetExhausted stops the run as budget-exhausted,
    and any other package error stops it as error:<Type> with one anomaly;
    the partial report is always returned. Passing a database lets the
    caller inspect or export the evaluated sites afterwards; its budget
    field is overwritten. `seed` only shifts the Halton sample of the model
    Hessian bound, which is computed when the curvature floor cannot certify
    a step's sufficient decrease.

    Each iteration appends one record, a dict with the keys that report.json
    lists under "iterations". An iteration whose criticality routine runs
    out of loops takes the zero step through the same checks and record,
    keeps the radius the routine returned, runs no true-omega diagnostic and
    stops the run as criticality-loop-cap.
    """
    x0 = np.asarray(x0, dtype=float)
    if cfg.models is None and np.any(prob.expensive_mask):
        raise ValueError("expensive objectives present: cfg.models is required")
    budget = cfg.max_expensive if cfg.max_expensive is not None else 1000 * prob.n_vars**2
    if db is None:
        db = EvaluationDatabase(prob)
    elif db.problem is not prob:
        raise ValueError("database belongs to a different problem")
    db.max_expensive = budget
    diag_counter: dict = {"evals": 0}
    # one dict per iteration, with the keys report.json lists under "iterations"
    records: list[dict] = []
    anomalies: list[str] = []
    violations = {"sufficient_decrease": 0, "monotonicity": 0, "feasibility": 0, "radius_cap": 0}
    min_r_ratio: Optional[float] = None
    tol = 1e-9

    def report(stop_reason, final_x, final_f, final_omega_m, final_true=None, nondiff=False):
        return RunReport(
            problem_name=prob.name,
            n_vars=prob.n_vars,
            n_objs=prob.n_objs,
            stop_reason=stop_reason,
            iterations=records,
            final_x=[float(v) for v in final_x],
            final_f=[float(v) for v in final_f],
            final_omega_m_clamped=float(final_omega_m),
            final_omega_true_clamped=final_true,
            final_nondifferentiable=nondiff,
            eval_counts=[int(v) for v in db.eval_counts],
            expensive_evals=db.expensive_evals,
            diagnostic_evals=int(diag_counter["evals"]),
            anomalies=anomalies,
            violations=violations,
            min_r_ratio=min_r_ratio,
            config=asdict(cfg),
            x0=[float(v) for v in x0],
        )

    try:
        f0 = db.evaluate(x0)
    except (BudgetExhausted, ObjectiveFailure) as exc:
        anomalies.append(str(exc))
        stop = STOP_BUDGET if isinstance(exc, BudgetExhausted) else f"error:{type(exc).__name__}"
        return report(stop, project_to_box(x0, prob.feasible), [], float("nan"))

    state = TrustRegionState(x=prob.scale(x0), delta=cfg.delta0, t=0, f_current=f0)
    crit: Optional[CriticalityResult] = None
    stop: Optional[str] = None

    while stop is None:
        delta_before = state.delta
        crit_loops, cap = 0, False
        try:
            bundle = build_bundle(prob, db, cfg.models, state.x, state.delta, cfg.delta_ub, seed)
            crit = omega_of_gradients(bundle.gradients(state.x), state.x, prob.unit)

            # criticality step
            if crit.omega_clamped < cfg.eps_crit and state.delta > cfg.mu * crit.omega_clamped:
                bundle, state.delta, crit, crit_loops, cap = criticality_routine(
                    prob, db, cfg, state.x, state.delta, seed, bundle, crit
                )

            # descent step; the zero step at a model-critical center, when
            # backtracking runs out, which is an anomaly, or when the
            # criticality routine ran out of loops
            if cap:
                step_res = zero_step(state.x)
            else:
                step_res = compute_step(bundle, state.x, state.delta, crit, cfg.step, prob.unit)
            if step_res.failure:
                anomalies.append(f"t={state.t}: {step_res.failure}")
            r_ratio = step_res.r_ratio
            if r_ratio is not None:
                min_r_ratio = r_ratio if min_r_ratio is None else min(min_r_ratio, r_ratio)

            # feasibility invariants, before the trial is evaluated
            if not prob.unit.contains(step_res.trial):
                violations["feasibility"] += 1
            if np.max(np.abs(step_res.trial - state.x)) > state.delta * (1 + 1e-9) + 1e-15:
                violations["feasibility"] += 1

            # evaluate the trial point and the acceptance ratio; a zero step
            # decreases nothing, so it is inacceptable and shrinks the radius
            if step_res.is_zero:
                f_trial, rho, classification = state.f_current, 0.0, INACCEPTABLE
            else:
                f_trial = db.evaluate_scaled(step_res.trial)
                try:
                    rho = compute_rho(
                        state.f_current, f_trial, step_res.m_center, step_res.m_trial, cfg.acceptance
                    )
                except DegenerateDenominator as exc:
                    anomalies.append(f"t={state.t}: {exc}")
                    rho = -np.inf
                classification = classify_iteration(rho, cfg)
        except BudgetExhausted:
            stop = STOP_BUDGET
            continue
        except ParetoTRMError as exc:
            anomalies.append(f"t={state.t}: {exc}")
            stop = f"error:{type(exc).__name__}"
            continue

        # runtime invariants; a zero step certifies (0, 0) and keeps f, so it passes them
        lhs, rhs = step_res.certificate_lhs, step_res.certificate_rhs
        if lhs + tol * (1 + abs(lhs)) < rhs:
            violations["sufficient_decrease"] += 1
        if state.delta > cfg.delta_ub * (1 + 1e-12):
            violations["radius_cap"] += 1
        if classification in (SUCCESSFUL, ACCEPTABLE):
            if cfg.acceptance == "strict":
                if np.any(f_trial > state.f_current + tol * (1 + np.abs(state.f_current))):
                    violations["monotonicity"] += 1
            else:
                phi_current = float(np.max(state.f_current))
                if np.max(f_trial) > phi_current + tol * (1 + abs(phi_current)):
                    violations["monotonicity"] += 1

        omega_true_val = None
        if cfg.compute_true_omega and not cap:
            try:
                omega_true_val = true_omega(
                    prob, prob.unscale(state.x), counter=diag_counter
                ).omega_clamped
            except ObjectiveFailure:
                omega_true_val = 0.0
            except ParetoTRMError as exc:  # e.g. LPFailure: the diagnostic has no value
                anomalies.append(f"t={state.t}: true_omega diagnostic: {exc}")

        if cap:  # the criticality routine has set the radius
            new_state = TrustRegionState(state.x, state.delta, state.t + 1, state.f_current)
        else:
            new_state = update_state(state, classification, step_res.trial, f_trial, cfg)
        # s^t is the displacement of the iterate: zero when the trial is rejected
        step_norm = float(np.max(np.abs(new_state.x - state.x)))
        records.append(
            {
                "t": state.t,
                "classification": classification,
                "rho": float(rho),
                "omega_m_clamped": crit.omega_clamped,
                "delta_before": delta_before,
                "delta_after": new_state.delta,
                "step_norm": step_norm,
                "expensive_evals_cum": db.expensive_evals,
                "criticality_loops": crit_loops,
                "backtracks": step_res.backtracks,
                # every bundle is certified fully linear when it is built
                "fully_linear": True,
                "omega_true_clamped": omega_true_val,
            }
        )
        state = new_state
        if cap:
            stop = STOP_CRITICALITY_LOOP_CAP
        else:
            stop = check_stopping(state, step_norm, cfg, db.expensive_evals, budget)

    final_x = prob.unscale(state.x)
    nondiff = False
    try:
        final_true = true_omega(prob, final_x, counter=diag_counter).omega_clamped
    except ObjectiveFailure:
        final_true, nondiff = 0.0, True
    except ParetoTRMError:
        final_true = None
    final_omega_m = crit.omega_clamped if crit is not None else float("nan")
    return report(stop, final_x, state.f_current, final_omega_m, final_true, nondiff)
