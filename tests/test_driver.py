import dataclasses
import json

import numpy as np
import pytest

from conftest import segment_distance, two_quadratics

from pareto_trm import cli, driver, steps, surrogates
from pareto_trm.criticality import omega_of_gradients
from pareto_trm.driver import (
    ACCEPTABLE,
    INACCEPTABLE,
    MODEL_IMPROVING,
    STOP_BUDGET,
    STOP_CRITICALITY_LOOP_CAP,
    STOP_MAX_ITERATIONS,
    STOP_RADIUS_CRIT_SMALL_STEP,
    STOP_RADIUS_MIN,
    SUCCESSFUL,
    AlgoConfig,
    TrustRegionState,
    check_stopping,
    classify_iteration,
    compute_rho,
    criticality_routine,
    run,
    update_state,
)
from pareto_trm.errors import (
    BudgetExhausted,
    DegenerateDenominator,
    DimensionMismatch,
    InfeasiblePoint,
    LPFailure,
    ObjectiveFailure,
)
from pareto_trm.problem import EvaluationDatabase, FeasibleSet, MOProblem
from pareto_trm.steps import StepConfig
from pareto_trm.surrogates import MODEL_SPECS, build_bundle, hessian_bound
from pareto_trm.testbed import TestProblemSpec, make_problem


class TestComputeRho:
    def test_exact_model_gives_one(self):
        rho = compute_rho([1.0, 2.0], [0.5, 1.0], [1.0, 2.0], [0.5, 1.0], "standard")
        assert rho == pytest.approx(1.0)

    def test_ratio_arithmetic(self):
        rho = compute_rho([1.0], [0.5], [1.0], [0.75], "standard")
        assert rho == pytest.approx(2.0)

    def test_strict_takes_min_ratio(self):
        rho = compute_rho([1.0, 1.0], [0.5, 0.9], [1.0, 1.0], [0.5, 0.5], "strict")
        assert rho == pytest.approx(0.2)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            compute_rho([1.0], [0.9], [1.0], [1.0], "standard")
        with pytest.raises(DegenerateDenominator):
            compute_rho([1.0, 1.0], [0.9, 0.9], [1.0, 1.0], [0.5, 1.0], "strict")


class TestClassify:
    def setup_method(self):
        self.cfg = AlgoConfig(nu_p=0.1, nu_pp=0.4)

    def test_successful(self):
        assert classify_iteration(0.5, self.cfg) == SUCCESSFUL

    def test_inacceptable(self):
        assert classify_iteration(0.05, self.cfg) == INACCEPTABLE

    def test_acceptable_band(self):
        assert classify_iteration(0.2, self.cfg) == ACCEPTABLE

    def test_every_rho_maps_to_exactly_one_class(self, rng):
        for _ in range(200):
            rho = float(rng.uniform(-2, 2))
            cls = classify_iteration(rho, self.cfg)
            assert cls in (SUCCESSFUL, ACCEPTABLE, INACCEPTABLE)


def _state(delta, t=0):
    return TrustRegionState(x=np.zeros(2), delta=delta, t=t, f_current=np.array([1.0]))


class TestUpdateState:
    def setup_method(self):
        self.cfg = AlgoConfig(nu_p=0.1, nu_pp=0.4)

    def test_successful_grows_capped(self):
        new = update_state(_state(0.1), SUCCESSFUL, np.ones(2), np.array([0.5]), self.cfg)
        assert new.delta == pytest.approx(0.2)
        np.testing.assert_array_equal(new.x, np.ones(2))
        new = update_state(_state(0.4), SUCCESSFUL, np.ones(2), np.array([0.5]), self.cfg)
        assert new.delta == pytest.approx(0.5)  # delta_ub cap

    def test_inacceptable_shrinks_hard(self):
        new = update_state(_state(0.1), INACCEPTABLE, np.ones(2), None, self.cfg)
        assert new.delta == pytest.approx(0.051)
        np.testing.assert_array_equal(new.x, np.zeros(2))

    def test_acceptable_moves_and_shrinks_soft(self):
        new = update_state(_state(0.1), ACCEPTABLE, np.ones(2), np.array([0.9]), self.cfg)
        assert new.delta == pytest.approx(0.075)
        np.testing.assert_array_equal(new.x, np.ones(2))


class TestCheckStopping:
    def test_radius_min(self):
        cfg = AlgoConfig()
        assert check_stopping(_state(1e-7, t=1), 0.1, cfg, 0, None) == STOP_RADIUS_MIN

    def test_radius_crit_small_step(self):
        cfg = AlgoConfig()
        out = check_stopping(_state(5e-4, t=1), 1e-9, cfg, 0, None)
        assert out == STOP_RADIUS_CRIT_SMALL_STEP

    def test_fresh_state_continues(self):
        cfg = AlgoConfig()
        assert check_stopping(_state(0.1, t=1), 0.05, cfg, 3, 100) is None

    def test_budget(self):
        cfg = AlgoConfig()
        assert check_stopping(_state(0.1, t=1), 0.05, cfg, 100, 100) == STOP_BUDGET

    def test_zero_iteration_cap_rejected(self):
        # check_stopping runs after each iteration, so every run takes at least one
        with pytest.raises(ValueError, match="max_iters"):
            AlgoConfig(max_iters=0)


def _entry_bundle(prob, db, cfg, x, delta):
    """The bundle and criticality an iteration builds on B(x; delta) before the routine."""
    bundle = build_bundle(prob, db, cfg.models, x, delta, cfg.delta_ub, 0)
    return bundle, omega_of_gradients(bundle.gradients(x), x, prob.unit)


class TestCriticalityRoutine:
    def test_single_pass_arithmetic(self):
        # omega~ = 0.01, mu = 2000: the entry bundle already certifies; delta stays 0.1
        prob = MOProblem(
            1,
            1,
            [lambda X: 0.01 * X[:, 0]],
            np.array([True]),
            FeasibleSet.unconstrained(),
        )
        db = EvaluationDatabase(prob)
        cfg = AlgoConfig(models=MODEL_SPECS["taylor-fd1"])
        x = np.zeros(1)
        bundle0, crit0 = _entry_bundle(prob, db, cfg, x, 0.1)
        evaluated = len(db)
        assert evaluated > 0
        bundle, delta, crit, loops, cap = criticality_routine(
            prob, db, cfg, x, 0.1, 0, bundle0, crit0
        )
        assert loops == 1 and not cap
        # loop 1 is the entry bundle itself: no rebuild, no evaluation
        assert bundle is bundle0 and crit is crit0
        assert len(db) == evaluated
        assert crit.omega_clamped == pytest.approx(0.01)
        assert delta == pytest.approx(0.1)
        assert bundle.fully_linear

    def test_truly_critical_center_hits_cap(self):
        prob = MOProblem(
            1,
            1,
            [lambda X: np.ones(len(X))],
            np.array([False]),
            FeasibleSet.unconstrained(),
            [lambda X: np.zeros(X.shape)],
        )
        db = EvaluationDatabase(prob)
        cfg = AlgoConfig(models=None, n_loops=4)
        x = np.zeros(1)
        bundle0, crit0 = _entry_bundle(prob, db, cfg, x, 0.1)
        bundle, _, crit, loops, cap = criticality_routine(
            prob, db, cfg, x, 0.1, 0, bundle0, crit0
        )
        assert cap and loops == 4
        # loops 2..4 rebuild on the shrinking radii; the last one is alpha^3 * 0.1
        assert bundle is not bundle0
        assert bundle.radius == pytest.approx(0.5**3 * 0.1)
        assert crit.omega_clamped == pytest.approx(0.0)

    def test_zero_loop_budget_rejected(self):
        # the entry bundle counts as loop 1, so a budget below one loop is meaningless
        with pytest.raises(ValueError, match="n_loops"):
            AlgoConfig(n_loops=0)


class TestRunT6:
    def test_converges_within_budget(self):
        prob = make_problem(TestProblemSpec("T6"))
        cfg = AlgoConfig(
            nu_p=0.1,
            nu_pp=0.4,
            n_loops=2,
            delta_min=1e-3,
            max_expensive=25,
            acceptance="strict",
            step=StepConfig(method="strict-pc"),
            models=MODEL_SPECS["rbf-cubic"],
            max_iters=60,
        )
        db = EvaluationDatabase(prob)
        rep = run(prob, cfg, [15.0, 15.0], seed=1, db=db)
        assert rep.expensive_evals <= 25
        assert max(abs(rep.final_x[0] - 1e-12), abs(rep.final_x[1])) <= 0.1
        assert sum(rep.violations.values()) == 0
        # hard constraints: every database site is feasible
        for site in db.sites:
            assert prob.feasible.contains(site)
        # budget accounting matches the database counters
        assert rep.eval_counts == [int(v) for v in db.eval_counts]

    def test_infeasible_start_rejected(self):
        prob = make_problem(TestProblemSpec("T6"))
        cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"])
        with pytest.raises(InfeasiblePoint):
            run(prob, cfg, [-1.0, 0.0])

    def test_wrong_length_start_rejected(self):
        prob = make_problem(TestProblemSpec("T6"))
        cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"])
        with pytest.raises(DimensionMismatch, match="expected length 2"):
            run(prob, cfg, [1.0, 2.0, 3.0])

    def test_zero_budget_stops_immediately(self):
        prob = make_problem(TestProblemSpec("T6"))
        cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"], max_expensive=0)
        rep = run(prob, cfg, [15.0, 15.0])
        assert rep.stop_reason == STOP_BUDGET
        assert rep.iterations == []
        assert rep.expensive_evals == 0


class TestRunCheapConvex:
    def _run(self, acceptance="standard", method="modified-pc"):
        a, b = np.array([0.2, 0.3]), np.array([0.9, 0.7])
        prob = two_quadratics(a, b)
        cfg = AlgoConfig(models=None, acceptance=acceptance, step=StepConfig(method=method))
        rep = run(prob, cfg, [3.0, -2.0], seed=0)
        return rep, a, b

    def test_reaches_criticality_without_expensive_evals(self):
        rep, a, b = self._run()
        assert rep.expensive_evals == 0
        assert rep.final_omega_true_clamped <= 1e-3
        assert rep.iterations[-1]["delta_after"] <= 1e-3 or rep.stop_reason in (
            STOP_CRITICALITY_LOOP_CAP,
            STOP_RADIUS_MIN,
        )
        assert segment_distance(rep.final_x, a, b) <= 1e-2
        assert sum(rep.violations.values()) == 0

    def test_phi_monotone_standard(self):
        rep, _, _ = self._run()
        assert rep.violations["monotonicity"] == 0

    def test_strict_mode_all_objectives_monotone(self):
        rep, a, b = self._run(acceptance="strict", method="strict-pc")
        assert rep.violations["monotonicity"] == 0
        assert rep.final_omega_true_clamped <= 1e-3
        assert segment_distance(rep.final_x, a, b) <= 1e-2

    def test_exact_pc_and_ps_also_converge(self):
        for method in ("exact-pc", "pascoletti-serafini"):
            a, b = np.array([0.2, 0.3]), np.array([0.9, 0.7])
            prob = two_quadratics(a, b)
            cfg = AlgoConfig(models=None, step=StepConfig(method=method), max_iters=60)
            rep = run(prob, cfg, [2.0, -1.0], seed=0)
            assert rep.final_omega_true_clamped <= 1e-2, method
            assert sum(rep.violations.values()) == 0, method


class TestRunInvariants:
    def test_radius_never_exceeds_cap(self):
        prob = make_problem(TestProblemSpec("ZDT1", 3))
        cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"], max_iters=40)
        rep = run(prob, cfg, np.full(3, 0.7), seed=2)
        for rec in rep.iterations:
            assert rec["delta_after"] <= cfg.delta_ub + 1e-12
        assert rep.violations["radius_cap"] == 0

    def test_model_improving_streak_bound(self):
        # every model is certified when built, so no iteration is model-improving
        prob = make_problem(TestProblemSpec("ZDT1", 3))
        cfg = AlgoConfig(models=MODEL_SPECS["lagrange-2"], max_iters=40)
        rep = run(prob, cfg, np.full(3, 0.7), seed=2)
        assert rep.iterations
        for rec in rep.iterations:
            assert rec["fully_linear"] is True
            assert rec["classification"] != MODEL_IMPROVING

    def test_expensive_counts_respect_budget(self):
        prob = make_problem(TestProblemSpec("ZDT2", 4))
        cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"], max_expensive=30, max_iters=60)
        db = EvaluationDatabase(prob)
        rep = run(prob, cfg, np.full(4, 0.6), seed=3, db=db)
        assert max(rep.eval_counts) <= 30
        assert rep.expensive_evals <= 30

    def test_classification_exhaustive(self):
        prob = make_problem(TestProblemSpec("ZDT1", 3))
        cfg = AlgoConfig(models=MODEL_SPECS["taylor-fd1"], max_iters=30)
        rep = run(prob, cfg, np.full(3, 0.5), seed=0)
        for rec in rep.iterations:
            assert rec["classification"] in (SUCCESSFUL, ACCEPTABLE, INACCEPTABLE)

    def test_sufficient_decrease_never_violated(self):
        for model in ("rbf-cubic", "lagrange-1", "taylor-fd1"):
            prob = make_problem(TestProblemSpec("ZDT3", 3))
            cfg = AlgoConfig(models=MODEL_SPECS[model], max_iters=50)
            rep = run(prob, cfg, np.full(3, 0.4), seed=1)
            assert rep.violations["sufficient_decrease"] == 0, model


class TestOtherRegimesAndSteps:
    def test_all_expensive_regime(self):
        prob = make_problem(TestProblemSpec("T6", pattern="all-expensive"))
        cfg = AlgoConfig(
            models=MODEL_SPECS["rbf-cubic"], max_expensive=40, max_iters=40,
            nu_p=0.1, nu_pp=0.4, n_loops=2, delta_min=1e-3,
        )
        db = EvaluationDatabase(prob)
        rep = run(prob, cfg, [15.0, 15.0], seed=1, db=db)
        assert np.all(np.array(rep.eval_counts) <= 40)
        assert rep.eval_counts[0] == rep.eval_counts[1]  # same sites for both
        assert sum(rep.violations.values()) == 0
        assert max(abs(rep.final_x[0] - 1e-12), abs(rep.final_x[1])) <= 0.5

    def test_pascoletti_serafini_on_expensive_problem(self):
        prob = make_problem(TestProblemSpec("ZDT1", 3))
        cfg = AlgoConfig(
            models=MODEL_SPECS["rbf-cubic"],
            step=StepConfig(method="pascoletti-serafini"),
            max_iters=25,
        )
        rep = run(prob, cfg, np.full(3, 0.6), seed=4)
        assert sum(rep.violations.values()) == 0
        assert rep.min_r_ratio is None or 0.0 <= rep.min_r_ratio <= 1.0

    def test_exact_pc_on_expensive_problem(self):
        prob = make_problem(TestProblemSpec("ZDT2", 3))
        cfg = AlgoConfig(
            models=MODEL_SPECS["rbf-cubic"], step=StepConfig(method="exact-pc"),
            max_iters=25,
        )
        rep = run(prob, cfg, np.full(3, 0.6), seed=4)
        assert sum(rep.violations.values()) == 0
        assert rep.final_omega_m_clamped >= 0.0

    def test_dtlz6_fd_cheap_gradient_path(self):
        # DTLZ6's cheap objective has no analytic callback: FD fallback in play
        prob = make_problem(TestProblemSpec("DTLZ6", 5))
        assert prob.gradients[0] is None
        cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"], max_iters=15)
        db = EvaluationDatabase(prob)
        rep = run(prob, cfg, np.full(5, 0.5), seed=2, db=db)
        assert sum(rep.violations.values()) == 0
        for site in db.sites:
            assert prob.feasible.contains(site)


class TestDeterminism:
    def test_identical_reports(self, tmp_path):
        prob = make_problem(TestProblemSpec("ZDT1", 3))
        cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"], max_iters=25)
        paths = []
        for i in (0, 1):
            rep = run(prob, cfg, np.full(3, 0.6), seed=7)
            p = tmp_path / f"rep{i}.json"
            rep.to_json(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_csv_roundtrip(self, tmp_path):
        prob = make_problem(TestProblemSpec("ZDT1", 3))
        cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"], max_iters=10)
        rep = run(prob, cfg, np.full(3, 0.6), seed=7)
        jp = tmp_path / "report.json"
        cp = tmp_path / "iters.csv"
        rep.to_json(jp)
        rep.iterations_csv(cp)
        loaded = json.loads(jp.read_text())
        assert loaded["schema"] == 1
        assert loaded["stop_reason"] == rep.stop_reason
        lines = cp.read_text().splitlines()
        assert lines[0] == "t,class,rho,omega_m,delta,evals,step_norm"
        assert len(lines) == 1 + len(rep.iterations)


def test_true_omega_diagnostic_tracks_iterations():
    prob = two_quadratics([0.1, 0.2], [0.8, 0.9])
    cfg = AlgoConfig(models=None, compute_true_omega=True, max_iters=15)
    rep = run(prob, cfg, [2.0, 2.0], seed=0)
    assert all(rec["omega_true_clamped"] is not None for rec in rep.iterations)
    assert rep.diagnostic_evals == 0  # gradient evaluators: no stencil evals
    assert rep.expensive_evals == 0
    prob2 = two_quadratics([0.1, 0.2], [0.8, 0.9])
    prob2.gradients = [None, None]
    rep2 = run(prob2, cfg, [2.0, 2.0], seed=0)
    assert rep2.diagnostic_evals > 0  # finite differences counted separately


def test_failed_true_omega_diagnostic_is_recorded_not_raised(monkeypatch):
    def failing_true_omega(*args, **kwargs):
        raise LPFailure("singular basis: forced")

    monkeypatch.setattr(driver, "true_omega", failing_true_omega)
    prob = two_quadratics([0.1, 0.2], [0.8, 0.9])
    cfg = AlgoConfig(models=None, compute_true_omega=True, max_iters=3)
    rep = run(prob, cfg, [2.0, 2.0], seed=0)
    assert rep.iterations and not rep.stop_reason.startswith("error:")
    assert all(rec["omega_true_clamped"] is None for rec in rep.iterations)
    assert rep.final_omega_true_clamped is None
    assert rep.anomalies == [
        f"t={rec['t']}: true_omega diagnostic: singular basis: forced" for rec in rep.iterations
    ]


class FailsOffTheDatabase(MOProblem):
    """All-expensive objectives that return NaN unless the database reads them:
    every other call comes from the true-omega diagnostic, whose difference
    gradient turns non-finite and raises ObjectiveFailure."""

    reading = False

    def evaluate_raw(self, x):
        self.reading = True
        try:
            return super().evaluate_raw(x)
        finally:
            self.reading = False

    def objective_values(self, index, X):
        out = super().objective_values(index, X)
        return out if self.reading else np.full_like(out, np.nan)


def _quadratics(cls, a=(0.1, 0.2), b=(0.8, 0.9)):
    a, b = np.asarray(a), np.asarray(b)
    return cls(
        2, 2,
        [lambda X: np.sum((X - a) ** 2, axis=1), lambda X: np.sum((X - b) ** 2, axis=1)],
        np.array([True, True]), FeasibleSet.box([-1.0, -1.0], [2.0, 2.0]),
    )


def test_objective_failure_in_the_iteration_diagnostic_reads_zero():
    cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"], compute_true_omega=True, max_iters=4)
    rep = run(_quadratics(FailsOffTheDatabase), cfg, [1.5, 1.5], seed=0)
    assert rep.iterations and not rep.stop_reason.startswith("error:")
    assert [rec["omega_true_clamped"] for rec in rep.iterations] == [0.0] * len(rep.iterations)
    assert not rep.anomalies


def test_objective_failure_in_the_final_diagnostic_flags_nondifferentiable():
    cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"], max_iters=4)
    rep = run(_quadratics(FailsOffTheDatabase), cfg, [1.5, 1.5], seed=0)
    plain = run(_quadratics(MOProblem), cfg, [1.5, 1.5], seed=0)
    assert rep.final_nondifferentiable and rep.final_omega_true_clamped == 0.0
    assert not plain.final_nondifferentiable and plain.final_omega_true_clamped > 0.0
    # the diagnostic changes nothing else
    assert (rep.iterations, rep.final_x, rep.stop_reason) == (
        plain.iterations, plain.final_x, plain.stop_reason
    )


@pytest.mark.parametrize("nu_p", [0.0, 0.1])
def test_critical_start_emits_zero_step_and_stops(nu_p):
    prob = two_quadratics([0.0, 0.0], [0.0, 0.0])  # both minima at origin
    cfg = AlgoConfig(models=None, n_loops=3, nu_p=nu_p)
    rep = run(prob, cfg, [0.0, 0.0], seed=0)
    assert rep.stop_reason == STOP_CRITICALITY_LOOP_CAP
    assert rep.final_omega_m_clamped == pytest.approx(0.0, abs=1e-12)
    assert all(rec["step_norm"] == 0.0 for rec in rep.iterations)
    # the cap record takes no step, whatever rho the class thresholds accept
    assert [rec["classification"] for rec in rep.iterations] == [INACCEPTABLE]


def test_the_cap_record_keeps_the_routine_radius_and_runs_no_diagnostic():
    # the routine shrinks 0.1 to 0.025 in its 3 loops; the cap iteration keeps
    # that radius (no gamma_downdown shrink) and reads no true omega
    prob = two_quadratics([0.0, 0.0], [0.0, 0.0])
    cfg = AlgoConfig(models=None, n_loops=3, compute_true_omega=True)
    rep = run(prob, cfg, [0.0, 0.0], seed=0)
    assert rep.stop_reason == STOP_CRITICALITY_LOOP_CAP
    assert sum(rep.violations.values()) == 0
    assert rep.iterations == [
        {
            "t": 0,
            "classification": INACCEPTABLE,
            "rho": 0.0,
            "omega_m_clamped": 0.0,
            "delta_before": 0.1,
            "delta_after": 0.025,
            "step_norm": 0.0,
            "expensive_evals_cum": 0,
            "criticality_loops": 3,
            "backtracks": 0,
            "fully_linear": True,
            "omega_true_clamped": None,
        }
    ]


def test_critical_start_without_criticality_test_takes_zero_steps(monkeypatch):
    # eps_crit = 0 never enters the criticality routine, so omega = 0 reaches
    # compute_step, which takes the zero step without running the step method
    def no_step(*args):
        raise AssertionError("strict-pc called at a critical point")

    monkeypatch.setitem(steps.STEP_METHODS, "strict-pc", no_step)
    prob = two_quadratics([0.0, 0.0], [0.0, 0.0])
    cfg = AlgoConfig(models=None, eps_crit=0.0, max_iters=4)
    rep = run(prob, cfg, [0.0, 0.0], seed=0)
    assert rep.stop_reason == STOP_MAX_ITERATIONS
    assert [(rec["rho"], rec["step_norm"]) for rec in rep.iterations] == [(0.0, 0.0)] * 4
    assert rep.anomalies == [] and sum(rep.violations.values()) == 0


def test_exhausted_backtracking_takes_a_zero_step_and_continues(monkeypatch):
    real_step = driver.compute_step
    calls = []

    def exhausted_once(bundle, center, *args):
        calls.append(1)
        if len(calls) == 1:
            return steps.zero_step(center, "no Armijo step within 30 halvings")
        return real_step(bundle, center, *args)

    monkeypatch.setattr(driver, "compute_step", exhausted_once)
    prob = two_quadratics([0.1, 0.2], [0.8, 0.9])
    rep = run(prob, AlgoConfig(models=None, max_iters=3), [2.0, 2.0], seed=0)
    assert rep.anomalies == ["t=0: no Armijo step within 30 halvings"]
    first, *rest = rep.iterations
    assert (first["rho"], first["step_norm"]) == (0.0, 0.0)
    assert len(rest) == 2 and all(rec["step_norm"] > 0.0 for rec in rest)
    assert rep.stop_reason == STOP_MAX_ITERATIONS
    assert sum(rep.violations.values()) == 0


@pytest.mark.parametrize("kind", ["model-critical", "backtracking"])
def test_zero_step_is_inacceptable_and_shrinks_hard(monkeypatch, kind):
    # rho = 0 would read acceptable against nu_p = 0, but a zero step decreases nothing
    if kind == "model-critical":  # eps_crit = 0: omega = 0 reaches the step
        prob, x0, cfg = two_quadratics([0.0, 0.0], [0.0, 0.0]), [0.0, 0.0], {"eps_crit": 0.0}
    else:
        def exhausted(bundle, center, *args):
            return steps.zero_step(center, "no Armijo step within 30 halvings")

        monkeypatch.setattr(driver, "compute_step", exhausted)
        prob, x0, cfg = two_quadratics([0.1, 0.2], [0.8, 0.9]), [2.0, 2.0], {}
    cfg = AlgoConfig(models=None, max_iters=2, **cfg)
    rep = run(prob, cfg, x0, seed=0)
    for rec in rep.iterations:
        assert (rec["classification"], rec["rho"], rec["step_norm"]) == (INACCEPTABLE, 0.0, 0.0)
        assert rec["delta_after"] == cfg.gamma_downdown * rec["delta_before"]
    assert len(rep.iterations) == 2 and sum(rep.violations.values()) == 0


def test_dtlz6_face_exhausts_backtracking_without_a_patch():
    # the center sits at DTLZ6's x_i = 0 face, where g = sum x_i^0.1 is not
    # Lipschitz: the cheap first objective's model slopes down along d but its
    # difference quotient is positive, so no Armijo step exists
    prob = make_problem(TestProblemSpec("DTLZ6", 6, "first-cheap-rest-expensive"))
    cfg = AlgoConfig(
        models=MODEL_SPECS["rbf-gaussian-adaptive"],
        step=StepConfig(method="strict-pc"),
        max_iters=8,
    )
    rep = run(prob, cfg, cli._start_points(prob, 2, 3)[1], seed=0)
    outcome = (rep.stop_reason, rep.expensive_evals, len(rep.iterations))
    assert outcome == (STOP_MAX_ITERATIONS, 26, 8)
    # the two zero steps shrink the radius by gamma_downdown, and at t = 7 the
    # smaller region gives a real trial step, which is rejected
    assert rep.anomalies == [f"t={t}: no Armijo step within 30 halvings" for t in (5, 6)]
    assert [rec["classification"] for rec in rep.iterations[5:]] == [INACCEPTABLE] * 3
    assert [rec["rho"] == 0.0 for rec in rep.iterations[5:]] == [True, True, False]
    assert [rec["step_norm"] for rec in rep.iterations[5:]] == [0.0] * 3
    assert all(v == 0 for v in rep.violations.values())


def test_trial_outside_the_box_is_a_feasibility_violation(monkeypatch):
    real_step = driver.compute_step

    def outside(bundle, center, radius, crit, cfg, fs):
        res = real_step(bundle, center, radius, crit, cfg, fs)
        trial = center.copy()
        trial[0] = -1e-3  # inside the trust region, below the lower face
        return dataclasses.replace(res, step=trial - center, trial=trial)

    monkeypatch.setattr(driver, "compute_step", outside)
    prob = two_quadratics([0.1, 0.2], [0.8, 0.9], box=([0.0, 0.0], [1.0, 1.0]))
    rep = run(prob, AlgoConfig(models=None), [0.01, 0.5], seed=0)
    # checked before the trial is evaluated, which the database then refuses
    assert rep.violations["feasibility"] == 1
    assert rep.stop_reason == "error:InfeasiblePoint"


def test_models_takes_one_spec():
    # the per-objective list form is gone: every expensive objective shares one spec
    spec = MODEL_SPECS["rbf-cubic"]
    with pytest.raises(ValueError, match="one ModelSpec"):
        AlgoConfig(models=[None, spec])


def test_runs_beyond_fifty_variables():
    # the step's curvature bound samples Halton points in all 60 dimensions
    prob = make_problem(TestProblemSpec("ZDT1", 60))
    cfg = AlgoConfig(
        models=MODEL_SPECS["taylor-fd1"], step=StepConfig(method="modified-pc"), max_iters=1
    )
    rep = run(prob, cfg, np.full(60, 0.5), seed=0)
    assert not rep.stop_reason.startswith("error:"), rep.anomalies
    assert len(rep.iterations) == 1


def test_badly_scaled_surrogate_gradients_keep_the_run_going():
    # the unscaled descent LP stopped this run with error:LPFailure after 24
    # evaluations, at iteration 7
    prob = make_problem(TestProblemSpec("DTLZ1", 6, "all-expensive"))
    cfg = AlgoConfig(models=MODEL_SPECS["rbf-gaussian-adaptive"], max_iters=15)
    rep = run(prob, cfg, cli._start_points(prob, 2, 0)[0], seed=0)
    assert rep.stop_reason == STOP_MAX_ITERATIONS
    assert (rep.expensive_evals, len(rep.iterations)) == (32, 15)


def _zdt1_bound_run():
    """ZDT1 n=5 rbf-cubic with a cheap first objective, from a campaign start
    point: the curvature floor certifies every step of it but one."""
    prob = make_problem(TestProblemSpec("ZDT1", 5, "first-cheap-rest-expensive"))
    cfg = AlgoConfig(
        models=MODEL_SPECS["rbf-cubic"], step=StepConfig(method="modified-pc"), max_iters=15
    )
    return prob, cfg, cli._start_points(prob, 4, 3)[0]


def _record_certificates(monkeypatch) -> list:
    """Wrap steps._certified; each certificate appends (bundle, result, rhs at
    the curvature floor, rhs as a function of H)."""
    real = steps._certified
    records = []

    def recorded(bundle, center, trial, m_center, m_trial, crit, radius, cfg, **extra):
        res = real(bundle, center, trial, m_center, m_trial, crit, radius, cfg, **extra)

        def rhs(H):
            return steps.certificate_rhs(crit, bundle.k, H, radius, cfg)

        records.append((bundle, res, rhs(surrogates.curvature_floor(bundle.k)), rhs))
        return res

    monkeypatch.setattr(steps, "_certified", recorded)
    return records


def test_lazy_bound_matches_eager_bound(monkeypatch):
    # H is computed exactly for the bundles with a certificate whose lhs falls
    # below the rhs at the curvature floor, and then it is the eager bound
    prob, cfg, x0 = _zdt1_bound_run()
    built = []  # (bundle, the bound computed eagerly at build time)

    def build_and_bound(prob, db, spec, center, radius, delta_ub, seed=0):
        bundle = build_bundle(prob, db, spec, center, radius, delta_ub, seed)
        eager = hessian_bound(
            bundle.models, center, radius, prob.unit, c=prob.n_objs, seed=seed
        )
        built.append((bundle, eager))
        return bundle

    monkeypatch.setattr(driver, "build_bundle", build_and_bound)
    certificates = _record_certificates(monkeypatch)
    rep = run(prob, cfg, x0, seed=0)
    outcome = (rep.stop_reason, rep.expensive_evals, len(rep.iterations))
    assert outcome == (STOP_MAX_ITERATIONS, 24, 15)
    eager_of = {id(b): eager for b, eager in built}
    below = {id(b) for b, res, floor_rhs, _ in certificates if res.certificate_lhs < floor_rhs}
    stepped = [(b, eager) for b, eager in built if "hessian_bound" in vars(b)]
    assert {id(b) for b, _ in stepped} == below
    assert 0 < len(stepped) < len(certificates)
    for bundle, eager in stepped:
        assert bundle.hessian_bound == eager
    for bundle, res, floor_rhs, rhs in certificates:
        if id(bundle) in below:
            assert res.certificate_rhs == rhs(eager_of[id(bundle)])
        else:
            assert res.certificate_rhs == floor_rhs >= rhs(eager_of[id(bundle)])


def test_bound_computed_once_per_bundle_the_floor_cannot_certify(monkeypatch):
    calls = []
    real_bound = surrogates.hessian_bound

    def counted_bound(*args, **kwargs):
        calls.append(1)
        return real_bound(*args, **kwargs)

    monkeypatch.setattr(surrogates, "hessian_bound", counted_bound)
    certificates = _record_certificates(monkeypatch)
    prob, cfg, x0 = _zdt1_bound_run()
    run(prob, cfg, x0, seed=0)
    below = {id(b) for b, res, floor_rhs, _ in certificates if res.certificate_lhs < floor_rhs}
    assert len(calls) == len(below) == 1

    # a run that stops at the criticality test never computes the bound
    calls.clear()
    rep = run(two_quadratics([0.0, 0.0], [0.0, 0.0]), AlgoConfig(models=None, n_loops=3), [0.0, 0.0])
    assert rep.stop_reason == STOP_CRITICALITY_LOOP_CAP
    assert calls == []


def _fail_on_call(monkeypatch, owner, name, call, exc):
    """Make owner.name raise exc on its call-th call and behave as before otherwise."""
    real = getattr(owner, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


# phase -> (owner, attribute, the call that fails, start, the records kept before it).
# A non-critical start takes one full iteration first, so the failure lands at t=1;
# the critical start enters the criticality routine at t=0, whose first rebuild
# is the second bundle build.
_PHASES = {
    "model build": (driver, "build_bundle", 2, "descent", 1),
    "criticality rebuild": (driver, "build_bundle", 2, "critical", 0),
    "step": (driver, "compute_step", 2, "descent", 1),
    "trial evaluation": (EvaluationDatabase, "evaluate", 3, "descent", 1),
}
_STARTS = {
    "descent": (([0.1, 0.2], [0.8, 0.9]), [2.0, 2.0]),
    "critical": (([0.0, 0.0], [0.0, 0.0]), [0.0, 0.0]),
}


def _run_failing(monkeypatch, phase, exc):
    """(the run with exc raised in phase, the records a clean run keeps before it)."""
    owner, name, call, start, kept = _PHASES[phase]
    (a, b), x0 = _STARTS[start]
    cfg = AlgoConfig(models=None, max_iters=3, n_loops=3)
    clean = run(two_quadratics(a, b), cfg, x0, seed=0)
    _fail_on_call(monkeypatch, owner, name, call, exc)
    return run(two_quadratics(a, b), cfg, x0, seed=0), clean.iterations[:kept]


@pytest.mark.parametrize("phase, exc", [
    ("model build", LPFailure("forced")),
    ("model build", BudgetExhausted("forced")),
    ("criticality rebuild", LPFailure("forced")),
    ("criticality rebuild", BudgetExhausted("forced")),
    ("step", LPFailure("forced")),
    ("trial evaluation", ObjectiveFailure("forced")),
    ("trial evaluation", BudgetExhausted("forced")),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_a_failure_in_any_phase_ends_the_run_with_one_stop(monkeypatch, phase, exc):
    rep, kept = _run_failing(monkeypatch, phase, exc)
    if isinstance(exc, BudgetExhausted):
        assert (rep.stop_reason, rep.anomalies) == (STOP_BUDGET, [])
    else:
        stop = f"error:{type(exc).__name__}"
        assert (rep.stop_reason, rep.anomalies) == (stop, [f"t={len(kept)}: forced"])
    assert rep.iterations == kept
    assert sum(rep.violations.values()) == 0


@pytest.mark.parametrize("phase, exc, stop, anomalies", [
    ("step", BudgetExhausted("forced"), STOP_BUDGET, []),
    ("trial evaluation", LPFailure("forced"), "error:LPFailure", ["t=1: forced"]),
], ids=["step-BudgetExhausted", "trial-LPFailure"])
def test_every_phase_maps_an_error_to_the_same_stop(monkeypatch, phase, exc, stop, anomalies):
    # the one failure boundary does not depend on which phase raised
    rep, kept = _run_failing(monkeypatch, phase, exc)
    assert (rep.stop_reason, rep.anomalies, rep.iterations) == (stop, anomalies, kept)


def test_a_cheap_gradient_that_is_not_finite_stops_the_run_as_objective_failure():
    # f1 = sqrt(x0) + x1^2 has an infinite partial derivative on the face x0 = 0
    def grad(X):
        with np.errstate(divide="ignore"):
            return np.column_stack([0.5 / np.sqrt(X[:, 0]), 2.0 * X[:, 1]])

    prob = MOProblem(
        2, 2,
        [lambda X: np.sqrt(X[:, 0]) + X[:, 1] ** 2, lambda X: (X[:, 0] - 1.0) ** 2 + X[:, 1]],
        np.array([False, True]), FeasibleSet.box([0.0, 0.0], [1.0, 1.0]), [grad, None],
    )
    cfg = AlgoConfig(models=MODEL_SPECS["rbf-cubic"], step=StepConfig(method="strict-pc"))
    rep = run(prob, cfg, [0.0, 0.5], seed=0)
    assert rep.stop_reason == "error:ObjectiveFailure"
    assert rep.anomalies == ["t=0: gradient of objective 0 is not finite"]
    assert rep.iterations == []


def test_a_step_that_stays_at_its_center_is_checked_like_any_other(monkeypatch):
    # a zero step certifies (0, 0); a step method that returns its own center
    # with a positive bound has not certified its decrease
    real_step = driver.compute_step

    def stays(bundle, center, radius, crit, cfg, fs):
        res = real_step(bundle, center, radius, crit, cfg, fs)
        assert res.certificate_rhs > 0.0
        return dataclasses.replace(
            res, step=np.zeros_like(center), trial=center.copy(), certificate_lhs=0.0
        )

    monkeypatch.setattr(driver, "compute_step", stays)
    prob = two_quadratics([0.1, 0.2], [0.8, 0.9])
    rep = run(prob, AlgoConfig(models=None, max_iters=2), [2.0, 2.0], seed=0)
    assert len(rep.iterations) == 2
    assert rep.violations["sufficient_decrease"] == 2
