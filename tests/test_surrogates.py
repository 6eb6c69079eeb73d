import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_trm.errors import BudgetExhausted, PoisednessRepairStalled
from pareto_trm.linalg import fd_gradient, halton
from pareto_trm.problem import EvaluationDatabase, FeasibleSet, MOProblem
from pareto_trm.surrogates import (
    MODEL_SPECS,
    ExactCheapModel,
    ModelSpec,
    _LagrangeMachine,
    _region_box,
    adaptive_shape,
    build_bundle,
    build_lagrange,
    build_rbf,
    build_taylor_fd,
    hessian_bound,
    kernel_value,
    model_debug_json,
)
from pareto_trm.testbed import FIRST_CHEAP, FIRST_EXPENSIVE, TestProblemSpec, make_problem


def scalar_problem(fn, n, box=None, expensive=True, name="scalar"):
    fs = FeasibleSet.box(*box) if box else FeasibleSet.unconstrained()
    return MOProblem(n, 1, [fn], np.array([expensive]), fs, name=name)


def lagrange_machine(spec, center, radius, fs):
    """The degree-1 machine build_lagrange runs on B(center; theta1 * radius)."""
    center = np.asarray(center, dtype=float)
    R1 = spec.theta1 * radius
    lo, hi = _region_box(center, R1, fs)
    return _LagrangeMachine(center.size, center, R1, lo, hi, spec.lambda_poised)


def lagrange_basis_max_on_vertices(model, lo, hi):
    """max |l_i| over the box [lo, hi] for a linear model's training sites.

    The basis comes from inverting the [1, t] site matrix; a linear polynomial
    peaks at a vertex, so enumerating all 2^n vertices gives the exact maximum.
    """
    n = lo.size
    sites = (model.training_sites - model.center) / model.R
    coeffs = np.linalg.inv(np.column_stack([np.ones(len(sites)), sites]))
    bits = np.array(np.meshgrid(*[[0, 1]] * n, indexing="ij")).reshape(n, -1).T
    T = (np.where(bits.astype(bool), hi, lo) - model.center) / model.R
    return float(np.max(np.abs(np.column_stack([np.ones(len(T)), T]) @ coeffs)))


def test_kernel_table_values():
    assert kernel_value("cubic", 2.0) == pytest.approx(8.0)
    assert kernel_value("gaussian", 0.0, alpha=1.0) == pytest.approx(1.0)
    assert kernel_value("multiquadric", 0.0, alpha=1.0) == pytest.approx(-1.0)


def test_adaptive_shape():
    assert adaptive_shape(0.1, 20.0, 1e-2, 1e3) == pytest.approx(200.0)
    assert adaptive_shape(1e6, 20.0, 1e-2, 1e3) == pytest.approx(1e-2)
    assert adaptive_shape(1e-9, 20.0, 1e-2, 1e3) == pytest.approx(1e3)


def test_lambda_must_exceed_one():
    with pytest.raises(ValueError):
        ModelSpec(kind="lagrange", lambda_poised=1.0)


class TestRBF:
    def test_affine_reproduction(self):
        prob = scalar_problem(lambda x: 3.0 * x[0] + 1.0, 1, box=([0.0], [1.0]))
        db = EvaluationDatabase(prob)
        spec = MODEL_SPECS["rbf-cubic"]
        model = build_rbf(0, db, spec, np.array([0.5]), 0.25, 0.5, prob.feasible.scaled())
        xs = np.linspace(0.0, 1.0, 21)[:, None]
        np.testing.assert_allclose(model.values(xs), 3.0 * xs[:, 0] + 1.0, atol=1e-8)
        assert np.max(np.abs(model.coeffs)) <= 1e-8  # kernel part vanishes
        np.testing.assert_allclose(model.gradient(np.array([0.3])), [3.0], atol=1e-8)

    def test_interpolates_training_sites(self, rng):
        prob = scalar_problem(
            lambda x: float(np.sin(3 * x[0]) + x[1] ** 2), 2, box=([0, 0], [1, 1])
        )
        db = EvaluationDatabase(prob)
        # seed the database so extra points get recycled into the model
        for z in halton(8, 2, offset=5):
            db.evaluate(z)
        spec = MODEL_SPECS["rbf-cubic"]
        center = np.array([0.5, 0.5])
        model = build_rbf(0, db, spec, center, 0.2, 0.5, prob.feasible.scaled())
        for site in model.training_sites:
            f = db.evaluate(site)[0]
            assert abs(model.value(site) - f) <= 1e-7 * (1 + abs(f))

    def test_first_build_uses_n_plus_one_sites(self):
        fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
        prob = MOProblem(
            2,
            2,
            [lambda x: float(x[0] ** 2 + x[1]), lambda x: float(x[0])],
            np.array([True, False]),
            fs,
            [None, lambda x: np.array([1.0, 0.0])],
        )
        db = EvaluationDatabase(prob)
        bundle = build_bundle(prob, db, MODEL_SPECS["rbf-cubic"], np.array([0.5, 0.5]), 0.1, 0.5)
        assert bundle.new_sites == 3
        assert bundle.fully_linear
        assert db.eval_counts[0] == 3 and db.eval_counts[1] == 0
        rebuilt = build_bundle(prob, db, MODEL_SPECS["rbf-cubic"], np.array([0.5, 0.5]), 0.1, 0.5)
        assert rebuilt.new_sites == 0  # full recycling

    def test_gradient_hessian_consistency(self, rng):
        prob = scalar_problem(
            lambda x: float(np.exp(x[0]) * np.cos(2 * x[1])), 2, box=([0, 0], [1, 1])
        )
        db = EvaluationDatabase(prob)
        for z in halton(10, 2, offset=11):
            db.evaluate(z)
        for name in ("rbf-cubic", "rbf-multiquadric", "rbf-gaussian"):
            model = build_rbf(
                0, db, MODEL_SPECS[name], np.array([0.4, 0.6]), 0.2, 0.5,
                prob.feasible.scaled(),
            )
            u = np.array([0.45, 0.55])
            h = 1e-6
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (model.value(u + e) - model.value(u - e)) / (2 * h)
                assert model.gradient(u)[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)
                fd_h = (model.gradient(u + e) - model.gradient(u - e)) / (2 * h)
                np.testing.assert_allclose(model.hessian(u)[i], fd_h, rtol=1e-3, atol=1e-4)

    def test_collinear_database_gets_offline_point(self):
        # degenerate geometry in the database is repaired with a fresh point
        prob = scalar_problem(lambda x: float(x[0] + x[1]), 2, box=([-1, -1], [1, 1]))
        db = EvaluationDatabase(prob)
        for x0 in (0.0, 0.1, 0.2):
            db.evaluate([x0 - 0.0, 0.0] if x0 else [0.0, 0.0])
        model = build_rbf(
            0, db, MODEL_SPECS["rbf-cubic"], np.zeros(2), 0.2, 0.5,
            prob.feasible.scaled(),
        )
        T = model.training_sites
        spans = T[1:] - T[0]
        assert np.linalg.matrix_rank(spans, tol=1e-8) == 2

    def test_budget_exhausted_propagates(self):
        prob = scalar_problem(lambda x: float(x[0]), 2, box=([0, 0], [1, 1]))
        db = EvaluationDatabase(prob, max_expensive=2)
        with pytest.raises(BudgetExhausted):
            build_rbf(
                0, db, MODEL_SPECS["rbf-cubic"], np.array([0.5, 0.5]), 0.1, 0.5,
                prob.feasible.scaled(),
            )


class TestLagrange:
    def test_kronecker_property_degree1(self):
        db_sites = [np.array([0.0]), np.array([1.0])]
        machine = lagrange_machine(
            MODEL_SPECS["lagrange-1"], [0.0], 0.5, FeasibleSet.box([0.0], [1.0])
        )
        machine.select(db_sites)
        machine.repair(10 * machine.p, db_sites=db_sites)
        sites = np.vstack(machine.sites)
        L = machine.lagrange_values(sites)
        np.testing.assert_allclose(L, np.eye(len(machine.sites)), atol=1e-9)

    def test_degree2_reproduces_quadratic(self):
        prob = scalar_problem(lambda x: float(x[0] ** 2), 1, box=([0.0], [1.0]))
        db = EvaluationDatabase(prob)
        for v in (0.0, 0.5, 1.0):
            db.evaluate([v])
        model = build_lagrange(
            0, db, MODEL_SPECS["lagrange-2"], np.array([0.5]), 0.3,
            prob.feasible.scaled(),
        )
        xs = np.linspace(0, 1, 31)[:, None]
        np.testing.assert_allclose(model.values(xs), xs[:, 0] ** 2, atol=1e-8)

    def test_lambda_certificate_by_dense_sampling(self):
        spec = MODEL_SPECS["lagrange-1"]
        fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
        # a poorly poised database forces repair swaps before the set certifies
        huddle = [np.array([0.5, 0.5]) + 0.02 * np.array(v) for v in ((1, 0), (0, 1))]
        machine = lagrange_machine(spec, [0.5, 0.5], 0.1, fs)
        machine.select(huddle)
        machine.repair(10 * machine.p, db_sites=huddle)
        xs = np.linspace(machine.lo[0], machine.hi[0], 80)
        ys = np.linspace(machine.lo[1], machine.hi[1], 80)
        A, B = np.meshgrid(xs, ys, indexing="ij")
        grid = np.column_stack([A.ravel(), B.ravel()])
        L = machine.lagrange_values(grid)
        assert np.max(np.abs(L)) <= spec.lambda_poised * (1 + 1e-9)

    def test_repair_cap_raises_stalled(self):
        spec = MODEL_SPECS["lagrange-1"]
        fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
        # database points huddled near the center: the greedy selection takes
        # them and is far from Lambda-poised, so a zero swap cap must raise
        huddle = [
            np.array([0.5, 0.5]) + 0.02 * np.array(v)
            for v in ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1))
        ]
        machine = lagrange_machine(spec, [0.5, 0.5], 0.1, fs)
        machine.select(huddle)
        with pytest.raises(PoisednessRepairStalled):
            machine.repair(0, db_sites=huddle)
        # the default cap certifies the same selection
        machine.repair(10 * machine.p, db_sites=huddle)
        _, peaks = machine.box_peaks(machine.L)
        assert np.max(peaks) <= spec.lambda_poised * (1 + 1e-9)

    def test_lambda_certificate_exact_in_high_dimension(self):
        n = 12
        spec = MODEL_SPECS["lagrange-1"]
        prob = scalar_problem(
            lambda x: float(np.sum(x**2)), n, box=(np.zeros(n), np.ones(n))
        )
        db = EvaluationDatabase(prob)
        center = np.full(n, 0.5)
        for z in np.clip(center + 0.2 * (2 * halton(30, n, offset=11) - 1), 0, 1):
            db.evaluate(z)
        fs = prob.feasible.scaled()
        model = build_lagrange(0, db, spec, center, 0.1, fs)
        lo, hi = _region_box(center, spec.theta1 * 0.1, fs)
        assert lagrange_basis_max_on_vertices(model, lo, hi) <= spec.lambda_poised * (1 + 1e-9)

    def test_interpolation_at_sites(self):
        prob = scalar_problem(
            lambda x: float(np.cos(x[0]) * x[1]), 2, box=([0, 0], [1, 1])
        )
        db = EvaluationDatabase(prob)
        model = build_lagrange(
            0, db, MODEL_SPECS["lagrange-2"], np.array([0.3, 0.7]), 0.15,
            prob.feasible.scaled(),
        )
        for site in model.training_sites:
            f = db.evaluate(site)[0]
            assert abs(model.value(site) - f) <= 1e-7 * (1 + abs(f))

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_stencil_path(self, n):
        prob = scalar_problem(
            lambda x: float(np.sum(x**2)), n, box=(np.zeros(n), np.ones(n))
        )
        db = EvaluationDatabase(prob)
        model = build_lagrange(
            0, db, MODEL_SPECS["lagrange-2"], np.full(n, 0.5), 0.1,
            prob.feasible.scaled(),
        )
        assert model.fully_linear
        assert len(model.training_sites) == (n + 1) * (n + 2) // 2
        pts = 0.4 + 0.2 * halton(20, n, offset=3)
        np.testing.assert_allclose(model.values(pts), np.sum(pts**2, axis=1), atol=1e-7)

    def test_stencil_near_face(self):
        # the center sits 2e-8 above a lower face: the stencil stays two-sided
        # there, so the system is badly conditioned but must still solve
        n = 3
        quad = lambda x: float(x[0] ** 2 + 2.0 * x[0] * x[1] - x[2] + 0.5 * x[1] ** 2)
        prob = scalar_problem(quad, n, box=(np.zeros(n), np.ones(n)))
        db = EvaluationDatabase(prob)
        center = np.array([2e-8, 0.5, 0.5])
        model = build_lagrange(
            0, db, MODEL_SPECS["lagrange-2"], center, 0.1, prob.feasible.scaled()
        )
        assert len(model.training_sites) == (n + 1) * (n + 2) // 2
        assert all(prob.feasible.contains(s) for s in model.training_sites)
        pts = np.clip(center + 0.2 * (2 * halton(20, n, offset=5) - 1), 0.0, 1.0)
        np.testing.assert_allclose(
            model.values(pts), [quad(p) for p in pts], atol=1e-6
        )

    def test_evaluation_count_matches_new_sites(self):
        prob = scalar_problem(lambda x: float(x[0] * x[1]), 2, box=([0, 0], [1, 1]))
        db = EvaluationDatabase(prob)
        before = len(db)
        model = build_lagrange(
            0, db, MODEL_SPECS["lagrange-2"], np.array([0.5, 0.5]), 0.1,
            prob.feasible.scaled(),
        )
        assert len(db) - before == len(model.training_sites)
        assert db.eval_counts[0] == len(model.training_sites)


class TestTaylor:
    def test_linear_exactness(self):
        prob = scalar_problem(lambda x: float(2 * x[0] - 1.0), 1, box=([0.0], [1.0]))
        db = EvaluationDatabase(prob)
        model = build_taylor_fd(
            0, db, MODEL_SPECS["taylor-fd1"], np.array([0.4]), 0.2, prob.feasible.scaled()
        )
        xs = np.linspace(0, 1, 11)[:, None]
        np.testing.assert_allclose(model.values(xs), 2 * xs[:, 0] - 1.0, atol=1e-10)

    def test_quadratic_slope_exact_central(self):
        prob = scalar_problem(lambda x: float(x[0] ** 2), 1, box=([0.0], [1.0]))
        db = EvaluationDatabase(prob)
        model = build_taylor_fd(
            0, db, MODEL_SPECS["taylor-fd1"], np.array([0.5]), 0.2, prob.feasible.scaled()
        )
        assert model.gradient(np.array([0.5]))[0] == pytest.approx(1.0, abs=1e-9)

    def test_one_sided_at_face_keeps_db_feasible(self):
        prob = scalar_problem(lambda x: float(x[0] + x[1]), 2, box=([0, 0], [1, 1]))
        db = EvaluationDatabase(prob)
        build_taylor_fd(
            0, db, MODEL_SPECS["taylor-fd1"], np.array([0.0, 0.5]), 0.2,
            prob.feasible.scaled(),
        )
        for site in db.sites:
            assert prob.feasible.contains(site)

    def test_cost_is_2n_plus_1(self):
        prob = scalar_problem(lambda x: float(np.sum(x)), 3, box=(np.zeros(3), np.ones(3)))
        db = EvaluationDatabase(prob)
        build_taylor_fd(
            0, db, MODEL_SPECS["taylor-fd1"], np.full(3, 0.5), 0.2, prob.feasible.scaled()
        )
        assert db.eval_counts[0] == 2 * 3 + 1


class TestHessianBound:
    def test_linear_model_clamps(self):
        prob = scalar_problem(lambda x: float(x[0]), 1, box=([0.0], [1.0]))
        db = EvaluationDatabase(prob)
        model = build_taylor_fd(
            0, db, MODEL_SPECS["taylor-fd1"], np.array([0.5]), 0.2, prob.feasible.scaled()
        )
        H = hessian_bound([model], np.array([0.5]), 0.2, prob.feasible.scaled(), c=2.0)
        assert H == pytest.approx(1.01 / 2.0)

    def test_quadratic_exact_before_clamp(self):
        from pareto_trm.surrogates import PolyModel

        model = PolyModel(np.zeros(2), 1.0, 0.0, np.zeros(2), 2.0 * np.eye(2), 2)
        lo, hi = -np.ones(2), np.ones(2)
        assert model.hessian_norm_bound(lo, hi) == pytest.approx(2.0 * np.sqrt(2.0))

    def test_rbf_bound_dominates_grid(self):
        prob = scalar_problem(
            lambda x: float(np.sin(4 * x[0]) * x[1]), 2, box=([0, 0], [1, 1])
        )
        db = EvaluationDatabase(prob)
        for z in halton(9, 2, offset=23):
            db.evaluate(z)
        model = build_rbf(
            0, db, MODEL_SPECS["rbf-cubic"], np.array([0.5, 0.5]), 0.2, 0.5,
            prob.feasible.scaled(),
        )
        lo, hi = np.array([0.3, 0.3]), np.array([0.7, 0.7])
        bound = model.hessian_norm_bound(lo, hi, model.training_sites)
        xs = np.linspace(0.3, 0.7, 25)
        worst = max(
            np.linalg.norm(model.hessian(np.array([a, b]))) for a in xs for b in xs
        )
        assert bound >= worst * 0.999


def row_loop_gradient(prob, idx, u):
    """Scaled-space gradient of a cheap objective at one point of the unit box:
    its callback, or fd_gradient over one objective call per stencil point."""
    width = prob.feasible.width()
    cb = prob.gradient_callbacks[idx]
    if cb is not None:
        return np.asarray(cb(prob.unscale(u)), dtype=float) * width
    fn = prob.objectives[idx]
    n = u.size
    return fd_gradient(lambda z: float(fn(prob.unscale(z))), u, 1e-7, np.zeros(n), np.ones(n))


def row_loop_hessian(prob, idx, u):
    """Symmetrized difference Hessian at u, one stencil row and one gradient at
    a time, with the +-1e-5 stencil clipped into the unit box."""
    n = u.size
    h = 1e-5
    H = np.empty((n, n))
    for i in range(n):
        up = min(u[i] + h, 1.0)
        dn = max(u[i] - h, 0.0)
        up_pt, dn_pt = u.copy(), u.copy()
        up_pt[i], dn_pt[i] = up, dn
        span = up - dn
        if span <= 0:
            H[i] = 0.0
            continue
        H[i] = (row_loop_gradient(prob, idx, up_pt) - row_loop_gradient(prob, idx, dn_pt)) / span
    return 0.5 * (H + H.T)


# (problem, n, pattern): every cheap objective wraps a gradient callback except DTLZ6's
CHEAP_OBJECTIVES = [
    ("ZDT1", 5, FIRST_CHEAP),
    ("T6", 2, FIRST_CHEAP),
    ("T6", 2, FIRST_EXPENSIVE),
    ("DTLZ1", 6, FIRST_CHEAP),
    ("DTLZ1", 16, FIRST_CHEAP),  # past n = 12 the sample spans several stencil batches
    ("DTLZ6", 3, FIRST_CHEAP),
    ("DTLZ6", 6, FIRST_CHEAP),
]


@st.composite
def cheap_model_boxes(draw):
    """A cheap objective and a region box that may touch a face or be flat."""
    name, n, pattern = draw(st.sampled_from(CHEAP_OBJECTIVES))
    prob = make_problem(TestProblemSpec(name, n, pattern))
    coord = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    center = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    radius = 10.0 ** draw(st.floats(-8.0, math.log10(0.3)))
    lo, hi = _region_box(center, radius, prob.feasible.scaled())
    flat = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    lo = np.where(flat, hi, lo)  # zero-width sides: lo_i = hi_i
    return prob, lo, hi, draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cheap_model_boxes())
def test_cheap_model_matches_row_loop_bit_for_bit(case):
    prob, lo, hi, seed = case
    idx = int(np.flatnonzero(~prob.expensive_mask)[0])
    model = ExactCheapModel(prob, idx)
    pts = lo + halton(25, lo.size, offset=17 + seed) * (hi - lo)
    fn = prob.objectives[idx]
    assert np.array_equal(model.values(pts), [float(fn(prob.unscale(p))) for p in pts])
    assert np.array_equal(model.gradients(pts), [row_loop_gradient(prob, idx, p) for p in pts])
    worst = max(float(np.linalg.norm(row_loop_hessian(prob, idx, p))) for p in pts)
    assert model.hessian_norm_bound(lo, hi, seed=seed) == 1.1 * worst


def test_all_cheap_bundle_is_free():
    fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
    prob = MOProblem(
        2,
        2,
        [lambda x: float(np.sum((x - 0.2) ** 2)), lambda x: float(np.sum((x - 0.8) ** 2))],
        np.array([False, False]),
        fs,
        [lambda x: 2 * (x - 0.2), lambda x: 2 * (x - 0.8)],
    )
    db = EvaluationDatabase(prob)
    bundle = build_bundle(prob, db, None, np.array([0.5, 0.5]), 0.1, 0.5)
    assert bundle.fully_linear
    assert bundle.new_sites == 0
    assert len(db) == 0
    u = np.array([0.4, 0.6])
    np.testing.assert_allclose(
        bundle.values(u), [np.sum((u - 0.2) ** 2), np.sum((u - 0.8) ** 2)], atol=1e-12
    )
    # scaled-space gradients include the box width chain rule (width 1 here)
    np.testing.assert_allclose(bundle.gradients(u)[0], 2 * (u - 0.2), atol=1e-10)


def test_model_debug_json_golden(tmp_path):
    prob = scalar_problem(lambda x: float(x[0] + 2 * x[1]), 2, box=([0, 0], [1, 1]))
    db = EvaluationDatabase(prob)
    model = build_rbf(
        0, db, MODEL_SPECS["rbf-cubic"], np.array([0.5, 0.5]), 0.1, 0.5,
        prob.feasible.scaled(),
    )
    dump = model_debug_json(model)
    golden = (
        __file__.replace("test_surrogates.py", "golden/rbf_model.json")
    )
    with open(golden, encoding="utf-8") as fh:
        assert dump == fh.read()
