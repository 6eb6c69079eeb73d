import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, row_loop
from pareto_trm import surrogates
from pareto_trm.errors import (
    BudgetExhausted,
    DimensionMismatch,
    PoisednessRepairStalled,
    SingularMatrix,
)
from pareto_trm.linalg import halton, solve_linear
from pareto_trm.problem import EvaluationDatabase, FeasibleSet, MOProblem, region_box
from pareto_trm.surrogates import (
    ALPHA_HI,
    ALPHA_LO,
    C_ALPHA,
    KERNELS,
    LAMBDA_POISED,
    MODEL_SPECS,
    SHAPE_ALPHA,
    TAYLOR_FD_STEP,
    THETA1,
    THETA2,
    ExactCheapModel,
    PolyModel,
    RBFModel,
    _affine_set,
    _basis_eval,
    _coeffs_to_quadratic,
    _extra_sites,
    _kernel_a,
    _kernel_w,
    _LagrangeMachine,
    _stencil_sites,
    adaptive_shape,
    build_bundle,
    build_lagrange,
    build_rbf,
    build_taylor_fd,
    hessian_bound,
    kernel_value,
)
from pareto_trm.testbed import (
    ALL_EXPENSIVE,
    FIRST_CHEAP,
    FIRST_EXPENSIVE,
    TestProblemSpec,
    make_problem,
)


def scalar_problem(fn, n, box=None, expensive=True, name="scalar"):
    """A one-objective problem whose objective calls the one-point fn row by row."""
    fs = FeasibleSet.box(*box) if box else FeasibleSet.unconstrained()
    return MOProblem(n, 1, [row_loop(fn)], np.array([expensive]), fs, name=name)


def lagrange_machine(center, radius, fs):
    """The degree-1 machine build_lagrange runs on B(center; THETA1 * radius)."""
    center = np.asarray(center, dtype=float)
    R1 = THETA1 * radius
    lo, hi = region_box(center, R1, fs)
    return _LagrangeMachine(center.size, center, R1, lo, hi)


def lagrange_basis_max_on_vertices(sites, model, lo, hi):
    """max |l_i| over the box [lo, hi] for the sites of a linear model.

    The basis comes from inverting the [1, t] site matrix; a linear polynomial
    peaks at a vertex, so enumerating all 2^n vertices gives the exact maximum.
    """
    n = lo.size
    local = (sites - model.center) / model.R
    coeffs = np.linalg.inv(np.column_stack([np.ones(len(local)), local]))
    bits = np.array(np.meshgrid(*[[0, 1]] * n, indexing="ij")).reshape(n, -1).T
    T = (np.where(bits.astype(bool), hi, lo) - model.center) / model.R
    return float(np.max(np.abs(np.column_stack([np.ones(len(T)), T]) @ coeffs)))


def rbf_hessian(model, u):
    """Hessian of an RBF model at one point, one site at a time."""
    t = model._local(u)[0]
    diff = t[None, :] - model.T
    r = np.sqrt(np.maximum(np.sum(diff**2, axis=1), 0.0))
    n = t.size
    H = np.zeros((n, n))
    w = _kernel_w(model.kernel, r, model.alpha_local)
    a = _kernel_a(model.kernel, r, model.alpha_local)
    for i in range(model.T.shape[0]):
        v = diff[i]
        if r[i] > 1e-14:
            H += model.coeffs[i] * (a[i] * np.outer(v, v) + w[i] * np.eye(n))
        else:
            H += model.coeffs[i] * w[i] * np.eye(n)
    return H / model.R**2


def test_kernel_table_values():
    assert kernel_value("cubic", 2.0) == pytest.approx(8.0)
    assert kernel_value("gaussian", 0.0, alpha=1.0) == pytest.approx(1.0)
    assert kernel_value("multiquadric", 0.0, alpha=1.0) == pytest.approx(-1.0)


def test_adaptive_shape():
    assert (C_ALPHA, ALPHA_LO, ALPHA_HI) == (20.0, 1e-2, 1e3)
    assert adaptive_shape(0.1) == pytest.approx(200.0)
    assert adaptive_shape(1e6) == pytest.approx(1e-2)
    assert adaptive_shape(1e-9) == pytest.approx(1e3)


class TestRBF:
    def test_affine_reproduction(self):
        prob = scalar_problem(lambda x: 3.0 * x[0] + 1.0, 1, box=([0.0], [1.0]))
        db = EvaluationDatabase(prob)
        spec = MODEL_SPECS["rbf-cubic"]
        _, (model,) = build_rbf(db, spec, np.array([0.5]), 0.25, 0.5, prob.unit)
        xs = np.linspace(0.0, 1.0, 21)[:, None]
        np.testing.assert_allclose(model.values(xs), 3.0 * xs[:, 0] + 1.0, atol=1e-8)
        assert np.max(np.abs(model.coeffs)) <= 1e-8  # kernel part vanishes
        np.testing.assert_allclose(model.gradients(np.array([0.3]))[0], [3.0], atol=1e-8)

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
        sites, (model,) = build_rbf(db, spec, center, 0.2, 0.5, prob.unit)
        for site in sites:
            f = db.evaluate(site)[0]
            assert abs(model.values(site)[0] - f) <= 1e-7 * (1 + abs(f))

    @pytest.mark.parametrize("model", ["rbf-multiquadric", "rbf-gaussian"])
    def test_near_coincident_extras_fall_back_to_the_affine_sites(self, model):
        # two database sites 5e-12 apart: distinct to the cache (1e-14) and to
        # the near test (1e-12), so both join as extras, but their kernel rows
        # make the saddle system singular and the build refits on the affine set
        quad = lambda x: float(np.sum(x**2) + x[0])
        prob = scalar_problem(quad, 2, box=([0.0, 0.0], [1.0, 1.0]))
        center, fs = np.array([0.5, 0.5]), prob.unit
        db = EvaluationDatabase(prob)
        db.evaluate(np.array([[0.7, 0.7], [0.7 + 5e-12, 0.7]]))
        sites, (built,) = build_rbf(db, MODEL_SPECS[model], center, 0.05, 0.5, fs)
        assert len(db) == 5  # the two extras and three fresh affine sites
        assert len(sites) == 3
        assert not any((np.abs(sites - s).max(axis=1) <= 1e-12).any() for s in db.sites[:2])
        # the model of a database without the extras, which selects the same affine set
        clean = EvaluationDatabase(prob)
        _, (plain,) = build_rbf(clean, MODEL_SPECS[model], center, 0.05, 0.5, fs)
        assert model_state(built) == model_state(plain)

    def test_first_build_uses_n_plus_one_sites(self):
        fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
        prob = MOProblem(
            2,
            2,
            [lambda X: X[:, 0] ** 2 + X[:, 1], lambda X: X[:, 0]],
            np.array([True, False]),
            fs,
            [None, lambda X: np.tile([1.0, 0.0], (len(X), 1))],
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
            _, (model,) = build_rbf(
                db, MODEL_SPECS[name], np.array([0.4, 0.6]), 0.2, 0.5,
                prob.unit,
            )
            u = np.array([0.45, 0.55])
            h = 1e-6
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (model.values(u + e)[0] - model.values(u - e)[0]) / (2 * h)
                assert model.gradients(u)[0][i] == pytest.approx(fd, rel=1e-4, abs=1e-6)
                fd_h = (model.gradients(u + e)[0] - model.gradients(u - e)[0]) / (2 * h)
                np.testing.assert_allclose(rbf_hessian(model, u)[i], fd_h, rtol=1e-3, atol=1e-4)

    def test_collinear_database_gets_offline_point(self):
        # degenerate geometry in the database is repaired with a fresh point
        prob = scalar_problem(lambda x: float(x[0] + x[1]), 2, box=([-1, -1], [1, 1]))
        db = EvaluationDatabase(prob)
        for x0 in (0.0, 0.1, 0.2):
            db.evaluate([x0 - 0.0, 0.0] if x0 else [0.0, 0.0])
        sites, _ = build_rbf(
            db, MODEL_SPECS["rbf-cubic"], np.zeros(2), 0.2, 0.5,
            prob.unit,
        )
        spans = sites[1:] - sites[0]
        assert np.linalg.matrix_rank(spans, tol=1e-8) == 2

    def test_budget_exhausted_propagates(self):
        prob = scalar_problem(lambda x: float(x[0]), 2, box=([0, 0], [1, 1]))
        db = EvaluationDatabase(prob, max_expensive=2)
        with pytest.raises(BudgetExhausted):
            build_rbf(
                db, MODEL_SPECS["rbf-cubic"], np.array([0.5, 0.5]), 0.1, 0.5,
                prob.unit,
            )


class TestLagrange:
    def test_kronecker_property_degree1(self):
        db_sites = [np.array([0.0]), np.array([1.0])]
        machine = lagrange_machine([0.0], 0.5, FeasibleSet.box([0.0], [1.0]))
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
        _, (model,) = build_lagrange(
            db, MODEL_SPECS["lagrange-2"], np.array([0.5]), 0.3,
            prob.unit,
        )
        xs = np.linspace(0, 1, 31)[:, None]
        np.testing.assert_allclose(model.values(xs), xs[:, 0] ** 2, atol=1e-8)

    def test_lambda_certificate_by_dense_sampling(self):
        fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
        # a poorly poised database forces repair swaps before the set certifies
        huddle = [np.array([0.5, 0.5]) + 0.02 * np.array(v) for v in ((1, 0), (0, 1))]
        machine = lagrange_machine([0.5, 0.5], 0.1, fs)
        machine.select(huddle)
        machine.repair(10 * machine.p, db_sites=huddle)
        xs = np.linspace(machine.lo[0], machine.hi[0], 80)
        ys = np.linspace(machine.lo[1], machine.hi[1], 80)
        A, B = np.meshgrid(xs, ys, indexing="ij")
        grid = np.column_stack([A.ravel(), B.ravel()])
        L = machine.lagrange_values(grid)
        assert np.max(np.abs(L)) <= LAMBDA_POISED * (1 + 1e-9)

    def test_repair_cap_raises_stalled(self):
        fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
        # database points huddled near the center: the greedy selection takes
        # them and is far from Lambda-poised, so a zero swap cap must raise
        huddle = [
            np.array([0.5, 0.5]) + 0.02 * np.array(v)
            for v in ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1))
        ]
        machine = lagrange_machine([0.5, 0.5], 0.1, fs)
        machine.select(huddle)
        with pytest.raises(PoisednessRepairStalled):
            machine.repair(0, db_sites=huddle)
        # the default cap certifies the same selection
        machine.repair(10 * machine.p, db_sites=huddle)
        _, peaks = machine.box_peaks(machine.L)
        assert np.max(peaks) <= LAMBDA_POISED * (1 + 1e-9)

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
        fs = prob.unit
        sites, (model,) = build_lagrange(db, spec, center, 0.1, fs)
        lo, hi = region_box(center, THETA1 * 0.1, fs)
        assert lagrange_basis_max_on_vertices(sites, model, lo, hi) <= LAMBDA_POISED * (1 + 1e-9)

    def test_interpolation_at_sites(self):
        prob = scalar_problem(
            lambda x: float(np.cos(x[0]) * x[1]), 2, box=([0, 0], [1, 1])
        )
        db = EvaluationDatabase(prob)
        sites, (model,) = build_lagrange(
            db, MODEL_SPECS["lagrange-2"], np.array([0.3, 0.7]), 0.15,
            prob.unit,
        )
        for site in sites:
            f = db.evaluate(site)[0]
            assert abs(model.values(site)[0] - f) <= 1e-7 * (1 + abs(f))

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_stencil_path(self, n):
        prob = scalar_problem(
            lambda x: float(np.sum(x**2)), n, box=(np.zeros(n), np.ones(n))
        )
        db = EvaluationDatabase(prob)
        sites, (model,) = build_lagrange(
            db, MODEL_SPECS["lagrange-2"], np.full(n, 0.5), 0.1,
            prob.unit,
        )
        assert len(sites) == (n + 1) * (n + 2) // 2
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
        sites, (model,) = build_lagrange(
            db, MODEL_SPECS["lagrange-2"], center, 0.1, prob.unit
        )
        assert len(sites) == (n + 1) * (n + 2) // 2
        assert all(prob.feasible.contains(s) for s in sites)
        pts = np.clip(center + 0.2 * (2 * halton(20, n, offset=5) - 1), 0.0, 1.0)
        np.testing.assert_allclose(
            model.values(pts), [quad(p) for p in pts], atol=1e-6
        )

    def test_stencil_steps_down_at_an_upper_face(self):
        # axis 0 has no room above the center: both of its offsets go down
        center = np.array([1.0, 0.5])
        sites = np.vstack(_stencil_sites(center, 0.2, np.array([0.6, 0.2]), np.array([1.0, 0.9])))
        np.testing.assert_allclose(
            sites,
            [[1.0, 0.5], [0.8, 0.5], [0.9, 0.5], [1.0, 0.7], [1.0, 0.3], [0.8, 0.7]],
            rtol=0, atol=1e-15,
        )
        quad = lambda x: float(x[0] ** 2 - 3.0 * x[0] * x[1] + 0.5 * x[1] ** 2 + x[0])
        prob = scalar_problem(quad, 2, box=([0.0, 0.0], [1.0, 1.0]))
        db = EvaluationDatabase(prob)
        sites, (model,) = build_lagrange(
            db, MODEL_SPECS["lagrange-2"], center, 0.1, prob.unit
        )
        assert all(prob.feasible.contains(s) for s in sites)
        assert np.all(sites[1:3, 0] < 1.0)
        pts = np.clip(center + 0.2 * (2 * halton(20, 2, offset=5) - 1), 0.0, 1.0)
        np.testing.assert_allclose(model.values(pts), [quad(p) for p in pts], atol=1e-9)

    def test_evaluation_count_matches_new_sites(self):
        prob = scalar_problem(lambda x: float(x[0] * x[1]), 2, box=([0, 0], [1, 1]))
        db = EvaluationDatabase(prob)
        before = len(db)
        sites, (model,) = build_lagrange(
            db, MODEL_SPECS["lagrange-2"], np.array([0.5, 0.5]), 0.1,
            prob.unit,
        )
        assert len(db) - before == len(sites)
        assert db.eval_counts[0] == len(sites)


class TestTaylor:
    def test_linear_exactness(self):
        prob = scalar_problem(lambda x: float(2 * x[0] - 1.0), 1, box=([0.0], [1.0]))
        db = EvaluationDatabase(prob)
        _, (model,) = build_taylor_fd(db, np.array([0.4]), 0.2, prob.unit)
        xs = np.linspace(0, 1, 11)[:, None]
        np.testing.assert_allclose(model.values(xs), 2 * xs[:, 0] - 1.0, atol=1e-10)

    def test_quadratic_slope_exact_central(self):
        prob = scalar_problem(lambda x: float(x[0] ** 2), 1, box=([0.0], [1.0]))
        db = EvaluationDatabase(prob)
        _, (model,) = build_taylor_fd(db, np.array([0.5]), 0.2, prob.unit)
        assert model.gradients(np.array([0.5]))[0][0] == pytest.approx(1.0, abs=1e-9)

    def test_one_sided_at_face_keeps_db_feasible(self):
        prob = scalar_problem(lambda x: float(x[0] + x[1]), 2, box=([0, 0], [1, 1]))
        db = EvaluationDatabase(prob)
        build_taylor_fd(db, np.array([0.0, 0.5]), 0.2, prob.unit)
        for site in db.sites:
            assert prob.feasible.contains(site)

    def test_budget_stop_inside_the_stencil_keeps_the_read_order(self):
        prob = scalar_problem(lambda x: float(np.sum(x**2)), 3, box=(np.zeros(3), np.ones(3)))
        center, fs = np.array([0.5, 0.0, 1.0]), prob.unit  # two faces
        full = EvaluationDatabase(prob)
        build_taylor_fd(full, center, 0.2, fs)
        for budget in range(1, len(full)):
            cut = EvaluationDatabase(prob, max_expensive=budget)
            with pytest.raises(BudgetExhausted):
                build_taylor_fd(cut, center, 0.2, fs)
            assert np.array_equal(np.vstack(cut.sites), np.vstack(full.sites[:budget]))

    def test_cost_is_2n_plus_1(self):
        prob = scalar_problem(lambda x: float(np.sum(x)), 3, box=(np.zeros(3), np.ones(3)))
        db = EvaluationDatabase(prob)
        build_taylor_fd(db, np.full(3, 0.5), 0.2, prob.unit)
        assert db.eval_counts[0] == 2 * 3 + 1


class TestHessianBound:
    def test_linear_model_clamps(self):
        prob = scalar_problem(lambda x: float(x[0]), 1, box=([0.0], [1.0]))
        db = EvaluationDatabase(prob)
        _, (model,) = build_taylor_fd(db, np.array([0.5]), 0.2, prob.unit)
        H = hessian_bound([model], np.array([0.5]), 0.2, prob.unit, c=2.0)
        assert H == pytest.approx(1.01 / 2.0)

    def test_quadratic_exact_before_clamp(self):
        model = PolyModel(np.zeros(2), 1.0, 0.0, np.zeros(2), 2.0 * np.eye(2))
        lo, hi = -np.ones(2), np.ones(2)
        assert model.hessian_norm_bound(lo, hi) == pytest.approx(2.0 * np.sqrt(2.0))

    def test_rbf_bound_dominates_grid(self):
        prob = scalar_problem(
            lambda x: float(np.sin(4 * x[0]) * x[1]), 2, box=([0, 0], [1, 1])
        )
        db = EvaluationDatabase(prob)
        for z in halton(9, 2, offset=23):
            db.evaluate(z)
        _, (model,) = build_rbf(
            db, MODEL_SPECS["rbf-cubic"], np.array([0.5, 0.5]), 0.2, 0.5,
            prob.unit,
        )
        lo, hi = np.array([0.3, 0.3]), np.array([0.7, 0.7])
        bound = model.hessian_norm_bound(lo, hi)
        xs = np.linspace(0.3, 0.7, 25)
        worst = max(
            np.linalg.norm(rbf_hessian(model, np.array([a, b]))) for a in xs for b in xs
        )
        assert bound >= worst * 0.999


def rbf_bound_on_u_sites(model, sites, lo, hi, seed=0):
    """The RBF curvature bound as written against the u-space sites: the
    Halton sample and the sites are stacked first, then localized."""
    pts = lo + halton(100, lo.size, offset=29 + seed) * (hi - lo)
    T = model._local(np.vstack([pts, sites]))
    r, diff = model._dists(T)
    w = _kernel_w(model.kernel, r, model.alpha_local)
    a = np.where(r > 1e-14, _kernel_a(model.kernel, r, model.alpha_local), 0.0)
    H = np.einsum("mk,mki,mkj->mij", model.coeffs[None, :] * a, diff, diff)
    trace_part = (model.coeffs[None, :] * w).sum(axis=1)
    H[:, np.arange(T.shape[1]), np.arange(T.shape[1])] += trace_part[:, None]
    norms = np.sqrt(np.einsum("mij,mij->m", H, H)) / model.R**2
    return 1.1 * float(norms.max())


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", [0, 2])
def test_rbf_bound_matches_the_u_space_sites(kernel, seed):
    # a center on two faces: the affine sites clipped into the region box and
    # the center itself lie on those faces
    prob = make_problem(TestProblemSpec("DTLZ6", 6, ALL_EXPENSIVE))
    center, radius, fs = np.array([0.0, 1.0, 0.4, 0.5, 0.6, 0.5]), 0.1, prob.unit
    db = seeded_database(prob, center)
    sites, models = build_rbf(db, MODEL_SPECS[f"rbf-{kernel}"], center, radius, 0.5, fs)
    assert np.any(sites[1:, 0] == 0.0) and np.any(sites[1:, 1] == 1.0)
    # on the region box the sample points decide the cubic bound; at a point
    # far off, where the gaussian and multiquadric terms flatten, the sites do
    far = np.full(6, 10.0)
    for lo, hi in (region_box(center, radius, fs), (far, far)):
        for model in models:
            bound = model.hessian_norm_bound(lo, hi, seed)
            assert bound == rbf_bound_on_u_sites(model, sites, lo, hi, seed)


def coeffs_to_quadratic_loop(a, n):
    """_coeffs_to_quadratic as a double loop over the row-major upper triangle."""
    c0 = float(a[0])
    g = np.array(a[1: n + 1], dtype=float)
    H = np.zeros((n, n))
    pos = n + 1
    for i in range(n):
        for j in range(i, n):
            if i == j:
                H[i, i] = 2.0 * a[pos]
            else:
                H[i, j] = H[j, i] = a[pos]
            pos += 1
    return c0, g, H


@st.composite
def quadratic_coeffs(draw):
    """n in 1..15 and the 1 + n + n(n+1)/2 coefficients of a quadratic, with
    signed zeros among them."""
    n = draw(st.integers(1, 15))
    size = 1 + n + n * (n + 1) // 2
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300))
    return n, np.array(draw(st.lists(value, min_size=size, max_size=size)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(quadratic_coeffs())
def test_coeffs_to_quadratic_matches_the_loop(case):
    n, a = case
    c0, g, H = _coeffs_to_quadratic(a, n)
    c0_loop, g_loop, H_loop = coeffs_to_quadratic_loop(a, n)
    assert np.float64(c0).tobytes() == np.float64(c0_loop).tobytes()
    assert g.tobytes() == g_loop.tobytes()
    assert H.tobytes() == H_loop.tobytes()


MODEL_KINDS = ["poly-1", "poly-2", *(f"rbf-{kernel}" for kernel in KERNELS)]


@st.composite
def model_batches(draw):
    """A PolyModel or RBFModel with random coefficients (up to 31 RBF sites), a
    batch of points around its center and a row selection with repeats."""
    kind = draw(st.sampled_from(MODEL_KINDS))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center, R = rng.random(n), 10.0 ** rng.uniform(-3.0, 0.0)
    if kind.startswith("poly"):
        H = rng.standard_normal((n, n))
        model = PolyModel(
            center, R, rng.standard_normal(), rng.standard_normal(n),
            H + H.T if kind == "poly-2" else None,
        )
    else:
        p = draw(st.integers(1, 31))
        model = RBFModel(
            center, R, rng.uniform(-1.0, 1.0, (p, n)), rng.standard_normal(p),
            rng.standard_normal(), rng.standard_normal(n), kind[4:],
            10.0 ** rng.uniform(-1.0, 1.0),
        )
    m = draw(st.integers(1, 40))
    U = center + R * rng.uniform(-1.5, 1.5, (m, n))
    S = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m))
    return model, U, S


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(model_batches())
def test_model_kernels_are_row_independent(case):
    # F(U)[S] == F(U[S]): box_multistart_minimize evaluates only the pending
    # rows and relies on a row's bits not depending on the rest of its batch
    model, U, S = case
    for fn in (model.values, model.gradients):
        assert np.array_equal(fn(U)[S], fn(U[S]))


def one_point(fn, prob, u):
    """The batch evaluator fn at the one scaled point u, as a batch of one row."""
    return fn(prob.unscale(u)[None])[0]


def row_loop_gradient(prob, idx, u):
    """Scaled-space gradient of a cheap objective at one point of the unit box:
    its gradient evaluator, or fd_gradient over one objective call per stencil
    point."""
    if prob.gradients[idx] is not None:
        return one_point(prob.gradients[idx], prob, u) * prob.width
    n = u.size
    return fd_gradient(
        lambda z: one_point(prob.objectives[idx], prob, z), u, 1e-7, np.zeros(n), np.ones(n)
    )


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


# (problem, n, pattern): all cheap objectives but DTLZ6's and the later ZDT/DTLZ1
# ones have a gradient evaluator
CHEAP_OBJECTIVES = [
    ("ZDT1", 5, FIRST_CHEAP),
    ("T6", 2, FIRST_CHEAP),
    ("T6", 2, FIRST_EXPENSIVE),
    ("DTLZ1", 6, FIRST_CHEAP),
    ("DTLZ1", 16, FIRST_CHEAP),  # past n = 12 the sample spans several stencil batches
    ("DTLZ6", 3, FIRST_CHEAP),
    ("DTLZ6", 6, FIRST_CHEAP),
    ("ZDT2", 5, FIRST_EXPENSIVE),
    ("ZDT3", 5, FIRST_EXPENSIVE),
    ("DTLZ1", 8, FIRST_EXPENSIVE),  # objectives 2..4 cheap
    ("DTLZ6", 8, FIRST_EXPENSIVE),
    ("DTLZ6", 12, FIRST_CHEAP),
]


@st.composite
def cheap_model_boxes(draw):
    """A cheap objective and a region box that may touch a face or be flat."""
    name, n, pattern = draw(st.sampled_from(CHEAP_OBJECTIVES))
    prob = make_problem(TestProblemSpec(name, n, pattern))
    coord = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    center = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    radius = 10.0 ** draw(st.floats(-8.0, math.log10(0.3)))
    lo, hi = region_box(center, radius, prob.unit)
    flat = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    lo = np.where(flat, hi, lo)  # zero-width sides: lo_i = hi_i
    return prob, lo, hi, draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cheap_model_boxes())
def test_cheap_model_matches_row_loop_bit_for_bit(case):
    prob, lo, hi, seed = case
    for idx in np.flatnonzero(~prob.expensive_mask):
        model = ExactCheapModel(prob, idx)
        pts = lo + halton(25, lo.size, offset=17 + seed) * (hi - lo)
        fn = prob.objectives[idx]
        assert np.array_equal(model.values(pts), [one_point(fn, prob, p) for p in pts])
        assert np.array_equal(
            model.gradients(pts), [row_loop_gradient(prob, idx, p) for p in pts]
        )
        worst = max(float(np.linalg.norm(row_loop_hessian(prob, idx, p))) for p in pts)
        assert model.hessian_norm_bound(lo, hi, seed=seed) == 1.1 * worst


def _counted_cheap_problem(value_out=None, grad_out=None):
    """One cheap objective f = x0 * x1 on the unit square with value and
    gradient evaluators that count their calls; value_out / grad_out replace
    their output."""
    calls = {"f": 0, "g": 0}

    def tick(name, out):
        calls[name] += 1
        return out

    prob = MOProblem(
        2, 1,
        [lambda X: tick("f", X[:, 0] * X[:, 1] if value_out is None else value_out(X))],
        np.array([False]),
        FeasibleSet.box([0.0, 0.0], [1.0, 1.0]),
        [lambda X: tick("g", X[:, ::-1].copy() if grad_out is None else grad_out(X))],
    )
    return prob, calls


def test_cheap_model_calls_batch_evaluators_once_per_batch():
    prob, calls = _counted_cheap_problem()
    model = ExactCheapModel(prob, 0)
    U = halton(7, 2)
    assert np.array_equal(model.values(U), U[:, 0] * U[:, 1])
    assert np.array_equal(model.gradients(U), U[:, ::-1])
    model.hessian_norm_bound(np.zeros(2), np.ones(2))
    assert calls == {"f": 1, "g": 2}


@pytest.mark.parametrize(
    "value_out, grad_out",
    [
        (lambda X: X[:, :1], None),  # (m, 1) values
        (lambda X: X[:-1, 0], None),  # one value short
        (None, lambda X: X.ravel()),  # (m n,) gradients
        (None, lambda X: X.T),  # (n, m) gradients
    ],
    ids=["values-column", "values-short", "gradients-flat", "gradients-transposed"],
)
def test_cheap_model_rejects_misshapen_batch_output(value_out, grad_out):
    prob, _ = _counted_cheap_problem(value_out, grad_out)
    model = ExactCheapModel(prob, 0)
    U = halton(3, 2)
    with pytest.raises(DimensionMismatch, match="evaluator of objective 0 returned shape"):
        model.gradients(U) if grad_out is not None else model.values(U)


@pytest.mark.parametrize("method", ["values", "gradients"])
def test_cheap_model_rejects_points_of_the_wrong_length(method):
    # the model unscales with its cached box, and still checks what it unscales
    prob, calls = _counted_cheap_problem(None, None)
    model = ExactCheapModel(prob, 0)
    with pytest.raises(DimensionMismatch, match="expected length 2"):
        getattr(model, method)(halton(3, 3))
    assert calls == {"f": 0, "g": 0}


def test_all_cheap_bundle_is_free():
    fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
    prob = MOProblem(
        2,
        2,
        [lambda X: np.sum((X - 0.2) ** 2, axis=1), lambda X: np.sum((X - 0.8) ** 2, axis=1)],
        np.array([False, False]),
        fs,
        [lambda X: 2 * (X - 0.2), lambda X: 2 * (X - 0.8)],
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


# --- one site set per bundle ------------------------------------------------


def per_objective_rbf(obj_index, db, spec, center, radius, delta_ub, fs):
    """The RBF builder as it was when every expensive objective was built on
    its own: sites selected, read and solved once per objective. Returns the
    objective's sites and its model."""
    center = np.asarray(center, dtype=float)
    n = center.size
    R1 = THETA1 * radius
    lo1, hi1 = region_box(center, R1, fs)
    sites = _affine_set(db, center, R1, lo1, hi1)
    total_cap = (n + 1) * (n + 2) // 2 if n <= 10 else 2 * n + 1
    extras = []
    for site in db.query_ball(center, THETA2 * delta_ub):
        if len(extras) >= max(0, total_cap - (n + 1)):
            break
        if not any(np.max(np.abs(site - s)) <= 1e-12 for s in sites + extras):
            extras.append(site)
    if spec.kernel == "cubic":
        alpha_user = 1.0
    elif spec.shape_mode == "adaptive":
        alpha_user = adaptive_shape(radius)
    else:
        alpha_user = SHAPE_ALPHA
    alpha_local = alpha_user * R1

    def assemble(all_sites):
        fvals = np.array([db.evaluate_scaled(s)[obj_index] for s in all_sites])
        T = (np.vstack(all_sites) - center) / R1
        N, p = len(all_sites), n + 1
        r = np.sqrt(np.maximum(np.sum((T[:, None, :] - T[None, :, :]) ** 2, axis=2), 0.0))
        P = np.ones((p, N))
        P[1:, :] = T.T
        M = np.zeros((N + p, N + p))
        M[:N, :N] = kernel_value(spec.kernel, r, alpha_local)
        M[:N, N:] = P.T
        M[N:, :N] = P
        sol = solve_linear(M, np.concatenate([fvals, np.zeros(p)]))
        return T, sol[:N], sol[N:]

    try:
        used = sites + extras
        T, coeffs, lam = assemble(used)
    except SingularMatrix:
        used = sites
        T, coeffs, lam = assemble(used)
    return np.vstack(used), RBFModel(
        center, R1, T, coeffs, float(lam[0]), lam[1:], spec.kernel, alpha_local
    )


def per_objective_lagrange2(obj_index, db, spec, center, radius, fs):
    center = np.asarray(center, dtype=float)
    R1 = THETA1 * radius
    lo1, hi1 = region_box(center, R1, fs)
    sites = _stencil_sites(center, R1, lo1, hi1)
    M = _basis_eval((np.vstack(sites) - center) / R1, 2)
    fvals = np.array([db.evaluate_scaled(s)[obj_index] for s in sites])
    c0, g, H = _coeffs_to_quadratic(solve_linear(M, fvals), center.size)
    return np.vstack(sites), PolyModel(center, R1, c0, g, H)


def per_objective_taylor_fd(obj_index, db, spec, center, radius, fs):
    center = np.asarray(center, dtype=float)
    h = TAYLOR_FD_STEP * max(radius, 1e-8)
    f0 = float(db.evaluate_scaled(center)[obj_index])
    sites = [center.copy()]

    def scalar(u):
        sites.append(u.copy())
        return float(db.evaluate_scaled(u)[obj_index])

    g = fd_gradient(scalar, center, h, fs.lower, fs.upper)
    return np.vstack(sites), PolyModel(center, 1.0, f0, g)


def per_objective_models(prob, db, name, center, radius, delta_ub):
    """(sites, model) of every expensive objective built on its own, in
    objective order."""
    spec, fs = MODEL_SPECS[name], prob.unit
    out = []
    for idx in prob.expensive_indices:
        if spec.kind == "rbf":
            out.append(per_objective_rbf(idx, db, spec, center, radius, delta_ub, fs))
        elif spec.kind == "lagrange":
            out.append(per_objective_lagrange2(idx, db, spec, center, radius, fs))
        else:
            out.append(per_objective_taylor_fd(idx, db, spec, center, radius, fs))
    return out


def model_state(model) -> dict:
    """Every attribute of a fitted model, arrays as nested lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(model).items()}


def first_occurrences(rows):
    keep = []
    for r in rows:
        if not any(np.array_equal(r, k) for k in keep):
            keep.append(r)
    return np.vstack(keep)


class ReadLog(EvaluationDatabase):
    """A database that logs every scaled read: its rows, and one entry per call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads, self.calls = [], 0

    def evaluate_scaled(self, z):
        self.reads.extend(tuple(row) for row in np.atleast_2d(np.asarray(z, dtype=float)))
        self.calls += 1
        return super().evaluate_scaled(z)


def seeded_database(prob, center, count=12, cls=EvaluationDatabase):
    """A database holding `count` Halton sites around a scaled center."""
    db = cls(prob)
    n = prob.n_vars
    for z in np.clip(center + 0.3 * (2 * halton(count, n, offset=3) - 1), 0.0, 1.0):
        db.evaluate_scaled(z)
    return db


# all-expensive problems; each center in scaled coordinates, the second on a face
SHARED_SITE_CASES = [
    ("T6", 2, np.array([0.4, 0.6])),
    ("T6", 2, np.array([0.0, 0.3])),
    ("DTLZ6", 12, np.full(12, 0.45)),
    ("DTLZ6", 12, np.concatenate([[0.6, 0.5, 0.4], np.zeros(9)])),
]
SHARED_SITE_MODELS = ["rbf-cubic", "rbf-gaussian-adaptive", "lagrange-1", "lagrange-2", "taylor-fd1"]


@pytest.mark.parametrize("model", SHARED_SITE_MODELS)
@pytest.mark.parametrize("case", range(len(SHARED_SITE_CASES)))
def test_bundle_shares_sites_and_reads_each_once(case, model, monkeypatch):
    name, n, center = SHARED_SITE_CASES[case]
    prob = make_problem(TestProblemSpec(name, n, ALL_EXPENSIVE))
    db = seeded_database(prob, center, cls=ReadLog)
    db.reads, db.calls = [], 0
    returned = []  # the site set of every builder call

    def recorded(builder):
        def build(*args):
            sites, models = builder(*args)
            returned.append(sites)
            return sites, models

        return build

    for builder in ("build_rbf", "build_lagrange", "build_taylor_fd"):
        monkeypatch.setattr(surrogates, builder, recorded(getattr(surrogates, builder)))
    bundle = build_bundle(prob, db, MODEL_SPECS[model], center, 0.05, 0.5)
    assert not any(hasattr(m, "training_sites") for m in bundle.models)
    assert len(returned) == 1 and bundle.training_sites is returned[0]
    assert len(db.reads) == len(set(db.reads)), "a site was read twice"
    assert set(db.reads) == {tuple(s) for s in bundle.training_sites}
    # one batch read of the site set; FD-Taylor reads its center, then the stencil
    assert db.calls == (2 if model == "taylor-fd1" else 1)


@pytest.mark.parametrize("model", ["lagrange-2", "taylor-fd1", "rbf-cubic", "rbf-gaussian-adaptive"])
@pytest.mark.parametrize("case", range(len(SHARED_SITE_CASES)))
def test_bundle_matches_per_objective_builds(case, model):
    name, n, center = SHARED_SITE_CASES[case]
    prob = make_problem(TestProblemSpec(name, n, ALL_EXPENSIVE))
    db_old, db_new = seeded_database(prob, center), seeded_database(prob, center)
    old = per_objective_models(prob, db_old, model, center, 0.05, 0.5)
    bundle = build_bundle(prob, db_new, MODEL_SPECS[model], center, 0.05, 0.5)
    new, sites = bundle.models, bundle.training_sites
    # the shared build evaluates the same new sites in the same order
    assert np.array_equal(np.vstack(db_old.sites), np.vstack(db_new.sites))
    assert np.array_equal(np.vstack(db_old.values), np.vstack(db_new.values))
    exact = range(1) if model.startswith("rbf") else range(len(old))
    for j in exact:
        old_sites, old_model = old[j]
        # a one-sided FD stencil read the center twice; the shared build reads it once
        assert np.array_equal(first_occurrences(old_sites), sites), f"objective {j} sites differ"
        assert model_state(old_model) == model_state(new[j]), f"objective {j} differs"
    for (old_sites, o), m in zip(old, new):  # RBF objectives past the first see their sites permuted
        assert {tuple(s) for s in old_sites} == {tuple(s) for s in sites}
        pts = np.clip(center + 0.1 * (2 * halton(20, n, offset=9) - 1), 0.0, 1.0)
        np.testing.assert_allclose(m.values(pts), o.values(pts), rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("model", SHARED_SITE_MODELS)
@pytest.mark.parametrize("pattern", [FIRST_CHEAP, FIRST_EXPENSIVE])
def test_bundle_values_of_a_point_are_its_row_of_any_batch(pattern, model):
    # expensive models and exact cheap wrappers, one point and batches holding it
    prob = make_problem(TestProblemSpec("ZDT1", 3, pattern))
    center = np.full(3, 0.45)
    bundle = build_bundle(prob, seeded_database(prob, center), MODEL_SPECS[model], center, 0.05, 0.5)
    U = np.clip(center + 0.1 * (2 * halton(7, 3, offset=11) - 1), 0.0, 1.0)
    batch = bundle.values(U)
    assert batch.shape == (7, bundle.k)
    for i, u in enumerate(U):
        assert bundle.values(u).tobytes() == batch[i].tobytes()
        assert bundle.values(u).tobytes() == bundle.values(np.vstack([u, U]))[0].tobytes()


# --- site selection against the row loops it replaced -----------------------


def near_any_before(point, rows) -> bool:
    """The one near test the selection used: within 1e-12 in the max norm."""
    if len(rows) == 0:
        return False
    return bool(np.any(np.max(np.abs(np.asarray(rows) - point), axis=1) <= 1e-12))


def affine_set_before(db, center, local_scale, box_lo, box_hi):
    """_affine_set as it was before its chosen points shared one buffer."""
    center = np.asarray(center, dtype=float)
    n = center.size
    chosen = [center.copy()]
    Q = np.zeros((0, n))

    def residual(v):
        return v - Q.T @ (Q @ v) if Q.shape[0] else v.copy()

    def try_accept(point):
        nonlocal Q
        if near_any_before(point, chosen):
            return False
        v = (point - center) / local_scale
        r = residual(v)
        nr = float(np.linalg.norm(r))
        if nr < 1e-4:
            return False
        chosen.append(point.copy())
        Q = np.vstack([Q, r / nr])
        return True

    for site in db.query_ball(center, local_scale):
        if len(chosen) == n + 1:
            break
        try_accept(site)
    while len(chosen) < n + 1:
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
        assert placed
    return chosen


def extras_before(ball, sites, max_extra):
    """build_rbf's extras loop as it was: one near test per ball row against
    the affine sites and one against the extras so far."""
    site_rows = np.vstack(sites)
    extras = []
    for site in ball:
        if len(extras) >= max_extra:
            break
        if near_any_before(site, site_rows) or near_any_before(site, extras):
            continue
        extras.append(site)
    return np.array(extras).reshape(-1, ball.shape[1])


NEAR_OFFSETS = [0.0, 5e-13, 1e-12, 2e-12, 5e-12, 0.1]


@st.composite
def selection_inputs(draw):
    """(ball, affine, max_extra): ball rows with twins at, within and just
    beyond 1e-12 of each other and of affine rows, twins that share only
    coordinate 0, and NaN entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 30))
    ball = rng.uniform(-1, 1, (m, n))
    affine = rng.uniform(-1, 1, (n + 1, n))
    for _ in range(draw(st.integers(0, 8))):
        src = np.vstack([ball, affine])
        base = src[rng.integers(len(src))]
        twin = base + rng.choice(NEAR_OFFSETS, size=n) * rng.choice([-1.0, 1.0], size=n)
        if draw(st.booleans()):
            twin[1:] = rng.uniform(-1, 1, n - 1)  # shares coordinate 0 only
        ball = np.insert(ball, rng.integers(len(ball) + 1), twin, axis=0)
    if len(ball) and draw(st.booleans()):
        ball[rng.integers(len(ball)), rng.integers(n)] = np.nan
    return ball, affine, draw(st.integers(0, 12))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(selection_inputs())
def test_extra_sites_match_the_row_loop(case):
    # the same rows in the same order, as bytes
    ball, affine, max_extra = case
    expected = extras_before(ball, list(affine), max_extra)
    got = _extra_sites(ball, affine, max_extra)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def near_pair_database(prob, center, seed, offsets, count=40):
    """A database of `count` sites around a scaled center, with twins of a
    quarter of them and of the center at the given offsets."""
    rng = np.random.default_rng(seed)
    n = prob.n_vars
    rows = np.clip(center + 0.3 * (2 * rng.random((count, n)) - 1), 0.0, 1.0)
    twins = rows[: count // 4] + rng.choice(offsets, size=(count // 4, 1))
    rows = np.vstack([rows, twins, center + offsets[0], center - offsets[-1]])
    db = EvaluationDatabase(prob)
    db.evaluate_scaled(np.clip(rows[rng.permutation(len(rows))], 0.0, 1.0))
    return db


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("offsets", [[5e-13, 9e-13], [5e-13, 1e-12, 2e-12, 5e-12]])
def test_rbf_sites_match_the_row_loops(n, seed, offsets):
    # the affine set and the extras keep their bytes and order on a database
    # with near pairs and more ball rows than extras fit; twins within 1e-12
    # are left out, so the fit keeps every site, while twins at or beyond it
    # may make the saddle system singular and the fit fall back on the affine set
    prob = scalar_problem(lambda x: float(np.sum(x**3)), n, box=(np.zeros(n), np.ones(n)))
    fs = prob.unit
    center = np.full(n, 0.45)
    db = near_pair_database(prob, center, seed, offsets)
    radius, delta_ub = 0.05, 0.5
    R1 = THETA1 * radius
    lo1, hi1 = region_box(center, R1, fs)
    affine = np.vstack(affine_set_before(db, center, R1, lo1, hi1))
    assert np.vstack(_affine_set(db, center, R1, lo1, hi1)).tobytes() == affine.tobytes()
    total_cap = (n + 1) * (n + 2) // 2 if n <= 10 else 2 * n + 1
    ball = db.query_ball(center, THETA2 * delta_ub)
    assert len(ball) > total_cap - (n + 1)
    extras = extras_before(ball, list(affine), total_cap - (n + 1))
    assert _extra_sites(ball, affine, total_cap - (n + 1)).tobytes() == extras.tobytes()
    sites, _ = build_rbf(db, MODEL_SPECS["rbf-cubic"], center, radius, delta_ub, fs)
    expected = np.vstack([affine, extras])
    if max(offsets) < 1e-12:
        assert sites.tobytes() == expected.tobytes()
    else:
        assert sites.tobytes() in (expected.tobytes(), affine.tobytes())


def test_affine_set_skips_a_near_point_that_the_residual_passes():
    # at a radius of 1e-9 a site 5e-13 from the center has a local residual
    # of 2.5e-4, above the pivot threshold, so only the near test leaves it out
    prob = scalar_problem(lambda x: float(np.sum(x**2)), 2, box=([0.0, 0.0], [1.0, 1.0]))
    center, R1 = np.array([0.5, 0.5]), 2e-9
    db = EvaluationDatabase(prob)
    db.evaluate_scaled(np.array([center + [5e-13, 0.0], center + [0.0, 1e-9]]))
    lo1, hi1 = region_box(center, R1, prob.unit)
    chosen = np.vstack(_affine_set(db, center, R1, lo1, hi1))
    assert chosen.tobytes() == np.vstack(affine_set_before(db, center, R1, lo1, hi1)).tobytes()
    assert not (np.abs(chosen - db.sites[0]).max(axis=1) <= 0.0).any()
    assert np.array_equal(chosen[1], center + [0.0, 1e-9])


def test_extra_site_selection_memory_is_linear_in_the_ball():
    # 20,000 ball rows of n = 24: no array outgrows M (n + 1) doubles, 4 MB
    # here, far below the 96 MB of an (M, n + 1, n) array
    import tracemalloc

    M, n = 20_000, 24
    rng = np.random.default_rng(0)
    ball = rng.random((M, n))
    affine = rng.random((n + 1, n))
    ball[::1000] = affine[0] + 5e-13
    tracemalloc.start()
    try:
        extras = _extra_sites(ball, affine, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert extras.tobytes() == extras_before(ball, list(affine), n).tobytes()
    assert peak <= 3 * M * n * 8
