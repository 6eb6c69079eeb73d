import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plain

from pareto_trm.criticality import CriticalityResult, omega_of_gradients
from pareto_trm.linalg import box_multistart_minimize
from pareto_trm.problem import FeasibleSet
from pareto_trm.steps import (
    STEP_METHODS,
    StepConfig,
    _sigma_box_exit,
    bar_sigma,
    certificate_rhs,
    compute_step,
    exact_pareto_cauchy,
    local_ideal_point,
    modified_pareto_cauchy,
    pascoletti_serafini,
    strict_pareto_cauchy,
)
from pareto_trm.surrogates import PolyModel, RBFModel, SurrogateBundle, curvature_floor

UNC = FeasibleSet.unconstrained()


def quad_model(c, n=1, scale=1.0):
    """Model (x - c)^T (x - c) * scale as a PolyModel."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    H = 2.0 * scale * np.eye(c.size)
    g = -2.0 * scale * c
    c0 = scale * float(c @ c)
    return PolyModel(np.zeros(c.size), 1.0, c0, g, H)


def make_bundle(models, center, radius, fs=UNC):
    center = np.asarray(center, dtype=float)
    return SurrogateBundle(
        models=models,
        center=center,
        radius=radius,
        training_sites=np.empty((0, center.size)),
        new_sites=0,
        fs=fs,
    )


def crit_at(bundle, x, fs=UNC):
    return omega_of_gradients(bundle.gradients(np.asarray(x, dtype=float)), x, fs)


class TestBarSigma:
    def test_short_direction(self):
        assert bar_sigma([0.5], 1.0) == pytest.approx(0.5)

    def test_long_direction_large_radius(self):
        assert bar_sigma([1.0], 2.0) == pytest.approx(2.0)

    def test_small_radius(self):
        assert bar_sigma([1.0], 0.3) == pytest.approx(0.3)


class TestModifiedPC:
    def test_quadratic_accepts_j0(self):
        model = quad_model([0.0])  # m(x) = x^2
        bundle = make_bundle([model], [1.0], 1.0)
        crit = crit_at(bundle, [1.0])
        assert crit.omega == pytest.approx(2.0)
        cfg = StepConfig(method="modified-pc", armijo_a=0.1, armijo_b=0.5)
        res = modified_pareto_cauchy(bundle, [1.0], 1.0, crit, cfg, UNC)
        assert res.backtracks == 0
        np.testing.assert_allclose(res.step, [-1.0])
        np.testing.assert_allclose(res.trial, [0.0])
        assert res.certificate_lhs == pytest.approx(1.0)

    def test_smallest_j_matches_scan_oracle(self, rng):
        cfg = StepConfig(method="modified-pc", armijo_a=0.1, armijo_b=0.5)
        for trial in range(50):
            scale = float(rng.uniform(0.5, 120.0))
            center = np.array([float(rng.uniform(0.5, 2.0))])
            model = quad_model([0.0], scale=scale)
            radius = float(rng.uniform(0.2, 1.0))
            bundle = make_bundle([model], center, radius)
            crit = crit_at(bundle, center)
            res = modified_pareto_cauchy(bundle, center, radius, crit, cfg, UNC)
            # independent linear scan over j
            d = crit.direction
            nd = np.max(np.abs(d))
            sigma = min(radius, nd) if (nd < 1 or radius <= 1) else radius
            expected = None
            phi_c = np.max(bundle.values(center))
            for j in range(41):
                t = (cfg.armijo_b**j) * sigma
                cand = center + t * d / nd
                if np.max(bundle.values(cand)) <= phi_c - cfg.armijo_a * t * crit.omega / nd:
                    expected = j
                    break
            assert res.backtracks == expected

    def test_certificate_holds(self, rng):
        cfg = StepConfig(method="modified-pc")
        for _ in range(100):
            c1 = rng.uniform(-1, 1, size=2)
            c2 = rng.uniform(-1, 1, size=2)
            center = rng.uniform(-1, 1, size=2)
            bundle = make_bundle([quad_model(c1, 2), quad_model(c2, 2)], center, 0.5)
            crit = crit_at(bundle, center)
            if crit.omega <= 1e-12:
                continue
            res = modified_pareto_cauchy(bundle, center, 0.5, crit, cfg, UNC)
            assert res.certificate_lhs >= res.certificate_rhs - 1e-12

    def test_trial_stays_in_region_and_box(self, rng):
        fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
        cfg = StepConfig(method="modified-pc")
        for _ in range(50):
            center = rng.uniform(0.05, 0.95, size=2)
            bundle = make_bundle([quad_model(rng.uniform(0, 1, 2), 2)], center, 0.2, fs)
            crit = crit_at(bundle, center, fs)
            if crit.omega <= 1e-10:
                continue
            res = modified_pareto_cauchy(bundle, center, 0.2, crit, cfg, fs)
            assert fs.contains(res.trial)
            assert np.max(np.abs(res.trial - center)) <= 0.2 + 1e-12


class TestStrictPC:
    def test_k1_equals_modified(self):
        model = quad_model([0.0])
        bundle = make_bundle([model], [1.0], 1.0)
        crit = crit_at(bundle, [1.0])
        cfg = StepConfig()
        mod = modified_pareto_cauchy(bundle, [1.0], 1.0, crit, cfg, UNC)
        strict = strict_pareto_cauchy(bundle, [1.0], 1.0, crit, cfg, UNC)
        assert mod.backtracks == strict.backtracks
        np.testing.assert_array_equal(mod.step, strict.step)

    def test_strict_j_not_smaller(self, rng):
        cfg = StepConfig()
        for _ in range(30):
            center = np.array([1.0])
            m1 = quad_model([0.0], scale=float(rng.uniform(0.5, 30)))
            m2 = quad_model([float(rng.uniform(0.0, 0.3))], scale=float(rng.uniform(0.5, 30)))
            bundle = make_bundle([m1, m2], center, 1.0)
            crit = crit_at(bundle, center)
            if crit.omega <= 1e-10:
                continue
            mod = modified_pareto_cauchy(bundle, center, 1.0, crit, cfg, UNC)
            strict = strict_pareto_cauchy(bundle, center, 1.0, crit, cfg, UNC)
            assert strict.backtracks >= mod.backtracks

    def test_every_objective_decreases(self, rng):
        cfg = StepConfig()
        for _ in range(30):
            center = rng.uniform(-1, 1, size=2)
            bundle = make_bundle(
                [quad_model(rng.uniform(-1, 1, 2), 2), quad_model(rng.uniform(-1, 1, 2), 2)],
                center,
                0.4,
            )
            crit = crit_at(bundle, center)
            if crit.omega <= 1e-10:
                continue
            res = strict_pareto_cauchy(bundle, center, 0.4, crit, cfg, UNC)
            assert np.all(bundle.values(center) - bundle.values(res.trial) > 0.0)


@pytest.mark.parametrize("method", STEP_METHODS)
def test_compute_step_takes_the_zero_step_at_a_model_critical_center(monkeypatch, method):
    # the center lies on the segment between the two minimizers, where the
    # gradients oppose: omega~ = 0, and no step method runs
    def no_step(*args):
        raise AssertionError(f"{method} called at a model-critical center")

    monkeypatch.setitem(STEP_METHODS, method, no_step)
    center = np.array([0.5, 0.0])
    bundle = make_bundle([quad_model([0.0, 0.0], 2), quad_model([1.0, 0.0], 2)], center, 0.3)
    crit = crit_at(bundle, center)
    assert crit.omega_clamped == 0.0
    res = compute_step(bundle, center, 0.3, crit, StepConfig(method=method), UNC)
    assert res.is_zero and np.array_equal(res.trial, center)
    assert (res.certificate_lhs, res.certificate_rhs, res.failure) == (0.0, 0.0, None)


# an uphill direction with omega > 0: no Armijo halving decreases m(x) = x^2
UPHILL = CriticalityResult(np.array([1.0]), 1.0, 1.0)
NO_ARMIJO_STEP = "no Armijo step within 30 halvings"


@pytest.mark.parametrize("method", ["modified-pc", "strict-pc"])
def test_exhausted_backtracking_returns_the_failed_zero_step(method):
    bundle = make_bundle([quad_model([0.0])], [0.01], 0.3)
    res = compute_step(bundle, [0.01], 0.3, UPHILL, StepConfig(method=method), UNC)
    assert res.is_zero and res.trial.tolist() == [0.01]
    assert (res.certificate_lhs, res.certificate_rhs, res.backtracks) == (0.0, 0.0, 0)
    assert res.failure == NO_ARMIJO_STEP


def test_pascoletti_serafini_fallback_that_runs_out_is_returned_unchanged():
    # the PS trial decreases m by about 1e-4, below the rhs at omega~ = 1, so
    # it falls back to the strict step, whose backtracking runs out uphill
    bundle = make_bundle([quad_model([0.0])], [0.01], 0.3)
    res = compute_step(bundle, [0.01], 0.3, UPHILL, StepConfig("pascoletti-serafini"), UNC)
    assert res.is_zero and res.failure == NO_ARMIJO_STEP
    assert (res.r_ratio, res.fallback) == (None, False)


def sigma_box_exit_loop(center, d, fs):
    """_sigma_box_exit as the loop over the axes it was, reading R^n's
    infinite bounds as it reads a box's."""
    lower = np.broadcast_to(fs.lower, center.shape)
    upper = np.broadcast_to(fs.upper, center.shape)
    out = np.inf
    for i in range(center.size):
        if d[i] > 0:
            out = min(out, (upper[i] - center[i]) / d[i])
        elif d[i] < 0:
            out = min(out, (lower[i] - center[i]) / d[i])
    return out


def test_sigma_box_exit_matches_the_axis_loop(rng):
    # zeros in d, centers on faces (0.0 and -0.0 ratios tie), and R^n; the
    # first axis of equal ratios gives its bits, as in the loop
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        lo = rng.uniform(-2.0, 0.0, n)
        hi = lo + rng.uniform(0.1, 3.0, n)
        center = lo + rng.random(n) * (hi - lo)
        face = rng.integers(0, 3, n)
        center = np.where(face == 1, lo, np.where(face == 2, hi, center))
        d = rng.choice([-1.0, 0.0, 1.0], n) * rng.uniform(0.01, 1.0, n)
        for fs in (FeasibleSet.box(lo, hi), UNC):
            got = _sigma_box_exit(center, d, fs)
            want = sigma_box_exit_loop(center, d, fs)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestExactPC:
    def test_vertex_of_parabola(self):
        model = quad_model([0.0])
        bundle = make_bundle([model], [1.0], 5.0)
        crit = crit_at(bundle, [1.0])
        res = exact_pareto_cauchy(bundle, [1.0], 5.0, crit, StepConfig(), UNC)
        np.testing.assert_allclose(res.trial, [0.0], atol=1e-6)

    def test_boundary_when_radius_small(self):
        model = quad_model([0.0])
        bundle = make_bundle([model], [1.0], 0.3)
        crit = crit_at(bundle, [1.0])
        res = exact_pareto_cauchy(bundle, [1.0], 0.3, crit, StepConfig(), UNC)
        np.testing.assert_allclose(res.trial, [0.7], atol=1e-6)

    def test_crossing_quadratics_match_dense_grid(self):
        m1 = quad_model([0.0])
        m2 = quad_model([0.5], scale=2.0)
        center = np.array([1.0])
        bundle = make_bundle([m1, m2], center, 1.0)
        crit = crit_at(bundle, center)
        res = exact_pareto_cauchy(bundle, center, 1.0, crit, StepConfig(), UNC)
        d = crit.direction
        sigmas = np.linspace(0, 1.0 / np.max(np.abs(d)), 100001)
        pts = center[None, :] + sigmas[:, None] * d[None, :]
        dense_best = np.min(np.max(bundle.values(pts), axis=1))
        assert np.max(bundle.values(res.trial)) == pytest.approx(dense_best, abs=1e-4)

    def test_dominates_modified(self, rng):
        cfg = StepConfig(method="modified-pc")
        for _ in range(100):
            center = rng.uniform(-1, 1, size=2)
            bundle = make_bundle(
                [quad_model(rng.uniform(-1, 1, 2), 2), quad_model(rng.uniform(-1, 1, 2), 2)],
                center,
                0.5,
            )
            crit = crit_at(bundle, center)
            if crit.omega <= 1e-10:
                continue
            mod = modified_pareto_cauchy(bundle, center, 0.5, crit, cfg, UNC)
            exact = exact_pareto_cauchy(bundle, center, 0.5, crit, StepConfig(), UNC)
            assert exact.certificate_lhs >= mod.certificate_lhs - 1e-9
            assert mod.certificate_lhs >= 0.0


class TestIdealPoint:
    def test_center_is_ideal_for_centered_quadratics(self):
        center = np.array([0.4, 0.6])
        model = quad_model(center, 2)
        bundle = make_bundle([model], center, 0.3)
        ideal = local_ideal_point(bundle, center, 0.3, UNC)
        assert ideal[0] == pytest.approx(0.0, abs=1e-8)

    def test_linear_model_hits_region_vertex(self):
        model = PolyModel(np.zeros(2), 1.0, 0.0, np.array([1.0, -1.0]))
        center = np.array([0.5, 0.5])
        bundle = make_bundle([model], center, 0.25)
        ideal = local_ideal_point(bundle, center, 0.25, UNC)
        assert ideal[0] == pytest.approx(model.values([0.25, 0.75])[0], abs=1e-8)

    @pytest.mark.parametrize("draw", range(12))
    def test_ideal_never_above_the_center_values(self, draw):
        # the center is a start of every model's multistart, and a start's
        # value never increases, so no min with the center's value is needed
        rng = np.random.default_rng(draw)
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        center, radius = rng.random(n), float(rng.uniform(0.05, 0.5))
        models = []
        for _ in range(k):
            if rng.random() < 0.5:
                H = rng.standard_normal((n, n))  # indefinite as often as not
                models.append(PolyModel(
                    center, radius, rng.standard_normal(), rng.standard_normal(n), H + H.T
                ))
            else:
                p = int(rng.integers(n + 1, 2 * n + 4))
                models.append(RBFModel(
                    center, radius, rng.uniform(-1.0, 1.0, (p, n)), rng.standard_normal(p),
                    rng.standard_normal(), rng.standard_normal(n), "cubic", 1.0,
                ))
        fs = FeasibleSet.box(np.zeros(n), np.ones(n))
        bundle = make_bundle(models, center, radius, fs)
        ideal = local_ideal_point(bundle, center, radius, fs)
        assert np.all(ideal <= bundle.values(center))


class TestPascolettiSerafini:
    def test_zero_step_at_model_critical_center(self):
        center = np.array([0.4, 0.6])
        bundle = make_bundle([quad_model(center, 2)], center, 0.3)
        crit = crit_at(bundle, center)
        res = pascoletti_serafini(bundle, center, 0.3, crit, StepConfig(), UNC)
        assert res.is_zero
        assert (res.certificate_lhs, res.certificate_rhs) == (0.0, 0.0)

    def test_k1_matches_direct_minimization(self):
        c = np.array([0.2, 0.1])
        model = quad_model(c, 2)
        center = np.array([0.8, 0.9])
        bundle = make_bundle([model], center, 2.0)
        crit = crit_at(bundle, center)
        res = pascoletti_serafini(bundle, center, 2.0, crit, StepConfig(), UNC)
        lo, hi = center - 2.0, center + 2.0
        direct, _ = box_multistart_minimize(
            *plain(model.values, model.gradients), lo, hi, 12, seed=3, include=center[None, :]
        )
        assert np.max(np.abs(res.trial - direct)) <= 1e-5

    def test_symmetric_quadratics_move_toward_segment(self):
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        center = np.array([0.5, 0.8])  # equidistant from a and b
        bundle = make_bundle([quad_model(a, 2), quad_model(b, 2)], center, 0.5)
        crit = crit_at(bundle, center)
        res = pascoletti_serafini(bundle, center, 0.5, crit, StepConfig(), UNC)
        assert res.trial[1] < center[1]  # moved toward the segment
        assert res.certificate_lhs >= res.certificate_rhs - 1e-12
        # the trial's scalarized value tau against a dense grid over the region
        xs = np.linspace(0.0, 1.0, 201)
        ys = np.linspace(0.3, 1.3, 201)
        A, B = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([A.ravel(), B.ravel()])
        m_center = bundle.values(center)
        ideal = local_ideal_point(bundle, center, 0.5, UNC)
        r = np.maximum(m_center - ideal, 1e-12)
        ratios = (bundle.values(pts) - m_center[None, :]) / r[None, :]
        tau_grid = np.min(np.max(ratios, axis=1))
        assert not res.fallback
        tau = float(np.max((bundle.values(res.trial) - m_center) / r))
        assert tau <= tau_grid + 1e-3

    def test_certificate_on_random_bundles(self, rng):
        cfg = StepConfig()
        for _ in range(50):
            center = rng.uniform(-0.5, 0.5, size=2)
            bundle = make_bundle(
                [quad_model(rng.uniform(-1, 1, 2), 2), quad_model(rng.uniform(-1, 1, 2), 2)],
                center,
                0.4,
            )
            crit = crit_at(bundle, center)
            if crit.omega <= 1e-10:
                continue
            res = pascoletti_serafini(bundle, center, 0.4, crit, cfg, UNC)
            assert res.certificate_lhs >= res.certificate_rhs - 1e-12
            assert UNC.contains(res.trial)
            assert np.max(np.abs(res.trial - center)) <= 0.4 + 1e-10


@pytest.mark.parametrize("center, floor_certifies", [(1.0, True), (0.01, False)])
def test_bound_is_read_only_when_the_floor_does_not_certify(center, floor_certifies):
    # m(x) = 100 x^2 has H = 200: from x = 1 the first trial reaches the
    # minimizer, from x = 0.01 six halvings leave a decrease below the floor rhs
    bundle = make_bundle([quad_model([0.0], scale=100.0)], [center], 1.0)
    crit = crit_at(bundle, [center])
    cfg = StepConfig(method="modified-pc")
    res = modified_pareto_cauchy(bundle, [center], 1.0, crit, cfg, UNC)
    floor_rhs = certificate_rhs(crit, 1, curvature_floor(1), 1.0, cfg)
    assert (res.certificate_lhs >= floor_rhs) == floor_certifies
    assert ("hessian_bound" in vars(bundle)) != floor_certifies
    if floor_certifies:
        assert res.certificate_rhs == floor_rhs
    else:
        assert bundle.hessian_bound == pytest.approx(200.0)
        assert res.certificate_rhs == certificate_rhs(crit, 1, bundle.hessian_bound, 1.0, cfg)
        assert res.certificate_rhs < floor_rhs
    assert res.certificate_lhs >= res.certificate_rhs


open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_floor_certificate_implies_the_certificate_at_every_larger_bound(data):
    c = data.draw(st.integers(1, 10), label="c")
    floor = curvature_floor(c)
    H = data.draw(
        st.one_of(st.just(floor), st.just(np.inf), st.floats(min_value=floor, allow_infinity=True)),
        label="H",
    )
    w = data.draw(st.floats(min_value=0.0, max_value=1e300), label="omega")
    radius = data.draw(st.floats(min_value=0.0, max_value=1e300, exclude_min=True), label="radius")
    a, b = data.draw(open_unit, label="a"), data.draw(open_unit, label="b")
    cfg = StepConfig(armijo_a=a, armijo_b=b)
    crit = CriticalityResult(np.zeros(1), w, w)
    floor_rhs = certificate_rhs(crit, c, floor, radius, cfg)
    lhs = data.draw(st.one_of(st.just(floor_rhs), st.floats(allow_nan=False)), label="lhs")
    if lhs >= floor_rhs:
        assert lhs >= certificate_rhs(crit, c, H, radius, cfg)
