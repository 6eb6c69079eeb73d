import numpy as np
import pytest

from conftest import lp_vertex_oracle, two_quadratics

from pareto_trm.criticality import CriticalityResult, omega_of_gradients, true_omega
from pareto_trm.errors import ObjectiveFailure
from pareto_trm.linalg import LPProblem, solve_descent_lp
from pareto_trm.problem import FeasibleSet


UNC = FeasibleSet.unconstrained()


def test_single_gradient_unconstrained():
    res = omega_of_gradients([[2.0]], [0.0], UNC)
    assert res.omega == pytest.approx(2.0)
    np.testing.assert_allclose(res.direction, [-1.0])
    assert res.omega_clamped == 1.0


@pytest.mark.parametrize("seed", range(20))
def test_rn_direction_box_has_the_bits_of_the_unit_ball(seed):
    # R^n's infinite bounds clip to the unit ball the old R^n branch passed
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    G = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 8)
    lo, hi = np.maximum(-1.0, UNC.lower - x), np.minimum(1.0, UNC.upper - x)
    assert (lo.tobytes(), hi.tobytes()) == ((-np.ones(n)).tobytes(), np.ones(n).tobytes())
    res = omega_of_gradients(G, x, UNC)
    d, beta = solve_descent_lp(LPProblem(G, -np.ones(n), np.ones(n)))
    assert (res.direction.tobytes(), res.omega) == (d.tobytes(), -beta)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_gradient_that_is_not_finite_names_its_first_row(bad):
    G = np.array([[1.0, 0.0], [0.0, bad], [bad, 1.0]])
    with pytest.raises(ObjectiveFailure, match="^gradient of objective 1 is not finite$"):
        omega_of_gradients(G, [0.5, 0.5], UNC)


def test_boundary_blocks_descent():
    fs = FeasibleSet.box([0.0], [1.0])
    res = omega_of_gradients([[1.0]], [0.0], fs)
    assert res.omega == pytest.approx(0.0, abs=1e-15)


def test_boundary_allows_descent_inward():
    fs = FeasibleSet.box([0.0], [1.0])
    res = omega_of_gradients([[-1.0]], [0.0], fs)
    assert res.omega == pytest.approx(1.0)
    np.testing.assert_allclose(res.direction, [1.0])


def test_omega_nonnegative_random(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        G = rng.standard_normal((k, n))
        lower = -rng.random(n)
        upper = rng.random(n)
        fs = FeasibleSet.box(lower, upper)
        x = lower + rng.random(n) * (upper - lower)
        res = omega_of_gradients(G, x, fs)
        assert res.omega >= 0.0
        assert res.omega_clamped == min(res.omega, 1.0)


def test_clamp_preserves_zero_set(rng):
    for _ in range(50):
        G = rng.standard_normal((2, 2))
        res = omega_of_gradients(G, np.zeros(2), UNC)
        assert (res.omega == 0.0) == (res.omega_clamped == 0.0)


def test_scale_covariance(rng):
    for c in (2.0, 4.0, 0.5, 3.7):
        G = rng.standard_normal((3, 3))
        base = omega_of_gradients(G, np.zeros(3), UNC)
        scaled = omega_of_gradients(c * G, np.zeros(3), UNC)
        assert scaled.omega == pytest.approx(c * base.omega, rel=1e-13)
        # the returned direction is optimal for the scaled LP
        _, beta_exact = lp_vertex_oracle(c * G, -np.ones(3), np.ones(3))
        attained = np.max((c * G) @ scaled.direction)
        assert attained == pytest.approx(beta_exact, abs=1e-9)


def test_zero_omega_direction_achieves_zero(rng):
    # omega = 0 implies the returned direction has max_l <g_l, d> = 0
    G = np.array([[1.0, 0.0], [-1.0, 0.0]])
    res = omega_of_gradients(G, np.zeros(2), UNC)
    assert res.omega == pytest.approx(0.0, abs=1e-14)
    assert np.max(G @ res.direction) == pytest.approx(0.0, abs=1e-12)


class TestTrueOmega:
    def test_critical_at_endpoint(self):
        prob = two_quadratics([0.0, 0.0], [1.0, 1.0])
        res = true_omega(prob, [0.0, 0.0])
        assert res.omega == pytest.approx(0.0, abs=1e-12)

    def test_critical_at_midpoint(self):
        prob = two_quadratics([0.0, 0.0], [1.0, 1.0])
        res = true_omega(prob, [0.5, 0.5])
        assert res.omega == pytest.approx(0.0, abs=1e-12)

    def test_positive_off_segment(self):
        a, b = np.zeros(2), np.ones(2)
        prob = two_quadratics(a, b)
        x = np.array([2.0, -1.0])
        res = true_omega(prob, x)
        G = np.vstack([2 * (x - a), 2 * (x - b)])
        _, beta = lp_vertex_oracle(G, -np.ones(2), np.ones(2))
        assert res.omega > 0.1
        assert res.omega == pytest.approx(-beta, rel=1e-9)

    def test_fd_matches_callbacks(self, rng):
        a, b = rng.random(3), rng.random(3)
        with_cb = two_quadratics(a, b)
        without = two_quadratics(a, b)
        without.gradients = [None, None]
        x = rng.random(3)
        r1 = true_omega(with_cb, x)
        r2 = true_omega(without, x, fd_step=1e-6)
        assert r1.omega == pytest.approx(r2.omega, rel=1e-5, abs=1e-8)

    def test_counts_diagnostic_evals(self):
        prob = two_quadratics([0.0, 0.0], [1.0, 1.0])
        prob.gradients = [None, None]
        counter = {}
        true_omega(prob, [0.3, 0.4], counter=counter)
        assert counter["evals"] == 2 * 2 * 2  # central stencil, 2 objectives


def test_continuity_probe_lipschitz_bound(rng):
    # |omega(x) - omega(y)| <= (L + 2D) ||x - y|| with exact quadratic constants
    a, b = np.array([0.2, 0.8]), np.array([0.9, 0.1])
    prob = two_quadratics(a, b, box=([0.0, 0.0], [1.0, 1.0]))
    # Jacobian rows 2(x-a), 2(x-b): Lipschitz constant of J (Frobenius)
    L = 2.0 * np.sqrt(2.0) * np.sqrt(2.0)  # ||J(x)-J(y)||_F = 2*sqrt(2)*||x-y||_2
    corners = np.array([[x1, x2] for x1 in (0, 1) for x2 in (0, 1)], dtype=float)
    D = max(
        np.sqrt(np.sum((2 * (c - a)) ** 2) + np.sum((2 * (c - b)) ** 2)) for c in corners
    )
    for _ in range(500):
        x = rng.random(2)
        y = np.clip(x + rng.uniform(-1e-3, 1e-3, size=2), 0.0, 1.0)
        wx = true_omega(prob, x).omega
        wy = true_omega(prob, y).omega
        gap = np.linalg.norm(x - y)
        assert abs(wx - wy) <= (L + 2 * D) * gap + 1e-6


def test_result_is_frozen():
    res = CriticalityResult(np.zeros(1), 0.0, 0.0)
    with pytest.raises(AttributeError):
        res.omega = 1.0
