import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lp_grid_oracle, lp_vertex_oracle

from pareto_trm.errors import DimensionMismatch, SingularMatrix
from pareto_trm.linalg import (
    LPProblem,
    box_multistart_minimize,
    halton,
    solve_descent_lp,
    solve_linear,
)
from pareto_trm.surrogates import _LagrangeMachine


class TestSolveLinear:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        np.testing.assert_allclose(solve_linear(np.eye(3), b), b)

    def test_diagonal(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(solve_linear(A, [2.0, 8.0]), [1.0, 2.0])

    def test_random_residual(self, rng):
        for _ in range(20):
            A = rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
            b = rng.standard_normal(10)
            x = solve_linear(A, b)
            assert np.max(np.abs(A @ x - b)) <= 1e-8 * (1 + np.max(np.abs(b)))

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            solve_linear(A, [1.0, 1.0])

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            solve_linear(np.ones((2, 3)), [1.0, 1.0])

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 2, 1), ()])
    def test_rhs_shape_mismatch(self, shape):
        with pytest.raises(DimensionMismatch):
            solve_linear(np.eye(2), np.ones(shape))

    def test_singular_raises_for_every_rhs_shape(self):
        A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 1.0, 3.0]])
        with pytest.raises(SingularMatrix) as one:
            solve_linear(A, np.ones(3))
        with pytest.raises(SingularMatrix) as many:
            solve_linear(A, np.ones((3, 4)))
        assert str(many.value) == str(one.value)


@st.composite
def linear_systems(draw):
    """A square system with k right-hand sides: random dense, or an RBF-style
    saddle matrix [[Phi, P^T], [P, 0]] whose zero block forces row swaps."""
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        n = draw(st.integers(1, 14))
        A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    else:
        d = draw(st.integers(1, 4))
        m = draw(st.integers(d + 1, 10))
        T = rng.uniform(-1, 1, size=(m, d))
        P = np.column_stack([np.ones(m), T])
        r = np.linalg.norm(T[:, None] - T[None], axis=2)
        A = np.block([[r**3, P], [P.T, np.zeros((d + 1, d + 1))]])
        n = m + d + 1
    return A, rng.standard_normal((n, k))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(linear_systems())
def test_multi_rhs_columns_match_single_solves(system):
    # each column of a k-RHS solve carries the bits of its own single solve
    A, B = system
    X = solve_linear(A, B)
    assert X.shape == B.shape
    for j in range(B.shape[1]):
        assert np.array_equal(X[:, j], solve_linear(A, B[:, j]))


class TestDescentLP:
    def test_steepest_descent_1d(self):
        d, beta = solve_descent_lp(LPProblem([[2.0]], [-1.0], [1.0]))
        assert beta == pytest.approx(-2.0)
        np.testing.assert_allclose(d, [-1.0])

    def test_opposing_gradients_critical(self):
        lp = LPProblem([[1.0, 0.0], [-1.0, 0.0]], -np.ones(2), np.ones(2))
        d, beta = solve_descent_lp(lp)
        assert beta == pytest.approx(0.0, abs=1e-12)
        assert max(d @ np.array([1.0, 0.0]), d @ np.array([-1.0, 0.0])) <= 1e-12

    def test_two_gradients_vertex(self):
        lp = LPProblem([[1.0, 2.0], [2.0, 1.0]], -np.ones(2), np.ones(2))
        d, beta = solve_descent_lp(lp)
        assert beta == pytest.approx(-3.0)
        np.testing.assert_allclose(d, [-1.0, -1.0])

    def test_grid_oracle_2d(self, rng):
        for _ in range(25):
            k = rng.integers(1, 5)
            G = rng.uniform(-1, 1, size=(k, 2))
            lo = -rng.uniform(0.2, 1.0, size=2)
            hi = rng.uniform(0.2, 1.0, size=2)
            _, beta = solve_descent_lp(LPProblem(G, lo, hi))
            _, beta_grid = lp_grid_oracle(G, lo, hi, res=1e-3)
            assert abs(beta - beta_grid) <= 2e-3

    def test_vertex_oracle_exact(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            G = rng.uniform(-1, 1, size=(k, n))
            lo = -rng.uniform(0.1, 1.0, size=n)
            hi = rng.uniform(0.1, 1.0, size=n)
            _, beta = solve_descent_lp(LPProblem(G, lo, hi))
            _, beta_exact = lp_vertex_oracle(G, lo, hi)
            assert abs(beta - beta_exact) <= 1e-9

    def test_beta_never_positive(self, rng):
        for _ in range(50):
            G = rng.standard_normal((3, 4))
            _, beta = solve_descent_lp(LPProblem(G, -np.ones(4), np.ones(4)))
            assert beta <= 0.0

    def test_weak_duality_on_feasible_points(self, rng):
        for _ in range(10):
            G = rng.uniform(-1, 1, size=(3, 3))
            lo, hi = -np.ones(3), np.ones(3)
            _, beta = solve_descent_lp(LPProblem(G, lo, hi))
            for _ in range(100):
                d = lo + rng.random(3) * (hi - lo)
                assert np.max(G @ d) >= beta - 1e-10

    def test_deterministic(self, rng):
        G = rng.standard_normal((4, 3))
        lp = LPProblem(G, -np.ones(3), np.ones(3))
        d1, b1 = solve_descent_lp(lp)
        d2, b2 = solve_descent_lp(lp)
        assert b1 == b2
        np.testing.assert_array_equal(d1, d2)

    def test_asymmetric_box(self):
        # descent blocked downward: optimum pinned at d = 0
        d, beta = solve_descent_lp(LPProblem([[1.0]], [0.0], [1.0]))
        assert beta == pytest.approx(0.0, abs=1e-15)
        d, beta = solve_descent_lp(LPProblem([[-1.0]], [0.0], [1.0]))
        assert beta == pytest.approx(-1.0)
        np.testing.assert_allclose(d, [1.0])


def _quad(c):
    c = np.asarray(c, dtype=float)

    def val(X):
        return np.sum((X - c) ** 2, axis=1)

    def grad(X):
        return 2.0 * (X - c)

    return val, grad


def multistart_two_gradients(value_fn, grad_fn, lo, hi, n_starts, seed, max_iters, gtol):
    """box_multistart_minimize as it was when every accepted iterate's gradient
    was computed twice (stop test, then the next iteration's head); also
    returns the number of iterations run."""
    X = lo + halton(n_starts, lo.size, offset=1000 * seed) * (hi - lo)
    F = value_fn(X)
    step = np.ones(X.shape[0])
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        Gr = grad_fn(X)
        moved = False
        trial_step = step.copy()
        Xn, Fn = X, F
        accept = np.zeros(X.shape[0], dtype=bool)
        for _bt in range(40):
            cand = np.clip(X - trial_step[:, None] * Gr, lo, hi)
            Fc = value_fn(cand)
            decrease = np.einsum("ij,ij->i", Gr, X - cand)
            ok = (~accept) & (Fc <= F - 1e-4 * decrease)
            if np.any(ok):
                if not moved:
                    Xn, Fn = X.copy(), F.copy()
                    moved = True
                Xn[ok], Fn[ok] = cand[ok], Fc[ok]
                step[ok] = trial_step[ok] * 2.0
                accept |= ok
            if np.all(accept):
                break
            trial_step = np.where(accept, trial_step, trial_step / 2.0)
        if not moved:
            break
        X, F = Xn, Fn
        proj_grad = np.max(np.abs(X - np.clip(X - grad_fn(X), lo, hi)), axis=1)
        if np.all(proj_grad <= gtol):
            break
    best = int(np.argmin(F))
    return X[best].copy(), float(F[best]), iterations


class TestMultistart:
    def test_interior_quadratic(self):
        val, grad = _quad([0.3, 0.6])
        x, v = box_multistart_minimize(val, grad, np.zeros(2), np.ones(2), 5, seed=1)
        np.testing.assert_allclose(x, [0.3, 0.6], atol=1e-6)
        assert v <= 1e-10

    def test_exterior_quadratic_projects(self):
        val, grad = _quad([2.0, -1.0])
        x, _ = box_multistart_minimize(val, grad, np.zeros(2), np.ones(2), 5, seed=1)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-6)

    def test_rosenbrock(self):
        def val(X):
            return (1 - X[:, 0]) ** 2 + 100.0 * (X[:, 1] - X[:, 0] ** 2) ** 2

        def grad(X):
            gx = -2 * (1 - X[:, 0]) - 400.0 * X[:, 0] * (X[:, 1] - X[:, 0] ** 2)
            gy = 200.0 * (X[:, 1] - X[:, 0] ** 2)
            return np.column_stack([gx, gy])

        _, v = box_multistart_minimize(
            val, grad, -2 * np.ones(2), 2 * np.ones(2), 20, seed=3,
            max_iters=20000, gtol=1e-12,
        )
        assert v <= 1e-4

    def test_monotone_descent_property(self, rng):
        # single-start runs must produce non-increasing objective values
        val, grad = _quad(rng.random(3))
        history = []

        def spy_val(X):
            out = val(X)
            history.append(out.min())
            return out

        box_multistart_minimize(spy_val, grad, np.zeros(3), np.ones(3), 1, seed=0)
        best = np.minimum.accumulate(history)
        assert np.all(np.diff(best) <= 1e-12)

    @pytest.mark.parametrize(
        "target, max_iters",
        [([0.3, 0.6, 0.9], 200), ([2.0, -1.0, 0.5], 200), ([0.3, 0.6, 0.9], 3)],
        ids=["interior", "exterior", "iteration-cap"],
    )
    def test_one_gradient_per_iterate(self, target, max_iters):
        val, grad = _quad(target)
        lo, hi = np.zeros(3), np.ones(3)
        calls = []

        def counted_grad(X):
            calls.append(X.copy())
            return grad(X)

        x, v = box_multistart_minimize(val, counted_grad, lo, hi, 4, seed=1, max_iters=max_iters)
        x_old, v_old, iterations = multistart_two_gradients(
            val, grad, lo, hi, 4, 1, max_iters, 1e-10
        )
        assert np.array_equal(x, x_old) and v == v_old
        assert len(calls) <= iterations + 1
        # no two calls on the same iterate
        assert all(not np.array_equal(a, b) for a, b in zip(calls, calls[1:]))

    def test_value_not_worse_than_any_start(self):
        val, grad = _quad([0.5, 0.5])
        lo, hi = np.zeros(2), np.ones(2)
        starts = lo + halton(7, 2, offset=2000) * (hi - lo)
        _, v = box_multistart_minimize(val, grad, lo, hi, 7, seed=2)
        assert v <= val(starts).min() + 1e-12


class TestMaximizeAbs:
    """max |linear| over a box, as the Lagrange machine's vertex helper computes it."""

    def test_linear_on_box(self):
        machine = _LagrangeMachine(2, np.zeros(2), 1.0, -np.ones(2), np.ones(2))
        verts, peaks = machine.box_peaks(np.array([[0.0, 1.0, 0.0]]))  # l(x) = x0
        assert peaks[0] == pytest.approx(1.0)
        assert abs(verts[0, 0]) == pytest.approx(1.0)

    def test_constant(self):
        machine = _LagrangeMachine(2, np.full(2, 0.5), 0.5, np.zeros(2), np.ones(2))
        verts, peaks = machine.box_peaks(np.array([[3.0, 0.0, 0.0]]))  # l(x) = 3
        assert peaks[0] == pytest.approx(3.0)
        assert np.all((verts >= 0.0) & (verts <= 1.0))


@st.composite
def linear_rows_on_clipped_box(draw):
    """Random Lagrange-style rows (c, g) and a region box clipped by [0, 1]^n faces."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    coef = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    rows = np.array(draw(st.lists(
        st.lists(coef, min_size=n + 1, max_size=n + 1), min_size=m, max_size=m
    )))
    center = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    scale = draw(st.floats(0.05, 1.0))
    lo = np.maximum(center - scale, 0.0)
    hi = np.minimum(center + scale, 1.0)
    return rows, center, scale, lo, hi


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(linear_rows_on_clipped_box())
def test_linear_box_peaks_match_vertex_enumeration(case):
    rows, center, scale, lo, hi = case
    n = center.size
    machine = _LagrangeMachine(n, center, scale, lo, hi)
    verts, peaks = machine.box_peaks(rows)
    bits = np.array(np.meshgrid(*[[0, 1]] * n, indexing="ij")).reshape(n, -1).T
    T = (np.where(bits.astype(bool), hi, lo) - center) / scale
    brute = np.abs(rows[:, :1].T + T @ rows[:, 1:].T).max(axis=0)
    np.testing.assert_allclose(peaks, brute, rtol=1e-12, atol=1e-12)
    # each peak is attained at a vertex whose coordinates are the box's own
    assert np.all((verts == lo) | (verts == hi))
    at_verts = np.abs(rows[:, 0] + np.einsum("mn,mn->m", (verts - center) / scale, rows[:, 1:]))
    np.testing.assert_allclose(at_verts, peaks, rtol=1e-12, atol=1e-12)


def test_halton_deterministic_and_in_range():
    a = halton(50, 3, offset=7)
    b = halton(50, 3, offset=7)
    np.testing.assert_array_equal(a, b)
    assert np.all(a > 0) and np.all(a < 1)


def test_halton_is_cached_and_read_only():
    a = halton(25, 7, offset=17)
    b = halton(25, 7, offset=17)
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()
    # numpy integers and keyword or positional forms reach the same entry
    assert halton(np.int64(25), 7, 17) is a
    with pytest.raises(ValueError):
        a[0, 0] = 0.5
    with pytest.raises(ValueError):
        a += 1.0
    assert halton(25, 7, offset=17)[0, 0] == b[0, 0]


def test_halton_beyond_fifty_dimensions():
    # bases are the first dim primes, so widening a sequence keeps its leading columns
    wide = halton(8, 60)
    np.testing.assert_array_equal(wide[:, :50], halton(8, 50))
    assert np.all(wide > 0) and np.all(wide < 1)
    # base 281 is the 60th prime: the first point's last coordinate is 1/281
    assert wide[0, -1] == 1.0 / 281
