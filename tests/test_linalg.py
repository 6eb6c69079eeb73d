from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, load_perfbench, lp_grid_oracle, lp_vertex_oracle, plain

from pareto_trm import linalg, run, steps
from pareto_trm.errors import DimensionMismatch, LPFailure, SingularMatrix
from pareto_trm.linalg import (
    LPProblem,
    axis_differences,
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


def solve_linear_augmented(A, b):
    """solve_linear as it was before the factorization was kept: one elimination
    of the augmented matrix [A | b] (inputs assumed valid)."""
    A = np.array(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    M = np.hstack([A, b.reshape(n, -1)])
    piv_floor = 1e-12 * np.max(np.abs(A), initial=0.0)
    for col in range(n):
        p = col + int(np.argmax(np.abs(M[col:, col])))
        if np.abs(M[p, col]) <= piv_floor:
            raise SingularMatrix(f"pivot {M[p, col]!r} below threshold in column {col}")
        if p != col:
            M[[col, p]] = M[[p, col]]
        factors = M[col + 1:, col] / M[col, col]
        M[col + 1:, col:] -= factors[:, None] * M[col, col:]
    X = np.zeros((M.shape[1] - n, n))
    for x, rhs in zip(X, M[:, n:].T):
        for i in range(n - 1, -1, -1):
            x[i] = (rhs[i] - M[i, i + 1: n] @ x[i + 1:]) / M[i, i]
    return X.T if b.ndim == 2 else X[0]


def solve_descent_lp_rescan(lp, stats=None):
    """solve_descent_lp as it was before each basis was factored once: three
    augmented solves per iteration and a reduced-cost scan from j = 0. `stats`,
    if given, receives the counts of pivots, bound flips and reduced-cost dots."""
    G, lo, hi = lp.gradients, lp.box_lo, lp.box_hi
    k, n = G.shape
    nv = 2 * n + 1 + k
    big = max(1.0, float(np.abs(G).sum(axis=1).max()) + 1.0)
    upper = np.concatenate([hi, -lo, [big], np.full(k, np.inf)])
    cost = np.zeros(nv)
    cost[2 * n] = -1.0
    A = np.zeros((k, nv))
    A[:, :n] = G
    A[:, n: 2 * n] = -G
    A[:, 2 * n] = 1.0
    A[:, 2 * n + 1:] = np.eye(k)
    basis = list(range(2 * n + 1, nv))
    at_upper = np.zeros(nv, dtype=bool)
    in_basis = np.zeros(nv, dtype=bool)
    in_basis[basis] = True
    tol = 1e-11 * max(1.0, float(np.abs(G).max(initial=0.0)))
    stats = {} if stats is None else stats
    stats.update(pivots=0, flips=0, dots=0)

    def basic_values():
        xn = np.where(at_upper, upper, 0.0)
        xn[in_basis] = 0.0
        return solve_linear_augmented(A[:, basis], -A @ xn)

    for _ in range(500 + 50 * nv):
        xb = basic_values()
        try:
            pi = solve_linear_augmented(A[:, basis].T, cost[basis])
        except SingularMatrix as exc:
            raise LPFailure(f"singular basis: {exc}") from exc
        entering = -1
        for j in range(nv):
            if in_basis[j] or upper[j] <= tol:
                continue
            red = cost[j] - pi @ A[:, j]
            stats["dots"] += 1
            if (not at_upper[j] and red < -tol) or (at_upper[j] and red > tol):
                entering = j
                break
        if entering < 0:
            x = np.where(at_upper, upper, 0.0)
            x[in_basis] = 0.0
            x[basis] = xb
            return x[:n] - x[n: 2 * n], -float(x[2 * n])
        delta = -1.0 if at_upper[entering] else 1.0
        w = solve_linear_augmented(A[:, basis], A[:, entering])
        t_best, leave_pos, leave_to_upper = np.inf, -1, False
        for i, bi in enumerate(basis):
            dw = delta * w[i]
            if dw > tol:
                t = max(xb[i], 0.0) / dw
                hit_upper = False
            elif dw < -tol and np.isfinite(upper[bi]):
                t = max(upper[bi] - xb[i], 0.0) / (-dw)
                hit_upper = True
            else:
                continue
            if t < t_best - 1e-13 or (
                t <= t_best + 1e-13 and leave_pos >= 0 and bi < basis[leave_pos]
            ):
                t_best, leave_pos, leave_to_upper = min(t, t_best), i, hit_upper
        if upper[entering] < t_best - 1e-13:
            at_upper[entering] = not at_upper[entering]
            stats["flips"] += 1
            continue
        if leave_pos < 0:
            if not np.isfinite(upper[entering]):
                raise LPFailure("unbounded direction encountered")
            at_upper[entering] = not at_upper[entering]
            stats["flips"] += 1
            continue
        leaving = basis[leave_pos]
        basis[leave_pos] = entering
        in_basis[entering] = True
        in_basis[leaving] = False
        at_upper[leaving] = leave_to_upper
        at_upper[entering] = False
        stats["pivots"] += 1
    raise LPFailure("simplex iteration cap reached")


def _outcome(solve, *args):
    """(bits of the result) or (exception type, message)."""
    try:
        out = solve(*args)
    except (SingularMatrix, LPFailure) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        d, beta = out
        return d.tobytes(), beta
    return out.shape, out.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(linear_systems())
def test_solve_linear_matches_augmented_elimination(system):
    A, B = system
    for b in (B, B[:, 0]):
        assert _outcome(solve_linear, A, b) == _outcome(solve_linear_augmented, A, b)


@st.composite
def singular_systems(draw):
    """Rank-deficient square systems: a product of thin random factors, scaled."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 10))
    r = draw(st.integers(1, n - 1))
    A = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
    A *= 10.0 ** rng.uniform(-3, 3)
    return A, rng.standard_normal((n, draw(st.integers(1, 4))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(singular_systems())
def test_solve_linear_singular_matches_augmented_elimination(system):
    # the same pivot is rejected with the same message
    A, B = system
    for b in (B, B[:, 0]):
        assert _outcome(solve_linear, A, b) == _outcome(solve_linear_augmented, A, b)


# recorded from a DTLZ6 strict-pc run: the face x2..x6 = 0 makes the cheap
# objective's one-sided FD gradient read 1.8e6
DTLZ6_BADLY_SCALED = (
    np.array([
        [-0.6404468549752317] + [1821886.987679463] * 5,
        [-0.08971299826238535, 159.28984238139253, 159.2898423813921,
         161.4627797602884, 161.46277976028816, 161.46277976028833],
    ]),
    np.array([-0.2673528888837042, 0.0, 0.0, 0.0, 0.0, 0.0]),
    np.array([0.7326471111162958, 1.0, 1.0, 1.0, 1.0, 1.0]),
)

# recorded from the final true-omega diagnostic of the step-solve bench run
# DTLZ1-n6-first-cheap-rest-expensive-rbf-cubic-pascoletti-serafini-s5 (seed 0):
# two rows that agree to ~1e-9 relative except in their first component
DTLZ1_NEAR_PARALLEL = (
    np.array([
        [17.820184039550934, 216.0725309735227, -762.1369016989182,
         -673.4162258599621, -241.0308490563982, -122.5183775925615],
        [-17.82018403860158, 216.07253081824226, -762.1369011978262,
         -673.4162253973585, -241.03084889693775, -122.51837751326165],
    ]),
    np.array([-0.5, -0.30229739990364424, -0.392, -0.6928400982881485,
              -0.49754941670476605, -0.3988087814783336]),
    np.array([0.5, 0.6977026000963558, 0.608, 0.3071599017118515,
              0.502450583295234, 0.6011912185216663]),
)


@st.composite
def descent_lps(draw, max_k=8, max_n=40):
    """(G, lo, hi, badly_scaled): k in 1..max_k gradient rows over n in 1..max_n
    variables, some box sides of zero width; half of the draws have entries on
    a coarse grid, whose ties and degenerate vertices exercise Bland's rule.
    Badly scaled draws scale each row by 1e-6..1e7; the others are unit scale,
    max|G| in [2^-0.49, 2^0.49], which the LP solves unscaled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, n = draw(st.integers(1, max_k)), draw(st.integers(1, max_n))
    G = rng.standard_normal((k, n))
    if draw(st.booleans()):
        G = np.round(2.0 * G) / 2.0
    badly_scaled = draw(st.booleans())
    if badly_scaled:
        G *= 10.0 ** rng.uniform(-6, 7, size=(k, 1))
    elif G.any():
        G *= 2.0 ** rng.uniform(-0.49, 0.49) / np.abs(G).max()
    lo = -rng.uniform(0.0, 1.0, size=n)
    hi = rng.uniform(0.0, 1.0, size=n)
    lo[rng.random(n) < 0.25] = 0.0
    hi[rng.random(n) < 0.25] = 0.0
    return G, lo, hi, badly_scaled


def _lp_outcome(solve, lp):
    out = _outcome(solve, lp)
    # a singular basis in the primal solve used to escape as a bare SingularMatrix
    if out[0] == "SingularMatrix":
        return "LPFailure", f"singular basis: {out[1]}"
    return out


def assert_scaled_lp_contract(G, lo, hi, j):
    """What the LP promises on any rows: exact covariance under G -> 2^j G, and
    a (d, beta) with d in its box and beta = max G d to 1e-9 max(2^e, |beta|),
    or LPFailure; for k <= 4 and n <= 3, the vertex oracle's beta."""
    outcome = _lp_outcome(solve_descent_lp, LPProblem(G, lo, hi))
    scaled = _lp_outcome(solve_descent_lp, LPProblem(np.ldexp(G, j), lo, hi))
    if outcome[0] == "LPFailure":
        assert scaled == outcome
        return
    assert scaled == (outcome[0], float(np.ldexp(outcome[1], j)))
    d, beta = np.frombuffer(outcome[0]), outcome[1]
    top = float(np.abs(G).max())
    e = round(np.log2(top)) if top > 0 else 0
    assert np.all(lo <= d) and np.all(d <= hi)
    assert abs(np.max(G @ d) - beta) <= 1e-9 * max(2.0**e, abs(beta))
    k, n = G.shape
    if k <= 4 and n <= 3 and top > 0:
        _, beta_oracle = lp_vertex_oracle(G / top, lo, hi)
        assert abs(beta / top - beta_oracle) <= 1e-9


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(descent_lps(), st.integers(-30, 30))
@example((*DTLZ6_BADLY_SCALED, True), 5)
@example((*DTLZ1_NEAR_PARALLEL, True), -12)
def test_descent_lp_matches_rescanning_simplex(case, j):
    # unit-scale rows keep the bits of the rescanning simplex; on badly scaled
    # rows, whose answers that simplex gets wrong, the LP keeps its contract
    G, lo, hi, badly_scaled = case
    if badly_scaled:
        assert_scaled_lp_contract(G, lo, hi, j)
    else:
        lp = LPProblem(G, lo, hi)
        assert _lp_outcome(solve_descent_lp, lp) == _lp_outcome(solve_descent_lp_rescan, lp)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(descent_lps(max_k=4, max_n=3), st.integers(-30, 30))
def test_small_lps_match_the_vertex_oracle_at_any_row_scale(case, j):
    G, lo, hi, _ = case
    assert_scaled_lp_contract(G, lo, hi, j)
    assert _lp_outcome(solve_descent_lp, LPProblem(G, lo, hi))[0] != "LPFailure"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(descent_lps(), st.booleans(), st.integers(0, 2**32 - 1))
def test_positive_omega_comes_with_a_nonzero_direction(case, critical, seed):
    # the step methods divide by max|d| wherever omega > 0; a zero d leaves
    # the basic solution a zero right-hand side, so beta is exactly 0. Half of
    # the draws add the row -w G (w > 0), which makes the center critical.
    G, lo, hi, _ = case
    if critical:
        w = np.random.default_rng(seed).uniform(0.1, 1.0, len(G))
        G = np.vstack([G, -(w @ G)])
    try:
        d, beta = solve_descent_lp(LPProblem(G, lo, hi))
    except LPFailure:
        return
    if -beta > 0.0:
        assert np.max(np.abs(d)) > 0.0
    else:
        assert beta == 0.0


def test_badly_scaled_rows_keep_their_recorded_answer():
    # the unscaled simplex returned beta = -9109436.58 with d2 = -57187.8 < 0 = lo2;
    # solved on the rows G 2^-21 the LP finds the vertex optimum
    G, lo, hi = DTLZ6_BADLY_SCALED
    d, beta = solve_descent_lp(LPProblem(G, lo, hi))
    _, beta_oracle = lp_vertex_oracle(G, lo, hi)
    assert beta == pytest.approx(beta_oracle, abs=1e-12)
    assert beta == pytest.approx(-0.0657279690065179, abs=1e-12)
    assert np.all(lo <= d) and np.all(d <= hi)


def test_near_parallel_rows_are_solved():
    # the unscaled simplex rejected a basis of these rows as singular in its
    # multipliers solve, although the LP is well posed
    G, lo, hi = DTLZ1_NEAR_PARALLEL
    d, beta = solve_descent_lp(LPProblem(G, lo, hi))
    _, beta_oracle = lp_vertex_oracle(G, lo, hi)
    assert beta == pytest.approx(beta_oracle, rel=1e-12)
    assert beta == pytest.approx(-930.3069253891053, rel=1e-12)
    assert np.all(lo <= d) and np.all(d <= hi)


def test_wrong_basic_solution_raises_lp_failure(monkeypatch):
    # a basic solution that leaves its box is rejected, never returned
    real = linalg.solve_linear

    def off_by_one(A, b):
        return real(A, b) + 1.0

    monkeypatch.setattr(linalg, "solve_linear", off_by_one)
    lp = LPProblem([[1.0, 2.0], [2.0, 1.0]], -np.ones(2), np.ones(2))
    with pytest.raises(LPFailure, match="basic solution"):
        solve_descent_lp(lp)


@pytest.mark.parametrize("which", ["primal", "lapack"])
def test_singular_basis_raises_lp_failure(monkeypatch, which):
    # every basis is checked by the elimination (primal) and then solved by LAPACK
    calls = []
    if which == "primal":
        real = linalg._eliminate

        def eliminate_singular(B):
            calls.append(B)
            return real(np.zeros_like(B) if len(calls) == 2 else B)  # the second factored basis

        monkeypatch.setattr(linalg, "_eliminate", eliminate_singular)
        message = "^singular basis: pivot"
    else:
        real = np.linalg.solve

        def solve_singular(B, A):
            calls.append(B)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(B, A)

        monkeypatch.setattr(np.linalg, "solve", solve_singular)
        message = "^singular basis: Singular matrix"
    lp = LPProblem([[1.0, 2.0], [2.0, 1.0]], -np.ones(2), np.ones(2))
    with pytest.raises(LPFailure, match=message):
        solve_descent_lp(lp)


def test_each_basis_factored_and_priced_once(monkeypatch, rng):
    # ZDT1's gradient rows at an interior point: most iterations are bound flips
    G = np.zeros((2, 40))
    G[0, 0], G[1, 0], G[1, 1:] = 1.0, -1.04, 0.175
    lo = -rng.uniform(0.1, 0.5, 40)
    lp = LPProblem(G, lo, 1.0 + lo)
    stats = {}
    expected = solve_descent_lp_rescan(lp, stats)
    nv = 2 * 40 + 1 + 2
    bases = stats["pivots"] + 1
    assert stats["flips"] > stats["pivots"]
    assert stats["dots"] > bases * nv  # rescanning after every flip breaks the bound

    eliminated, solves, linear = [], [], []
    real_eliminate, real_solve, real_linear = linalg._eliminate, np.linalg.solve, linalg.solve_linear

    def counted_eliminate(B):
        eliminated.append(B)
        return real_eliminate(B)

    def counted_solve(B, A):
        solves.append(B)
        return real_solve(B, A)

    def counted_linear(B, b):
        # the LP's own eliminations all come before the final basic solution's
        linear.append((B, len(eliminated)))
        return real_linear(B, b)

    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(linalg, "solve_linear", counted_linear)
    d, beta = solve_descent_lp(lp)
    assert (d.tobytes(), beta) == (expected[0].tobytes(), expected[1])
    assert len(linear) == 1
    final_basis, lp_eliminations = linear[0]
    # the first two bases are nonsingular by construction and written down
    assert lp_eliminations == len(solves) == bases - 2
    assert all(np.array_equal(a, b) for a, b in zip(eliminated, solves))
    assert np.array_equal(final_basis, solves[-1])


def eliminate_full_rows(M):
    """_eliminate as it was before it swapped only the live columns: full-row
    swaps, np.max and a trailing update after the last column."""
    U = np.array(M, dtype=float)
    n = U.shape[0]
    piv_floor = 1e-12 * np.max(np.abs(U[:, :n]), initial=0.0)
    for col in range(n):
        p = col + int(np.abs(U[col:, col]).argmax())
        if abs(U[p, col]) <= piv_floor:
            raise SingularMatrix(f"pivot {U[p, col]!r} below threshold in column {col}")
        if p != col:
            U[[col, p]] = U[[p, col]]
        factors = U[col + 1:, col] / U[col, col]
        U[col + 1:, col:] -= factors[:, None] * U[col, col:]
    return U


@st.composite
def elimination_inputs(draw):
    """(M, n): an n-row square A or a wide [A | b]. Grid draws tie pivots and
    hold exact zeros and -0.0; some draws repeat a row (rank-deficient) or
    zero a column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    M = rng.standard_normal((n, n + draw(st.integers(0, 3))))
    if draw(st.booleans()):
        M = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=M.shape)
    M *= 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    if n > 1 and draw(st.booleans()):
        M[rng.integers(1, n)] = M[0]
    if draw(st.booleans()):
        M[:, rng.integers(n)] = 0.0
    return M, n


def _elimination_outcome(eliminate, M, n):
    try:
        U = eliminate(M)
    except SingularMatrix as exc:
        return "SingularMatrix", str(exc)
    return np.triu(U[:, :n]).tobytes(), U[:, n:].tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(elimination_inputs())
@example((np.array([[5.0]]), 1))
@example((np.array([[-0.0, 1.0]]), 1))
@example((np.array([[1.0, 2.0, 3.0], [-1.0, 2.0, -0.0]]), 2))
def test_eliminate_matches_full_row_swaps(case):
    # the upper triangle and the right-hand sides keep their bits, and a
    # singular input raises the same message; the strict lower part is unread
    M, n = case
    assert _elimination_outcome(linalg._eliminate, M, n) == _elimination_outcome(
        eliminate_full_rows, M, n
    )


def solve_descent_lp_slack_start(lp):
    """solve_descent_lp as it was before it started at its forced second
    basis: the simplex starts at the slack basis and factors every basis
    (with the full-row elimination above and LAPACK)."""
    lo, hi = lp.box_lo, lp.box_hi
    k, n = lp.gradients.shape
    gmax = float(np.abs(lp.gradients).max(initial=0.0))
    e = int(np.rint(np.log2(gmax))) if gmax > 0.0 else 0
    G = np.ldexp(lp.gradients, -e)
    nv = 2 * n + 1 + k
    big = max(1.0, float(np.abs(G).sum(axis=1).max()) + 1.0)
    upper = np.concatenate([hi, -lo, [big], np.full(k, np.inf)])
    cost = np.zeros(nv)
    cost[2 * n] = -1.0
    A = np.zeros((k, nv))
    A[:, :n] = G
    A[:, n: 2 * n] = -G
    A[:, 2 * n] = 1.0
    A[:, 2 * n + 1:] = np.eye(k)
    basis = list(range(2 * n + 1, nv))
    at_upper = np.zeros(nv, dtype=bool)
    in_basis = np.zeros(nv, dtype=bool)
    in_basis[basis] = True
    xn = np.zeros(nv)
    tol = 1e-11 * max(1.0, float(np.abs(G).max(initial=0.0)))
    priced = upper > tol
    caps = upper.tolist()
    W = None
    for _ in range(500 + 50 * nv):
        if W is None:
            B = A[:, basis]
            try:
                eliminate_full_rows(B)
                W = np.linalg.solve(B, A)
            except (SingularMatrix, np.linalg.LinAlgError) as exc:
                raise LPFailure(f"singular basis: {exc}") from exc
            red = cost - cost[basis] @ W
            eligible = priced & ~in_basis & np.where(at_upper, red > tol, red < -tol)
            candidates = iter(np.flatnonzero(eligible).tolist())
        entering = next(candidates, -1)
        if entering < 0:
            break
        xb = (-(W @ xn)).tolist()
        w = (-W[:, entering] if at_upper[entering] else W[:, entering]).tolist()
        t_best, leave_pos, leave_to_upper = np.inf, -1, False
        for i, bi in enumerate(basis):
            dw = w[i]
            if dw > tol:
                t = max(xb[i], 0.0) / dw
                hit_upper = False
            elif dw < -tol and caps[bi] < np.inf:
                t = max(caps[bi] - xb[i], 0.0) / (-dw)
                hit_upper = True
            else:
                continue
            if t < t_best - 1e-13 or (
                t <= t_best + 1e-13 and leave_pos >= 0 and bi < basis[leave_pos]
            ):
                t_best, leave_pos, leave_to_upper = min(t, t_best), i, hit_upper
        if upper[entering] < t_best - 1e-13:
            at_upper[entering] = not at_upper[entering]
            xn[entering] = upper[entering] if at_upper[entering] else 0.0
            continue
        if leave_pos < 0:
            raise LPFailure("unbounded direction encountered")
        leaving = basis[leave_pos]
        basis[leave_pos] = entering
        in_basis[entering] = True
        in_basis[leaving] = False
        at_upper[leaving] = leave_to_upper
        at_upper[entering] = False
        xn[leaving] = upper[leaving] if leave_to_upper else 0.0
        xn[entering] = 0.0
        W = None
    else:
        raise LPFailure("simplex iteration cap reached")
    x = xn
    x[basis] = solve_linear_augmented(B, -A @ xn)
    d = x[:n] - x[n: 2 * n]
    beta = -float(x[2 * n])
    gap = float(np.max(G @ d)) - beta
    if not (np.all(d >= lo) and np.all(d <= hi) and abs(gap) <= 1e-9 * max(1.0, abs(beta))):
        raise LPFailure(f"basic solution leaves its box or misstates beta: gap {gap!r}")
    return d, float(np.ldexp(beta, e))


@st.composite
def descent_lps_with_zero_rows(draw):
    """descent_lps draws, badly scaled ones over 13 decades, with some
    gradient rows zeroed."""
    G, lo, hi, badly_scaled = draw(descent_lps())
    G = G.copy()
    G[np.array(draw(st.lists(st.booleans(), min_size=len(G), max_size=len(G))))] = 0.0
    return G, lo, hi, badly_scaled


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(descent_lps_with_zero_rows())
@example((*DTLZ6_BADLY_SCALED, True))
@example((*DTLZ1_NEAR_PARALLEL, True))
@example((np.zeros((3, 4)), -np.ones(4), np.ones(4), False))
def test_forced_start_keeps_every_bit(case):
    # (d, beta) as bytes and every LPFailure message are those of the simplex
    # that starts at the slack basis; on unit-scale rows, those of the
    # rescanning simplex too
    G, lo, hi, badly_scaled = case
    lp = LPProblem(G, lo, hi)
    outcome = _lp_outcome(solve_descent_lp, lp)
    assert outcome == _lp_outcome(solve_descent_lp_slack_start, lp)
    if not badly_scaled:
        assert outcome == _lp_outcome(solve_descent_lp_rescan, lp)


@pytest.mark.parametrize("k", range(1, 9))
def test_forced_w_is_the_lapack_solve(k):
    # the second basis [bt, s_2, .., s_k] is unit lower triangular, and its
    # written-down W = B2^-1 A equals LAPACK's value for value
    rng = np.random.default_rng(k)
    n = 5
    G = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-6, 7, size=(k, 1))
    G[rng.random(k) < 0.3] = 0.0
    if k > 1:
        G[-1] = G[0]
    G = np.ldexp(G, -int(np.rint(np.log2(np.abs(G).max()))))
    A = np.zeros((k, 2 * n + 1 + k))
    A[:, :n] = G
    A[:, n: 2 * n] = -G
    A[:, 2 * n] = 1.0
    A[:, 2 * n + 1:] = np.eye(k)
    B2 = A[:, [2 * n, *range(2 * n + 2, 2 * n + 1 + k)]]
    assert np.array_equal(B2, np.tril(B2)) and np.all(np.diag(B2) == 1.0)
    assert np.array_equal(linalg._forced_w(A), np.linalg.solve(B2, A))


def _quad(c):
    c = np.asarray(c, dtype=float)

    def val(X):
        return np.sum((X - c) ** 2, axis=1)

    def grad(X):
        return 2.0 * (X - c)

    return val, grad


def same_bits(a, b) -> bool:
    """Equal as bytes: -0.0 differs from 0.0, and NaN matches the same NaN."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


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


# one iteration of multistart_one_halving: the iterate, its values, gradient
# and steps, the halving each start accepted (-1 for none), and the state after
Iteration = namedtuple("Iteration", "X F G step halving Xn Fn stepn")


def repeats(it: Iteration) -> bool:
    """The iteration ends in the exact state it began from."""
    return same_bits(it.X, it.Xn) and same_bits(it.F, it.Fn) and same_bits(it.step, it.stepn)


def multistart_one_halving(
    value_fn, grad_fn, lo, hi, n_starts=10, seed=0, max_iters=200, gtol=1e-10, include=None,
    log=None,
):
    """box_multistart_minimize as it was before its backtracking ladder: every
    value_fn call tests one halving of every start, accepted or not. `log`
    gets one Iteration per iteration."""
    n = lo.size
    X = lo + halton(max(1, n_starts), n, offset=1000 * seed) * (hi - lo)
    if include is not None:
        X = np.vstack([np.clip(np.atleast_2d(include), lo, hi), X])
    F = value_fn(X)
    Gr = grad_fn(X)
    step = np.ones(X.shape[0])
    for _ in range(max_iters):
        start_step = step.copy()
        halving = np.full(X.shape[0], -1)
        moved = False
        trial_step = step.copy()
        Xn, Fn = X, F
        accept = np.zeros(X.shape[0], dtype=bool)
        for bt in range(40):
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
                halving[ok] = bt
            if np.all(accept):
                break
            trial_step = np.where(accept, trial_step, trial_step / 2.0)
        if log is not None:
            log.append(Iteration(X, F, Gr, start_step, halving, Xn, Fn, step.copy()))
        if not moved:
            break
        X, F = Xn, Fn
        Gr = grad_fn(X)
        proj_grad = np.max(np.abs(X - np.clip(X - Gr, lo, hi)), axis=1)
        if np.all(proj_grad <= gtol):
            break
    best = int(np.argmin(F))
    return X[best].copy(), float(F[best])


def multistart_ladder_oracle(
    value_fn, grad_fn, lo, hi, n_starts=10, seed=0, max_iters=200, gtol=1e-10, include=None
):
    """box_multistart_minimize as it was before its aux protocol and its
    fixed-point exit, on plain value_fn(U) and grad_fn(U)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    X = lo + halton(max(1, n_starts), n, offset=1000 * seed) * (hi - lo)
    if include is not None:
        extra = np.atleast_2d(np.asarray(include, dtype=float))
        X = np.vstack([np.clip(extra, lo, hi), X])
    F = value_fn(X)
    Gr = grad_fn(X)
    step = np.ones(X.shape[0])
    for _ in range(max_iters):
        Xn, Fn = X.copy(), F.copy()
        pending = np.arange(X.shape[0])
        # the pending starts' iterates, gradients, values and next halving to test
        Xp, Gp, Fp, trial = X, Gr, F, step
        for b0 in range(0, linalg.MAX_HALVINGS, linalg.LADDER):
            rungs = min(linalg.LADDER, linalg.MAX_HALVINGS - b0)
            S = np.empty((pending.size, rungs))
            S[:, 0] = trial
            for b in range(1, rungs):
                S[:, b] = S[:, b - 1] / 2.0
            cand = np.clip(Xp[:, None, :] - S[:, :, None] * Gp[:, None, :], lo, hi)
            Fc = value_fn(cand.reshape(-1, n)).reshape(-1, rungs)
            moves = (Xp[:, None, :] - cand).reshape(-1, n)
            decrease = np.einsum("ij,ij->i", np.repeat(Gp, rungs, axis=0), moves)
            ok = Fc <= Fp[:, None] - 1e-4 * decrease.reshape(-1, rungs)
            hit = ok.any(axis=1)
            first = np.argmax(ok[hit], axis=1)
            rows = pending[hit]
            Xn[rows] = cand[hit, first]
            Fn[rows] = Fc[hit, first]
            step[rows] = S[hit, first] * 2.0
            miss = ~hit
            pending = pending[miss]
            if pending.size == 0:
                break
            Xp, Gp, Fp, trial = Xp[miss], Gp[miss], Fp[miss], S[miss, -1] / 2.0
        if pending.size == X.shape[0]:  # no start moved
            break
        X, F = Xn, Fn
        Gr = grad_fn(X)  # for the stop test and the next iteration
        proj_grad = np.max(np.abs(X - np.clip(X - Gr, lo, hi)), axis=1)
        if np.all(proj_grad <= gtol):
            break
    best = int(np.argmin(F))
    return X[best].copy(), float(F[best])


def ladder_calls(log, lo, hi):
    """The value_fn and grad_fn calls the ladder makes, derived from the
    one-halving loop's log: per iteration, one value call per rung holding
    LADDER consecutive halvings of each start still pending, row by row, then
    the gradient of the next iterate, unless the iteration repeats its start
    state, where the ladder stops."""
    calls = [("value", log[0].X), ("grad", log[0].X)]
    for it in log:
        pending, trial = list(range(len(it.X))), it.step.copy()
        for b0 in range(0, linalg.MAX_HALVINGS, linalg.LADDER):
            rows = []
            for i in pending:
                t = trial[i]
                for _ in range(min(linalg.LADDER, linalg.MAX_HALVINGS - b0)):
                    rows.append(np.clip(it.X[i] - t * it.G[i], lo, hi))
                    t = t / 2.0
                trial[i] = t
            calls.append(("value", np.array(rows)))
            pending = [i for i in pending if not 0 <= it.halving[i] < b0 + linalg.LADDER]
            if not pending:
                break
        if repeats(it):
            break
        calls.append(("grad", it.Xn))
    return calls


def assert_ladder_matches_one_halving(val, grad, lo, hi, **kwargs):
    """The ladder returns the one-halving loop's point and value bit for bit
    and makes exactly ladder_calls(...); returns the loop's log."""
    calls = []

    def logged(kind, fn):
        def call(X):
            calls.append((kind, X.copy()))
            return fn(X)

        return call

    value_fn, grad_fn = plain(logged("value", val), logged("grad", grad))
    x, v = box_multistart_minimize(value_fn, grad_fn, lo, hi, **kwargs)
    log = []
    x_old, v_old = multistart_one_halving(val, grad, lo, hi, log=log, **kwargs)
    assert same_bits(x, x_old) and same_bits(v, v_old)
    expected = ladder_calls(log, lo, hi)
    assert [kind for kind, _ in calls] == [kind for kind, _ in expected]
    assert all(same_bits(a, b) for (_, a), (_, b) in zip(calls, expected))
    # at most ceil(MAX_HALVINGS / LADDER) value calls between two gradients
    rungs = -(-linalg.MAX_HALVINGS // linalg.LADDER)
    runs = "".join("v" if kind == "value" else "g" for kind, _ in calls).split("g")
    assert max(len(run) for run in runs[1:]) <= rungs
    return log


def bumpy(a, c, b, w, uphill_below=None):
    """sum_j a_j (x_j - c_j)^2 + b_j sin(w_j x_j) and its gradient, row by row;
    the gradient is negated on rows with x_0 < uphill_below, so Armijo rejects
    every halving there unless a face clips the step to nothing."""

    def val(X):
        return np.sum(a * (X - c) ** 2 + b * np.sin(w * X), axis=1)

    def grad(X):
        G = 2.0 * a * (X - c) + b * w * np.cos(w * X)
        if uphill_below is not None:
            G[X[:, 0] < uphill_below] *= -1.0
        return G

    return val, grad


@st.composite
def multistart_cases(draw):
    """A row-independent bumpy function (possibly concave, possibly with some
    rows' gradients uphill) on a box that may have flat sides, with starts
    that may lie on its faces."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(-1.0, 1.0, n)
    flat = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    hi = lo + np.where(flat, 0.0, rng.uniform(0.1, 2.0, n))
    a = rng.uniform(-1.0, 2.0, n)
    c = rng.uniform(lo - 0.5, hi + 0.5)
    b = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([0.0, 1.0]))
    w = rng.uniform(1.0, 8.0, n)
    uphill = draw(st.sampled_from([None, float(lo[0] + 0.5 * (hi[0] - lo[0]))]))
    val, grad = bumpy(a, c, b, w, uphill)
    include = None
    k = draw(st.integers(0, 3))
    if k:
        pick = rng.integers(0, 3, (k, n))  # lower face, upper face or inside
        include = np.where(pick == 0, lo, np.where(pick == 1, hi, rng.uniform(lo, hi, (k, n))))
    kwargs = dict(
        n_starts=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 3)),
        max_iters=draw(st.sampled_from([1, 2, 3, 150])),
        include=include,
    )
    return val, grad, lo, hi, kwargs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(multistart_cases())
def test_ladder_matches_one_halving_loop(case):
    val, grad, lo, hi, kwargs = case
    assert_ladder_matches_one_halving(val, grad, lo, hi, **kwargs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(multistart_cases())
def test_matches_ladder_oracle(case):
    # the aux protocol, the thinner loop and the fixed-point exit keep every bit
    val, grad, lo, hi, kwargs = case
    x, v = box_multistart_minimize(*plain(val, grad), lo, hi, **kwargs)
    x_old, v_old = multistart_ladder_oracle(val, grad, lo, hi, **kwargs)
    assert same_bits(x, x_old) and same_bits(v, v_old)


@pytest.mark.parametrize("aux_shape", ["rows", "matrix"])
def test_grad_receives_the_aux_rows_of_its_points(aux_shape):
    # the aux rows travel with the accepted candidates, through rungs and iterations
    val, grad = bumpy(*TestLadder.a_c_b_w)

    def value_fn(U):
        F = val(U)
        aux = F * 3.0 if aux_shape == "rows" else np.column_stack([U.sum(axis=1), F])
        return F, aux

    seen = []

    def grad_fn(U, aux):
        seen.append((U.copy(), aux.copy()))
        return grad(U)

    x, v = box_multistart_minimize(value_fn, grad_fn, np.zeros(3), np.ones(3), 6, seed=1)
    x_old, v_old = multistart_ladder_oracle(val, grad, np.zeros(3), np.ones(3), 6, seed=1)
    assert same_bits(x, x_old) and same_bits(v, v_old)
    assert len(seen) > 2
    assert all(same_bits(aux, value_fn(U)[1]) for U, aux in seen)


class TestLadder:
    lo, hi = np.zeros(3), np.ones(3)
    a, c = np.array([1.0, 2.0, 0.5]), np.array([0.3, 1.4, -0.2])
    b, w = np.array([0.3, -0.2, 0.1]), np.array([5.0, 3.0, 7.0])
    a_c_b_w = (a, c, b, w)

    def test_starts_on_faces(self):
        val, grad = bumpy(self.a, self.c, self.b, self.w)
        starts = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.5, 1.0]])
        log = assert_ladder_matches_one_halving(val, grad, self.lo, self.hi, n_starts=3, include=starts)
        assert len(log) > 1

    def test_include_with_one_start(self):
        val, grad = bumpy(self.a, self.c, self.b, self.w)
        assert_ladder_matches_one_halving(
            val, grad, self.lo, self.hi, n_starts=1, seed=8, include=np.array([[0.9, 0.1, 0.5]])
        )

    def test_iteration_cap(self):
        val, grad = bumpy(self.a, self.c, self.b, self.w)
        log = assert_ladder_matches_one_halving(val, grad, self.lo, self.hi, n_starts=5, max_iters=2)
        assert len(log) == 2

    def test_uphill_rows_exhaust_every_halving(self):
        val, grad = bumpy(self.a, self.c, self.b, self.w, uphill_below=0.5)
        log = assert_ladder_matches_one_halving(val, grad, self.lo, self.hi, n_starts=8, seed=1)
        exhausted = [it.halving == -1 for it in log]
        assert all(e.any() for e in exhausted) and not exhausted[0].all() and len(log) > 1

    @pytest.mark.parametrize("ladder", [1, 3, 6, 40])
    def test_any_ladder_length(self, ladder, monkeypatch):
        # a rung that would run past MAX_HALVINGS is cut short
        monkeypatch.setattr(linalg, "LADDER", ladder)
        val, grad = bumpy(self.a, self.c, self.b, self.w, uphill_below=0.5)
        assert_ladder_matches_one_halving(val, grad, self.lo, self.hi, n_starts=8, seed=1)

    def test_no_start_moves(self):
        # every gradient uphill: one iteration of MAX_HALVINGS halvings, then the best start
        val, grad = bumpy(self.a, self.c, self.b, self.w, uphill_below=2.0)
        log = assert_ladder_matches_one_halving(val, grad, self.lo, self.hi, n_starts=4, seed=2)
        assert len(log) == 1 and np.all(log[0].halving == -1)

    def test_growing_step_is_not_a_fixed_point(self):
        # at x = 1 the gradient is too small to move x: x and f repeat while
        # the step doubles, until the step is long enough to move x; the start
        # at x = 0.1 has an uphill gradient, never moves and keeps the stop
        # test from ending the search
        def val(X):
            return 1e-17 * X[:, 0] + np.where(X[:, 0] < 0.5, 1.5 - X[:, 0], 0.0)

        def grad(X):
            return np.where(X < 0.5, 1.0, 1e-17)

        log = assert_ladder_matches_one_halving(
            val, grad, np.zeros(1), np.full(1, 2.0), n_starts=1, include=np.full((1, 1), 0.1),
            max_iters=20,
        )
        assert same_bits(log[0].X, log[0].Xn) and same_bits(log[0].F, log[0].Fn)
        assert not repeats(log[0]) and log[-1].Xn[1, 0] < 1.0

    def test_nan_start_reaches_the_exit(self):
        # a start whose value is NaN never moves; its NaN repeats as bytes,
        # so the other starts' fixed point still ends the search
        hole = 0.125
        val0, grad = bumpy(np.array([0.5]), np.array([0.3]), np.array([-0.9]), np.array([3.0]))

        def val(X):
            F = val0(X)
            F[X[:, 0] == hole] = np.nan
            return F

        log = assert_ladder_matches_one_halving(
            val, grad, np.zeros(1), np.ones(1), n_starts=4, max_iters=150,
            include=np.full((1, 1), hole),
        )
        exits = [i for i, it in enumerate(log) if repeats(it)]
        assert exits and 0 < exits[0] < len(log) - 1 and np.isnan(log[0].F[0])


class TestMultistart:
    def test_interior_quadratic(self):
        val, grad = _quad([0.3, 0.6])
        x, v = box_multistart_minimize(*plain(val, grad), np.zeros(2), np.ones(2), 5, seed=1)
        np.testing.assert_allclose(x, [0.3, 0.6], atol=1e-6)
        assert v <= 1e-10

    def test_exterior_quadratic_projects(self):
        val, grad = _quad([2.0, -1.0])
        x, _ = box_multistart_minimize(*plain(val, grad), np.zeros(2), np.ones(2), 5, seed=1)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-6)

    def test_rosenbrock(self):
        def val(X):
            return (1 - X[:, 0]) ** 2 + 100.0 * (X[:, 1] - X[:, 0] ** 2) ** 2

        def grad(X):
            gx = -2 * (1 - X[:, 0]) - 400.0 * X[:, 0] * (X[:, 1] - X[:, 0] ** 2)
            gy = 200.0 * (X[:, 1] - X[:, 0] ** 2)
            return np.column_stack([gx, gy])

        _, v = box_multistart_minimize(
            *plain(val, grad), -2 * np.ones(2), 2 * np.ones(2), 20, seed=3,
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

        box_multistart_minimize(*plain(spy_val, grad), np.zeros(3), np.ones(3), 1, seed=0)
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

        x, v = box_multistart_minimize(
            *plain(val, counted_grad), lo, hi, 4, seed=1, max_iters=max_iters
        )
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
        _, v = box_multistart_minimize(*plain(val, grad), lo, hi, 7, seed=2)
        assert v <= val(starts).min() + 1e-12


class TestFixedPointExit:
    """The stage-1 Pascoletti-Serafini multistart of the bench's seed-0 T6
    coverage run repeats its state from its 31st iteration."""

    @staticmethod
    def t6_stage_one(monkeypatch):
        """(value_fn, grad_fn, lo, hi, kwargs) of that call, as the step made it."""
        calls = []

        def recording(value_fn, grad_fn, lo, hi, **kwargs):
            calls.append((value_fn, grad_fn, lo, hi, kwargs))
            return box_multistart_minimize(value_fn, grad_fn, lo, hi, **kwargs)

        monkeypatch.setattr(steps, "box_multistart_minimize", recording)
        jobs = load_perfbench("workloads").build_jobs("step-solve", 0)
        _, prob, cfg, x0 = next(
            job for job in jobs if job[0].startswith("T6-n2-default-rbf-cubic-pascoletti-serafini")
        )
        run(prob, cfg, x0, seed=0)
        return next(call for call in calls if call[4]["seed"] == 7)

    def test_exit_returns_the_capped_result(self, monkeypatch):
        value_fn, grad_fn, lo, hi, kwargs = self.t6_stage_one(monkeypatch)
        assert kwargs["max_iters"] == 150
        results = {}
        for cap in (150, 10_000):
            counted = []

            def counted_value(U):
                counted.append(len(U))
                return value_fn(U)

            x, v = box_multistart_minimize(
                counted_value, grad_fn, lo, hi, **{**kwargs, "max_iters": cap}
            )
            results[cap] = (x.tobytes(), np.float64(v).tobytes(), len(counted))
        assert results[150] == results[10_000]
        assert results[150][2] < 60  # one value call or more per iteration without the exit
        # and the old loop, run to its cap, returns the same bits
        x_old, v_old = multistart_ladder_oracle(
            lambda U: value_fn(U)[0], lambda U: grad_fn(U, value_fn(U)[1]), lo, hi, **kwargs
        )
        assert results[150][:2] == (x_old.tobytes(), np.float64(v_old).tobytes())


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


def _cubic(P):
    """Two values per row from elementwise arithmetic only, so a row's bits do
    not depend on the batch it is evaluated in."""
    P = np.atleast_2d(P)
    a, b = np.zeros(len(P)), np.zeros(len(P))
    for j in range(P.shape[1]):
        a = a + (j + 1.0) * P[:, j] ** 3 - P[:, j] ** 2
        b = b + P[:, j] * P[:, 0] - 0.5 * P[:, j]
    return np.column_stack([a, b])


@st.composite
def difference_cases(draw):
    """Rows on and off the faces of a box whose sides may be flat (lo_i = hi_i)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coord = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    Z = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=m, max_size=m)))
    flat = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    lo = np.where(flat, Z[0], 0.0)
    hi = np.where(flat, Z[0], 1.0)
    return Z, draw(st.sampled_from([1e-7, 1e-3, 0.3])), lo, hi


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(difference_cases())
def test_axis_differences_match_one_point_oracle(case):
    Z, h, lo, hi = case
    for tail in (0, 1):  # scalar values reading f(z) themselves; vector values given f0
        calls, stencil, at_z = [], [], []

        def batch(P):
            calls.append(P.copy())
            return _cubic(P)[:, 0] if tail == 0 else _cubic(P)

        f0 = None if tail == 0 else _cubic(Z)
        D = axis_differences(batch, Z, h, lo, hi, f0=f0)
        for k, z in enumerate(Z):
            seen = []

            def one(p):
                seen.append(p.copy())
                return _cubic(p)[0, 0] if tail == 0 else _cubic(p)[0]

            g = fd_gradient(one, z, h, lo, hi, f0=None if f0 is None else f0[k])
            assert np.array_equal(D[k], g)
            # a stencil point differs from z in the coordinate it moves
            stencil += [p for p in seen if not np.array_equal(p, z)]
            at_z += [z] if any(np.array_equal(p, z) for p in seen) else []
        # one call: the oracle's stencil points in its order, then every f(z) it read
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.array(stencil + at_z).reshape(-1, Z.shape[1]))
