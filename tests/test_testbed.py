import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_trm.criticality import true_omega
from pareto_trm.errors import ObjectiveFailure, UnsupportedDimension
from pareto_trm.problem import EvaluationDatabase
from pareto_trm.testbed import (
    ALL_EXPENSIVE,
    FIRST_CHEAP,
    FIRST_EXPENSIVE,
    PATTERNS,
    TestProblemSpec,
    make_problem,
    n_objectives,
    pareto_distance,
)


# -- independent reference evaluators (second implementation, used as oracles)

def zdt_reference(name, x):
    x = np.asarray(x, dtype=float)
    n = x.size
    f1 = x[0]
    g = 1 + 9 / (n - 1) * x[1:].sum()
    if name == "ZDT1":
        h = 1 - (f1 / g) ** 0.5
    elif name == "ZDT2":
        h = 1 - (f1 / g) ** 2
    else:
        h = 1 - (f1 / g) ** 0.5 - (f1 / g) * np.sin(10 * np.pi * f1)
    return np.array([f1, g * h])


def dtlz1_reference(x, k):
    x = np.asarray(x, dtype=float)
    xm = x[k - 1:]
    g = 100 * (len(xm) + ((xm - 0.5) ** 2 - np.cos(20 * np.pi * (xm - 0.5))).sum())
    out = np.empty(k)
    for j in range(1, k + 1):
        val = 0.5 * (1 + g)
        for i in range(k - j):
            val *= x[i]
        if j > 1:
            val *= 1 - x[k - j]
        out[j - 1] = val
    return out


def dtlz6_reference(x, k):
    x = np.asarray(x, dtype=float)
    xm = x[k - 1:]
    g = (xm**0.1).sum()
    theta = [np.pi / 2 * x[0]]
    for i in range(1, k - 1):
        theta.append(np.pi / (4 * (1 + g)) * (1 + 2 * g * x[i]))
    out = np.empty(k)
    for j in range(1, k + 1):
        val = 1 + g
        for i in range(k - j):
            val *= np.cos(theta[i])
        if j > 1:
            val *= np.sin(theta[k - j])
        out[j - 1] = val
    return out


# -- the one-point formulas the batch evaluators were written from; each batch
#    evaluator must give their bits (same operations, in the same order)

def scalar_t6():
    def f1(x):
        return x[0] + math.log(x[0]) + x[1] ** 2

    def f2(x):
        return x[0] ** 2 + x[1] ** 4

    def g1(x):
        return np.array([1.0 + 1.0 / x[0], 2.0 * x[1]])

    def g2(x):
        return np.array([2.0 * x[0], 4.0 * x[1] ** 3])

    return [f1, f2], [g1, g2]


def scalar_zdt(name, n):
    def f1(x):
        return float(x[0])

    def g_of(x):
        return 1.0 + 9.0 * float(np.sum(x[1:])) / (n - 1)

    if name == "ZDT1":
        def f2(x):
            g = g_of(x)
            return g * (1.0 - math.sqrt(x[0] / g))
    elif name == "ZDT2":
        def f2(x):
            g = g_of(x)
            return g * (1.0 - (x[0] / g) ** 2)
    else:
        def f2(x):
            g = g_of(x)
            r = x[0] / g
            return g * (1.0 - math.sqrt(r) - r * math.sin(10.0 * math.pi * x[0]))

    def grad_f1(x):
        g = np.zeros(n)
        g[0] = 1.0
        return g

    return [f1, f2], [grad_f1, None]


def scalar_dtlz1(n, k):
    def terms(x):
        tail = x[k - 1:]
        g = 100.0 * (
            tail.size + float(np.sum((tail - 0.5) ** 2 - np.cos(20.0 * math.pi * (tail - 0.5))))
        )
        return g, x[: k - 1]

    def make_f(j):
        def f(x):
            g, pos = terms(x)
            prod = float(np.prod(pos[: k - j])) if k - j > 0 else 1.0
            if j == 1:
                return 0.5 * (1.0 + g) * prod
            return 0.5 * (1.0 + g) * prod * (1.0 - pos[k - j])

        return f

    def grad_f1(x):
        g, pos = terms(x)
        grad = np.zeros(n)
        for i in range(k - 1):
            others = np.prod(np.delete(pos, i)) if pos.size > 1 else 1.0
            grad[i] = 0.5 * (1.0 + g) * float(others)
        prod = float(np.prod(pos)) if pos.size else 1.0
        tail = x[k - 1:]
        dg = 100.0 * (2.0 * (tail - 0.5) + 20.0 * math.pi * np.sin(20.0 * math.pi * (tail - 0.5)))
        grad[k - 1:] = 0.5 * prod * dg
        return grad

    return [make_f(j) for j in range(1, k + 1)], [grad_f1] + [None] * (k - 1)


def scalar_dtlz6(n, k):
    def theta_of(x):
        g = float(np.sum(x[k - 1:] ** 0.1))
        th = np.empty(k - 1)
        th[0] = 0.5 * math.pi * x[0]
        if k > 2:
            th[1:] = math.pi / (4.0 * (1.0 + g)) * (1.0 + 2.0 * g * x[1: k - 1])
        return g, th

    def make_f(j):
        def f(x):
            g, th = theta_of(x)
            val = (1.0 + g) * float(np.prod(np.cos(th[: k - j])))
            if j > 1:
                val *= math.sin(th[k - j])
            return val

        return f

    return [make_f(j) for j in range(1, k + 1)], [None] * k


def scalar_formulas(prob):
    """(values, gradients): the one-point formula of every objective of a test
    problem, and of its gradient where the problem has a gradient evaluator."""
    n, k = prob.n_vars, prob.n_objs
    if prob.name == "T6":
        fs, gs = scalar_t6()
    elif prob.name.startswith("ZDT"):
        fs, gs = scalar_zdt(prob.name, n)
    elif prob.name == "DTLZ1":
        fs, gs = scalar_dtlz1(n, k)
    else:
        fs, gs = scalar_dtlz6(n, k)
    return fs, [g if cb is not None else None for g, cb in zip(gs, prob.gradients)]


def assert_matches_scalar_formulas(prob, X):
    fs, gs = scalar_formulas(prob)
    for idx in range(prob.n_objs):
        assert np.array_equal(prob.objectives[idx](X), [float(fs[idx](x)) for x in X])
        assert (gs[idx] is None) == (prob.gradients[idx] is None)
        if gs[idx] is not None:
            assert np.array_equal(prob.gradients[idx](X), [gs[idx](x) for x in X])


def test_t6_values():
    prob = make_problem(TestProblemSpec("T6"))
    np.testing.assert_allclose(prob.evaluate_raw([1.0, 0.0]), [1.0, 1.0])
    x = np.array([2.0, 3.0])
    expected = [2.0 + math.log(2.0) + 9.0, 4.0 + 81.0]
    np.testing.assert_allclose(prob.evaluate_raw(x), expected)


def test_t6_default_pattern_marks_log_objective_expensive():
    prob = make_problem(TestProblemSpec("T6"))
    np.testing.assert_array_equal(prob.expensive_mask, [True, False])
    assert prob.gradients[0] is None
    assert prob.gradients[1] is not None


def central_differences(fn, x, h):
    """Central differences of the batch evaluator fn at the one point x."""
    E = h * np.eye(x.size)
    return (fn(x + E) - fn(x - E)) / (2 * h)


def test_t6_cheap_gradient_matches_fd(rng):
    prob = make_problem(TestProblemSpec("T6"))
    for _ in range(20):
        x = np.array([rng.uniform(0.5, 20), rng.uniform(0.5, 20)])
        g = prob.gradients[1](x[None])[0]
        fd = central_differences(prob.objectives[1], x, 1e-6)
        np.testing.assert_allclose(g, fd, rtol=1e-4)


def test_t6_wrong_dimension():
    with pytest.raises(UnsupportedDimension):
        make_problem(TestProblemSpec("T6", 3))


def test_zdt1_at_zero():
    prob = make_problem(TestProblemSpec("ZDT1", 5))
    np.testing.assert_allclose(prob.evaluate_raw(np.zeros(5)), [0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("name", ["ZDT1", "ZDT2", "ZDT3"])
def test_zdt_matches_reference(name, rng):
    for n in (2, 5, 15):
        prob = make_problem(TestProblemSpec(name, n))
        for _ in range(250):
            x = rng.random(n)
            np.testing.assert_allclose(
                prob.evaluate_raw(x), zdt_reference(name, x), rtol=1e-12, atol=1e-12
            )


def test_zdt_requires_two_vars():
    with pytest.raises(UnsupportedDimension):
        make_problem(TestProblemSpec("ZDT1", 1))


def test_dtlz_objective_count_formula():
    for n in range(5, 16):
        assert n_objectives("DTLZ1", n) == max(2, n - 4)
        prob = make_problem(TestProblemSpec("DTLZ1", n))
        assert prob.n_objs == max(2, n - 4)


@pytest.mark.parametrize("name,ref", [("DTLZ1", dtlz1_reference), ("DTLZ6", dtlz6_reference)])
def test_dtlz_matches_reference(name, ref, rng):
    for n in (5, 7, 10):
        prob = make_problem(TestProblemSpec(name, n))
        k = prob.n_objs
        for _ in range(250):
            x = rng.random(n)
            np.testing.assert_allclose(
                prob.evaluate_raw(x), ref(x, k), rtol=1e-12, atol=1e-12
            )


def test_dtlz1_cheap_gradient_matches_fd(rng):
    prob = make_problem(TestProblemSpec("DTLZ1", 6))
    assert prob.gradients[0] is not None
    for _ in range(10):
        x = rng.uniform(0.1, 0.9, size=6)
        g = prob.gradients[0](x[None])[0]
        fd = central_differences(prob.objectives[0], x, 1e-7)
        np.testing.assert_allclose(g, fd, rtol=1e-3, atol=1e-5)


def test_zdt_cheap_gradient_is_e1():
    prob = make_problem(TestProblemSpec("ZDT2", 4))
    G = prob.gradients[0](np.full((3, 4), 0.3))
    np.testing.assert_array_equal(G, np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))


def test_patterns():
    prob = make_problem(TestProblemSpec("ZDT1", 4, FIRST_CHEAP))
    np.testing.assert_array_equal(prob.expensive_mask, [False, True])
    prob = make_problem(TestProblemSpec("ZDT1", 4, ALL_EXPENSIVE))
    np.testing.assert_array_equal(prob.expensive_mask, [True, True])
    prob = make_problem(TestProblemSpec("ZDT1", 4, FIRST_EXPENSIVE))
    np.testing.assert_array_equal(prob.expensive_mask, [True, False])


# every family, at sizes that reach each branch: DTLZ with k = 2 (one position
# coordinate) and k > 2, ZDT's pairwise-summed g past 8 coordinates
BATCH_FAMILIES = [
    ("T6", 2), ("ZDT1", 2), ("ZDT1", 12), ("ZDT2", 5), ("ZDT3", 5), ("ZDT3", 30),
    ("DTLZ1", 3), ("DTLZ1", 8), ("DTLZ1", 16), ("DTLZ6", 3), ("DTLZ6", 8), ("DTLZ6", 12),
]


@st.composite
def batch_cases(draw):
    """A test problem and a batch of scaled points on and near its faces."""
    name, n = draw(st.sampled_from(BATCH_FAMILIES))
    prob = make_problem(TestProblemSpec(name, n, draw(st.sampled_from(PATTERNS))))
    coord = st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(1e-12, 1e-4),  # DTLZ6 tails near 0, where x^0.1 is steep
        st.floats(0.0, 1.0),
    )
    rows = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=6))
    return prob, np.array(rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batch_cases())
def test_batch_evaluators_match_scalar_functions_bit_for_bit(case):
    prob, Z = case
    assert_matches_scalar_formulas(prob, np.array([prob.unscale(z) for z in Z]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batch_cases(), st.data())
def test_batch_evaluators_are_row_independent(case, data):
    # F(X)[S] == F(X[S]): a row's bits do not depend on the rest of its batch
    prob, Z = case
    X = prob.unscale(Z)
    S = data.draw(st.lists(st.integers(0, len(X) - 1), min_size=1, max_size=2 * len(X)))
    for fn in [*prob.objectives, *(g for g in prob.gradients if g is not None)]:
        assert np.array_equal(fn(X)[S], fn(X[S]))


@pytest.mark.parametrize("name, n", BATCH_FAMILIES)
def test_batch_evaluators_match_scalar_functions_in_bulk(name, n, rng):
    # an ulp-level slip (a vectorized math-library call, a reordered product)
    # shows on a small share of points, so sample many, a sixth of the
    # coordinates on each face: T6's f1 with np.log for math.log differs on
    # ~0.06% of such points, its f2 with array ** for float ** on ~3%
    for pattern in (FIRST_CHEAP, FIRST_EXPENSIVE):
        prob = make_problem(TestProblemSpec(name, n, pattern))
        m = 40000 if name == "T6" else 2000
        Z = rng.random((m, n))
        face = rng.random((m, n))
        Z = np.where(face < 1 / 6, 0.0, np.where(face > 5 / 6, 1.0, Z))
        assert_matches_scalar_formulas(prob, prob.feasible.lower + Z * prob.width)


def test_t6_domain_safety():
    # the box keeps x1 >= eps so the log never sees a nonpositive argument
    prob = make_problem(TestProblemSpec("T6"))
    db = EvaluationDatabase(prob)
    vals = db.evaluate([1e-12, 0.0])
    assert np.all(np.isfinite(vals))
    from pareto_trm.errors import InfeasiblePoint

    with pytest.raises(InfeasiblePoint):
        db.evaluate([0.0, 0.0])


class TestSolutionQuality:
    def test_pareto_distance(self):
        assert pareto_distance(make_problem(TestProblemSpec("T6")), [2.0, 0.5]) == 2.0 - 1e-12
        assert pareto_distance(make_problem(TestProblemSpec("ZDT1", 3)), np.full(3, 0.5)) is None

    def test_t6_optimum(self):
        prob = make_problem(TestProblemSpec("T6"))
        assert pareto_distance(prob, [1e-12, 0.0]) == pytest.approx(0.0)
        assert true_omega(prob, [1e-12, 0.0]).omega_clamped == pytest.approx(0.0, abs=1e-9)

    def test_interior_point_not_critical(self):
        prob = make_problem(TestProblemSpec("T6"))
        assert true_omega(prob, [15.0, 15.0]).omega_clamped > 0.1

    def test_zdt_has_no_distance_oracle(self):
        prob = make_problem(TestProblemSpec("ZDT1", 3))
        assert pareto_distance(prob, np.full(3, 0.5)) is None
        assert true_omega(prob, np.full(3, 0.5)).omega_clamped > 0.0

    def test_nondifferentiable_flag_when_gradient_blows_up(self):
        # synthetic problem whose objective returns NaN off a single point
        from pareto_trm.problem import FeasibleSet, MOProblem

        def bad(X):
            return np.where(X[:, 0] > 0.0, np.nan, 0.0)

        prob = MOProblem(
            1, 1, [bad], np.array([True]), FeasibleSet.box([0.0], [1.0]), name="bad"
        )
        # a run reports omega 0 and final_nondifferentiable on this failure
        with pytest.raises(ObjectiveFailure):
            true_omega(prob, [0.0])
