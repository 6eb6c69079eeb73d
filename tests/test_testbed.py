import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_trm.errors import UnsupportedDimension
from pareto_trm.problem import EvaluationDatabase
from pareto_trm.testbed import (
    ALL_EXPENSIVE,
    FIRST_CHEAP,
    FIRST_EXPENSIVE,
    PATTERNS,
    TestProblemSpec,
    make_problem,
    n_objectives,
    solution_quality,
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


def test_t6_values():
    prob = make_problem(TestProblemSpec("T6"))
    np.testing.assert_allclose(prob.evaluate_raw([1.0, 0.0]), [1.0, 1.0])
    x = np.array([2.0, 3.0])
    expected = [2.0 + math.log(2.0) + 9.0, 4.0 + 81.0]
    np.testing.assert_allclose(prob.evaluate_raw(x), expected)


def test_t6_default_pattern_marks_log_objective_expensive():
    prob = make_problem(TestProblemSpec("T6"))
    np.testing.assert_array_equal(prob.expensive_mask, [True, False])
    assert prob.gradient_callbacks[0] is None
    assert prob.gradient_callbacks[1] is not None


def test_t6_cheap_gradient_matches_fd(rng):
    prob = make_problem(TestProblemSpec("T6"))
    for _ in range(20):
        x = np.array([rng.uniform(0.5, 20), rng.uniform(0.5, 20)])
        g = prob.gradient_callbacks[1](x)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (prob.objectives[1](x + e) - prob.objectives[1](x - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-4)


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
    cb = prob.gradient_callbacks[0]
    assert cb is not None
    for _ in range(10):
        x = rng.uniform(0.1, 0.9, size=6)
        g = cb(x)
        h = 1e-7
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (prob.objectives[0](x + e) - prob.objectives[0](x - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-3, abs=1e-5)


def test_zdt_cheap_gradient_is_e1():
    prob = make_problem(TestProblemSpec("ZDT2", 4))
    g = prob.gradient_callbacks[0](np.full(4, 0.3))
    np.testing.assert_array_equal(g, [1.0, 0.0, 0.0, 0.0])


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
    X = np.array([prob.unscale(z) for z in Z])
    for idx in range(prob.n_objs):
        fn, batch_fn = prob.objectives[idx], prob.batch_objectives[idx]
        assert np.array_equal(batch_fn(X), [float(fn(x)) for x in X])
        cb, batch_cb = prob.gradient_callbacks[idx], prob.batch_gradients[idx]
        assert (cb is None) == (batch_cb is None)
        if cb is not None:
            assert np.array_equal(batch_cb(X), [cb(x) for x in X])


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
        X = prob.feasible.lower + Z * prob.feasible.width()
        for idx in range(prob.n_objs):
            fn, batch_fn = prob.objectives[idx], prob.batch_objectives[idx]
            assert np.array_equal(batch_fn(X), [float(fn(x)) for x in X])
            cb, batch_cb = prob.gradient_callbacks[idx], prob.batch_gradients[idx]
            if cb is not None:
                assert np.array_equal(batch_cb(X), [cb(x) for x in X])


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
    def test_t6_optimum(self):
        prob = make_problem(TestProblemSpec("T6"))
        q = solution_quality(prob, [1e-12, 0.0])
        assert q.dist_to_pareto == pytest.approx(0.0)
        assert q.omega == pytest.approx(0.0, abs=1e-9)
        assert not q.nondifferentiable

    def test_interior_point_not_critical(self):
        prob = make_problem(TestProblemSpec("T6"))
        q = solution_quality(prob, [15.0, 15.0])
        assert q.omega > 0.1

    def test_zdt_has_no_distance_oracle(self):
        prob = make_problem(TestProblemSpec("ZDT1", 3))
        q = solution_quality(prob, np.full(3, 0.5))
        assert q.dist_to_pareto is None
        assert q.omega > 0.0

    def test_nondifferentiable_flag_when_gradient_blows_up(self):
        # synthetic problem whose objective returns NaN off a single point
        from pareto_trm.problem import FeasibleSet, MOProblem

        def bad(x):
            return float("nan") if x[0] > 0.0 else 0.0

        prob = MOProblem(
            1, 1, [bad], np.array([True]), FeasibleSet.box([0.0], [1.0]), name="bad"
        )
        q = solution_quality(prob, [0.0])
        assert q.nondifferentiable
        assert q.omega == 0.0
