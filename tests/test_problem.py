import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_trm.problem as problem_module
from pareto_trm.errors import (
    BudgetExhausted,
    DimensionMismatch,
    InfeasiblePoint,
    ObjectiveFailure,
    ParetoTRMError,
)
from pareto_trm.linalg import axis_differences, halton
from pareto_trm.problem import (
    CACHE_TOL,
    EvaluationDatabase,
    FeasibleSet,
    MOProblem,
    project_to_box,
    region_box,
)
from pareto_trm.surrogates import TAYLOR_FD_STEP, _stencil_sites
from pareto_trm.testbed import TestProblemSpec, make_problem


def framed(fs, n=None):
    """A problem on fs with one cheap objective and its gradient, for the
    working frame it owns; n is needed on R^n only."""
    return MOProblem(
        fs.lower.size if fs.is_box else n, 1, [lambda X: X @ np.arange(1.0, X.shape[1] + 1)],
        np.array([False]), fs, [lambda X: np.tile(np.arange(1.0, X.shape[1] + 1), (len(X), 1))],
    )


def test_scale_midpoint():
    prob = framed(FeasibleSet.box([0.0], [10.0]))
    assert prob.scale([5.0]) == pytest.approx([0.5])


def test_scale_boundary_is_zero():
    fs = FeasibleSet.box([2.0, -1.0], [4.0, 1.0])
    np.testing.assert_allclose(framed(fs).scale(fs.lower), np.zeros(2))


def test_scale_t6_box():
    z = framed(FeasibleSet.box([1e-12, 0.0], [30.0, 30.0])).scale([15.0, 30.0])
    assert z[0] == pytest.approx(0.5, abs=1e-12)
    assert z[1] == pytest.approx(1.0, abs=1e-15)


def test_scale_unconstrained_identity():
    prob = framed(FeasibleSet.unconstrained(), 2)
    x = np.array([3.0, -7.5])
    np.testing.assert_array_equal(prob.scale(x), x)
    np.testing.assert_array_equal(prob.unscale(x), x)
    assert not np.shares_memory(prob.scale(x), x) and not np.shares_memory(prob.unscale(x), x)


def test_frame_of_a_box_is_the_unit_cube_and_its_width():
    fs = FeasibleSet.box([2.0, -1.0, 1e-12], [4.0, 1.0, 30.0])
    prob = framed(fs)
    np.testing.assert_array_equal(prob.unit.lower, np.zeros(3))
    np.testing.assert_array_equal(prob.unit.upper, np.ones(3))
    assert prob.width.tobytes() == (fs.upper - fs.lower).tobytes()
    G = prob.unit_gradients(0, np.zeros((2, 3)))
    assert G.tobytes() == (np.tile([1.0, 2.0, 3.0], (2, 1)) * (fs.upper - fs.lower)).tobytes()


def test_frame_of_rn_is_rn_itself():
    fs = FeasibleSet.unconstrained()
    prob = framed(fs, 3)
    assert prob.unit is fs and prob.width is None
    G = prob.unit_gradients(0, np.zeros((2, 3)))
    np.testing.assert_array_equal(G, np.tile([1.0, 2.0, 3.0], (2, 1)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(1e-9, 1e6), st.floats(0.0, 1.0)),
             min_size=1, max_size=6),
)
def test_scale_and_unscale_give_the_bits_of_the_box_formulas(rows):
    # the problem's width is the subtraction upper - lower, done once
    lower, span, frac = (np.array(c) for c in zip(*rows))
    upper = lower + span
    fs = FeasibleSet.box(lower, upper)
    prob, x = framed(fs), lower + frac * (upper - lower)
    batch = np.vstack([x, lower, upper])
    assert prob.scale(batch).tobytes() == ((batch - lower) / (upper - lower)).tobytes()
    assert prob.unscale(batch).tobytes() == (lower + batch * (upper - lower)).tobytes()


def test_unconstrained_bounds_are_infinite():
    # bounds passed for R^n are not kept
    for fs in (FeasibleSet.unconstrained(), FeasibleSet("unconstrained", [0.0], [1.0])):
        assert not fs.is_box
        assert (fs.lower, fs.upper) == (-np.inf, np.inf)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
        min_size=1, max_size=6,
    ),
    st.floats(1e-12, 1e3),
)
def test_rn_bounds_give_the_bits_of_the_old_rn_branches(x, radius):
    # on R^n the box formulas, read with the infinite bounds, give the bits the
    # separate R^n branches gave: the plain ball and a plain copy
    fs = FeasibleSet.unconstrained()
    x = np.array(x)
    lo, hi = region_box(x, radius, fs)
    assert lo.tobytes() == np.maximum(x - radius, fs.lower).tobytes() == (x - radius).tobytes()
    assert hi.tobytes() == np.minimum(x + radius, fs.upper).tobytes() == (x + radius).tobytes()
    clamped = project_to_box(x, fs)
    assert clamped.tobytes() == np.clip(x, fs.lower, fs.upper).tobytes() == x.tobytes()
    assert not np.shares_memory(clamped, x)


def test_scale_roundtrip_random(rng):
    fs = FeasibleSet.box([-3.0, 1e-12, 100.0], [5.0, 30.0, 101.0])
    prob = framed(fs)
    for _ in range(1000):
        x = fs.lower + rng.random(3) * (fs.upper - fs.lower)
        back = prob.unscale(prob.scale(x))
        np.testing.assert_allclose(back, x, rtol=1e-12, atol=1e-12)


def test_scale_dimension_mismatch():
    prob = framed(FeasibleSet.box([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        prob.scale([0.5])


def test_project_clamps_one_coordinate():
    fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(project_to_box([-1.0, 0.5], fs), [0.0, 0.5])


def test_project_idempotent_on_feasible():
    fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
    x = np.array([0.25, 1.0])
    np.testing.assert_array_equal(project_to_box(x, fs), x)
    np.testing.assert_allclose(project_to_box([2.0, -3.0], fs), [1.0, 0.0])


def test_box_requires_positive_width():
    with pytest.raises(ValueError):
        FeasibleSet.box([0.0, 1.0], [1.0, 1.0])


def test_gradient_callback_only_on_cheap():
    with pytest.raises(ValueError):
        MOProblem(
            1,
            1,
            [lambda X: X[:, 0]],
            np.array([True]),
            FeasibleSet.unconstrained(),
            [lambda X: np.ones(X.shape)],
        )


def _two_objective_problem(expensive, objectives=None, gradients=None):
    fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
    objectives = objectives or [lambda X: X[:, 0], lambda X: X[:, 1]]
    return MOProblem(2, 2, objectives, np.array(expensive), fs, gradients)


@pytest.mark.parametrize("field", ["objectives", "gradients"])
def test_evaluator_list_needs_one_slot_per_objective(field):
    with pytest.raises(DimensionMismatch):
        _two_objective_problem([False, False], **{field: [lambda X: X[:, 0]]})


def test_batch_gradient_only_on_cheap():
    with pytest.raises(ValueError, match="only allowed on cheap objectives"):
        _two_objective_problem([True, False], gradients=[lambda X: np.ones(X.shape), None])
    # no gradients: one empty slot per objective
    assert _two_objective_problem([True, False]).gradients == [None, None]


def _t6():
    return make_problem(TestProblemSpec("T6"))


def test_evaluate_t6_value():
    prob = _t6()
    db = EvaluationDatabase(prob)
    np.testing.assert_allclose(db.evaluate([1.0, 0.0]), [1.0, 1.0])


def test_evaluate_cache_hit_keeps_counts():
    prob = _t6()
    db = EvaluationDatabase(prob)
    first = db.evaluate([1.0, 0.0])
    counts = db.eval_counts.copy()
    second = db.evaluate([1.0, 0.0])
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(db.eval_counts, counts)
    assert len(db) == 1


def test_evaluate_rejects_slightly_infeasible():
    prob = _t6()
    db = EvaluationDatabase(prob)
    with pytest.raises(InfeasiblePoint):
        db.evaluate([-1e-9, 0.0])


def test_evaluate_counts_expensive_only():
    prob = _t6()  # f1 expensive, f2 cheap
    db = EvaluationDatabase(prob)
    db.evaluate([1.0, 0.0])
    db.evaluate([2.0, 1.0])
    np.testing.assert_array_equal(db.eval_counts, [2, 0])


def test_budget_exhausted():
    prob = _t6()
    db = EvaluationDatabase(prob, max_expensive=1)
    db.evaluate([1.0, 0.0])
    with pytest.raises(BudgetExhausted):
        db.evaluate([2.0, 0.0])
    assert len(db) == 1


def test_objective_failure_carries_site():
    prob = MOProblem(
        1,
        1,
        [lambda X: np.full(len(X), np.nan)],
        np.array([True]),
        FeasibleSet.unconstrained(),
    )
    db = EvaluationDatabase(prob)
    with pytest.raises(ObjectiveFailure) as info:
        db.evaluate([0.0])
    assert np.array_equal(info.value.site, [0.0])


def _unit_problem(n=2):
    return MOProblem(
        n,
        1,
        [lambda X: np.sum(X, axis=1)],
        np.array([True]),
        FeasibleSet.unconstrained(),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_evaluate_rejects_non_finite_site(bad):
    # R^n holds no NaN: without the check each repeat would store and charge a new row
    db = EvaluationDatabase(_unit_problem())
    for _ in range(2):
        with pytest.raises(InfeasiblePoint, match="not finite"):
            db.evaluate([bad, 0.0])
    assert len(db) == 0
    np.testing.assert_array_equal(db.eval_counts, [0])


def _assert_index(db):
    """The key list holds one key of each stored row, ascending, NaN stored as
    +inf: the finite keys lie between -inf and the +inf keys."""
    keys, rows = np.array(db._keys), np.array(db._rows, dtype=np.intp)
    assert db._size == len(db) and keys.shape == rows.shape
    assert sorted(db._rows) == list(range(len(db)))
    assert not np.isnan(keys).any() and db._keys == sorted(db._keys)
    Z = db._scaled
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(Z) @ db._weights
        wide = ~np.isfinite(2.0 * size)  # rows whose lookup window overflows
        # key bits may differ from the one-row dot product, within its rounding;
        # whether a key near the overflow threshold overflows may differ too
        gamma = (db.problem.n_vars + 2) * np.finfo(float).eps
        close = np.abs(keys - Z[rows] @ db._weights) <= 2 * gamma * size[rows]
        assert (close | wide[rows]).all()


def _scan_oracle(Z, z):
    """First row of Z within CACHE_TOL of z in the inf-norm: the linear scan."""
    hits = np.flatnonzero(np.max(np.abs(Z - z), axis=1) <= CACHE_TOL)
    return int(hits[0]) if hits.size else None


@st.composite
def _cache_cases(draw):
    """Stored rows (scaled) and lookups that sit on, near and just off them."""
    n = draw(st.integers(1, 12))
    box = draw(st.booleans())
    if box:
        coord = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    else:
        span = draw(st.sampled_from([1.0, 1e3, 1e6]))
        coord = st.floats(-span, span)
    point = st.lists(coord, min_size=n, max_size=n).map(np.array)
    rows = draw(st.lists(point, min_size=1, max_size=8))
    # an FD stencil: rows that share all coordinates but one
    h = draw(st.sampled_from([1e-7, 1e-12, 0.5 * CACHE_TOL, 3 * CACHE_TOL]))
    center = rows[0]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2 * n)):
        e = np.zeros(n)
        e[i] = h
        rows += [center + e, center - e]
    # a cluster: several rows within tolerance of one query, the smallest index wins
    query = draw(point)
    for frac in draw(st.lists(st.sampled_from([-0.9, -0.5, 0.0, 0.5, 0.9]), max_size=4)):
        rows.insert(draw(st.integers(0, len(rows))), query + frac * CACHE_TOL)
    queries = [query]
    for row in rows:
        queries.append(row)  # exact repeat
        for delta in (0.5 * CACHE_TOL, -0.5 * CACHE_TOL, 2 * CACHE_TOL, -2 * CACHE_TOL):
            i = draw(st.integers(0, n - 1))
            moved = row.copy()
            moved[i] += delta
            queries += [moved, row + delta]
    return n, box, rows, queries


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cache_cases())
def test_indexed_find_matches_linear_scan(case):
    n, box, rows, queries = case
    fs = FeasibleSet.box(np.zeros(n), np.ones(n)) if box else FeasibleSet.unconstrained()
    prob = MOProblem(n, 1, [lambda X: np.zeros(len(X))], np.array([True]), fs)
    db = EvaluationDatabase(prob)
    Z = np.array(rows)
    half = len(Z) // 2
    for part in (Z[:half], Z[half:]):  # stored as given, repeats included: the index must rank them
        db._append(part, part, np.zeros((len(part), 1)))
    _assert_index(db)
    src, _ = db._settle(np.array(queries))
    assert [row if row < len(Z) else None for row in src.tolist()] == [
        _scan_oracle(Z, z) for z in queries
    ]


def test_indexed_find_near_overflow():
    # keys of sites this large overflow; such rows must still be found
    prob = MOProblem(
        2, 1, [lambda X: np.zeros(len(X))], np.array([True]), FeasibleSet.unconstrained()
    )
    db = EvaluationDatabase(prob)
    X = np.array([[1e308, 1e308], [-1e308, 1e308], [1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        for x in X:
            db.evaluate(x)
        src, fresh = db._settle(X)
        assert src.tolist() == [0, 1, 2] and fresh.size == 0
        # and within one batch, where each repeat reads the row stored before it
        batch = EvaluationDatabase(prob)
        batch.evaluate(np.vstack([X, X[::-1]]))
        src, fresh = batch._settle(X)
        assert src.tolist() == [0, 1, 2] and fresh.size == 0
    assert len(db) == len(batch) == 3
    for stored in (db, batch):  # the first row's key overflows, and it is kept
        _assert_index(stored)
        assert stored._keys[stored._rows.index(0)] == np.inf


def test_nan_keys_are_stored_as_inf():
    # a key can overflow as inf - inf; stored as NaN it would break the sorted order
    keys, rows = [-1.0, 2.0], [0, 1]
    problem_module._insert(keys, rows, np.nan, 2)
    problem_module._insert(keys, rows, 3.0, 3)
    assert keys == [-1.0, 2.0, 3.0, np.inf] and rows == [0, 1, 3, 2]
    prob = MOProblem(
        4, 1, [lambda X: np.zeros(len(X))], np.array([True]), FeasibleSet.unconstrained()
    )
    db = EvaluationDatabase(prob)
    X = np.array([[1.7e308, -1.7e308] * 2, [-1.7e308, 1.7e308] * 2, [1.0, 2.0, 3.0, 4.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        db.evaluate(X)
        assert db._settle(X)[0].tolist() == [0, 1, 2]
    _assert_index(db)


def test_settle_stores_nothing():
    # evaluate settles a batch, then stores only the prefix that passed the budget
    prob = MOProblem(
        2, 1, [lambda X: np.zeros(len(X))], np.array([True]), FeasibleSet.unconstrained()
    )
    db = EvaluationDatabase(prob)
    a, big = np.array([0.3, 0.6]), np.array([1e308, 1e308])
    db.evaluate(np.array([a, [1.0, 2.0]]))
    # a stored hit, a new row and its repeat, an overflowing row and a fresh row
    Z = np.array([a, [4.0, 5.0], [4.0, 5.0], big, [7.0, 8.0]])
    state = [list(db._keys), list(db._rows), db._size]
    buffers = [db._sites.tobytes(), db._buffer.tobytes(), db._values.tobytes()]
    with np.errstate(over="ignore", invalid="ignore"):
        settled = [db._settle(Z) for _ in range(2)]
    for src, fresh in settled:
        assert src.tolist() == [0, 2, 2, 3, 4] and fresh.tolist() == [1, 3, 4]
    assert [db._keys, db._rows, db._size] == state
    assert [db._sites.tobytes(), db._buffer.tobytes(), db._values.tobytes()] == buffers


def test_buffer_keeps_rows_across_growth():
    n = 3
    prob = MOProblem(
        n, 1, [lambda X: np.sum(X, axis=1)], np.array([True]),
        FeasibleSet.box(np.zeros(n), np.full(n, 2.0)),
    )
    db = EvaluationDatabase(prob)
    sites = 0.05 + 1.9 * halton(200, n, offset=3)
    for k, x in enumerate(sites):
        db.evaluate(x)
        np.testing.assert_array_equal(db._scaled, sites[: k + 1] / 2.0)
    assert len(db) == 200
    for k, x in enumerate(sites):  # every row is still a cache hit at its own index
        assert db._settle(x[None] / 2.0)[0].tolist() == [k]
        db.evaluate(x)
    np.testing.assert_array_equal(db.eval_counts, [200])


def _assert_windows_single(Z, monkeypatch):
    """Each row of the stencil Z has no candidate in a batch read of Z, and
    only its own row in a database that holds every row: no row is compared
    with another."""
    n = Z.shape[1]
    prob = MOProblem(
        n, 1, [lambda X: np.zeros(len(X))], np.array([True]), FeasibleSet.unconstrained()
    )
    db = EvaluationDatabase(prob)
    first_match = problem_module._first_match
    seen = []  # per comparison: the candidate sites and the site of the row

    def recording(cands, rows, z):
        seen.append((cands[list(rows)], z))
        return first_match(cands, rows, z)

    monkeypatch.setattr(problem_module, "_first_match", recording)
    src, fresh = db._settle(Z)  # within one batch
    assert src.tolist() == fresh.tolist() == list(range(len(Z)))
    assert all(len(cands) == 0 for cands, _ in seen)
    seen.clear()
    db._append(Z, Z, np.zeros((len(Z), 1)))
    src, fresh = db._settle(Z)  # against the stored rows
    assert src.tolist() == list(range(len(Z))) and fresh.size == 0
    assert all(np.array_equal(cands, z[None]) for cands, z in seen)


@pytest.mark.parametrize("n, scale", [(5, 0.1), (5, 1e-3), (10, 0.1), (15, 0.1), (15, 1e-3)])
def test_quadratic_stencil_rows_keep_their_windows_to_themselves(n, scale, monkeypatch):
    # weights with integer relations, such as w_1 + w_4 = w_2 + w_3, put the
    # rows c + h(e_1 + e_4) and c + h(e_2 + e_3) in one lookup window
    center = 0.2 + 0.6 * halton(1, n, offset=5)[0]
    _assert_windows_single(np.array(_stencil_sites(center, scale, 0.0, 1.0)), monkeypatch)


@pytest.mark.parametrize("radius", [0.1, 1e-4])
def test_fd_stencil_rows_keep_their_windows_to_themselves(radius, monkeypatch):
    center = 0.2 + 0.6 * halton(1, 40, offset=5)[0]
    rows = [center[None]]  # the center and the rows axis_differences reads, in order

    def read(P):
        rows.append(P)
        return np.zeros(len(P))

    axis_differences(read, center[None], TAYLOR_FD_STEP * radius, 0.0, 1.0)
    _assert_windows_single(np.vstack(rows), monkeypatch)


NAN_MARK = 0.75  # a feasible first coordinate at which the second objective is NaN


def _counting_problem(n, expensive, box=True):
    """Two bounded row-independent objectives on the unit box (or R^n) that
    count their calls; the second is NaN on rows whose first coordinate is
    NAN_MARK."""
    calls = [0, 0]

    def f1(X):
        calls[0] += 1
        return np.sum(np.arctan(X), axis=1)

    def f2(X):
        calls[1] += 1
        return np.where(X[:, 0] == NAN_MARK, np.nan, np.arctan(X[:, -1]) - 0.5 * np.arctan(X[:, 0]))

    fs = FeasibleSet.box(np.zeros(n), np.ones(n)) if box else FeasibleSet.unconstrained()
    return MOProblem(n, 2, [f1, f2], np.array(expensive), fs), calls


@st.composite
def _batch_reads(draw):
    """A database state and a batch: stored hits, repeats and near-repeats of
    stored and batch rows (some share a lookup window without matching, some
    windows hold several matches), infeasible and non-finite rows, NaN values,
    rows on R^n whose keys overflow, and a budget."""
    n = draw(st.integers(1, 4))
    box = draw(st.booleans())
    expensive = draw(st.sampled_from([[True, True], [True, False], [False, False]]))
    coord = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    if not box:
        coord = coord | st.sampled_from([1e308, -1e308, 1.7e308, -8e307])
    point = st.lists(coord, min_size=n, max_size=n).map(np.array)

    def near(row):
        row = row.copy()
        i = draw(st.integers(0, n - 1))
        row[i] += draw(st.sampled_from([-0.9, -0.5, 0.5, 0.9, 1.5, 2.0, 3.0])) * CACHE_TOL
        return np.clip(row, 0, 1) if box else row

    stored = draw(st.lists(point, max_size=4))
    if stored:  # near-repeats of a stored site, stored apart when they do not match it
        stored += [near(draw(st.sampled_from(stored))) for _ in range(draw(st.integers(0, 3)))]
    stored = [x for x in stored if x[0] != NAN_MARK]
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["new", "new", "stored", "stored-near", "repeat", "near",
                                     "out", "nan-site", "nan-value"]))
        if kind in ("stored", "stored-near") and stored:
            row = draw(st.sampled_from(stored)).copy()
            if kind == "stored-near":
                row = near(row)
        elif kind in ("repeat", "near") and rows:
            row = draw(st.sampled_from(rows)).copy()
            if kind == "near":
                row = near(row)
        elif kind == "out":
            row = draw(point)
            row[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1e-9, 1.5]))
        elif kind == "nan-site":
            row = draw(point)
            row[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf]))
        elif kind == "nan-value":
            row = draw(point)
            row[0] = NAN_MARK
        else:
            row = draw(point)
        rows.append(row)
    budget = draw(st.one_of(st.none(), st.integers(0, len(stored) + len(rows))))
    return n, box, expensive, stored, np.array(rows), budget


def _database(n, box, expensive, stored, budget):
    prob, calls = _counting_problem(n, expensive, box)
    db = EvaluationDatabase(prob)
    for x in stored:
        db.evaluate(x)
    db.max_expensive = budget
    calls[:] = [0, 0]
    return db, calls


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_batch_reads())
def test_batch_read_matches_one_site_loop(case):
    n, box, expensive, stored, X, budget = case
    with np.errstate(over="ignore", invalid="ignore"):
        loop_db, _ = _database(n, box, expensive, stored, budget)
        loop_out, loop_error = [], None
        for x in X:  # the oracle: one read per row, stopping at the first error
            try:
                loop_out.append(loop_db.evaluate(x))
            except ParetoTRMError as exc:
                loop_error = exc
                break
        db, calls = _database(n, box, expensive, stored, budget)
        if loop_error is None:
            out = db.evaluate(X)
            assert out.shape == (len(X), 2)
            assert np.array_equal(out, np.array(loop_out))
        else:
            with pytest.raises(type(loop_error)) as info:
                db.evaluate(X)
            assert str(info.value) == str(loop_error)
    assert len(db) == len(loop_db)
    assert np.array_equal(np.array(db.sites).reshape(-1, n), np.array(loop_db.sites).reshape(-1, n))
    assert np.array_equal(np.array(db.values).reshape(-1, 2), np.array(loop_db.values).reshape(-1, 2))
    assert np.array_equal(db.eval_counts, loop_db.eval_counts)
    # no row past a failure is indexed; one call per objective
    _assert_index(db)
    assert calls in ([0, 0], [1, 1])


def test_batch_read_of_stored_sites_evaluates_nothing():
    db, calls = _database(2, True, [True, False], [], None)
    X = halton(5, 2, offset=3)
    first = db.evaluate(X)
    assert calls == [1, 1] and len(db) == 5
    np.testing.assert_array_equal(db.evaluate(X[::-1]), first[::-1])
    np.testing.assert_array_equal(db.evaluate_scaled(X[2]), first[2])
    assert calls == [1, 1]
    np.testing.assert_array_equal(db.eval_counts, [5, 0])


def test_a_site_matching_two_rows_reads_the_first():
    # b sits 1.5 tolerances from a, so both are stored; c matches both
    a = np.array([0.3, 0.6])
    b, c = a + [1.5 * CACHE_TOL, 0.0], a + [0.9 * CACHE_TOL, 0.0]
    db, _ = _database(2, True, [True, False], [], None)
    out = db.evaluate(np.array([a, b, c]))  # the first fresh row of the batch
    assert len(db) == 2 and not np.array_equal(out[0], out[1])
    np.testing.assert_array_equal(out[2], out[0])
    db, _ = _database(2, True, [True, False], [b, a], None)  # the smallest stored row
    np.testing.assert_array_equal(db.evaluate(c), db.values[0])


def test_budget_charges_no_repeat_within_a_batch():
    db, calls = _database(2, True, [True, False], [], 2)
    a, b, c = halton(3, 2, offset=3)
    with pytest.raises(BudgetExhausted):
        db.evaluate(np.array([a, a, b, a, b, c]))
    # a and b fit the budget of 2 however often they repeat; c is the third site
    np.testing.assert_array_equal(db.sites, [a, b])
    assert db.eval_counts.tolist() == [2, 0] and calls == [1, 1]
    _assert_index(db)


def test_objective_that_raises_stores_no_row_of_its_batch():
    prob = MOProblem(
        1, 1, [lambda X: 1.0 / 0.0], np.array([True]), FeasibleSet.unconstrained()
    )
    db = EvaluationDatabase(prob)
    with pytest.raises(ZeroDivisionError):
        db.evaluate(np.array([[0.0], [1.0]]))
    assert len(db) == 0 and len(db._keys) == 0
    _assert_index(db)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (1, 2, 2)])
def test_evaluate_rejects_wrong_shapes(shape):
    db = EvaluationDatabase(_unit_problem())
    with pytest.raises(DimensionMismatch):
        db.evaluate(np.zeros(shape))


def test_evaluate_raw_takes_a_site_or_a_batch():
    prob = _t6()
    X = np.array([[1.0, 0.0], [2.0, 3.0]])
    F = prob.evaluate_raw(X)
    assert F.shape == (2, 2)
    np.testing.assert_array_equal(prob.evaluate_raw(X[1]), F[1])


def test_query_ball_empty():
    db = EvaluationDatabase(_unit_problem())
    assert db.query_ball(np.zeros(2), 0.5).shape == (0, 2)


def test_query_ball_one_inside():
    prob = _unit_problem()
    db = EvaluationDatabase(prob)
    db.evaluate([0.0, 0.0])
    db.evaluate([0.3, 0.0])
    np.testing.assert_array_equal(db.query_ball(np.zeros(2), 0.2), [[0.0, 0.0]])


def test_query_ball_tiebreak_by_insertion():
    prob = _unit_problem()
    db = EvaluationDatabase(prob)
    db.evaluate([0.1, 0.0])
    db.evaluate([-0.1, 0.0])
    db.evaluate([0.0, 0.1])
    np.testing.assert_allclose(
        db.query_ball(np.zeros(2), 0.5), [[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1]]
    )


def test_query_ball_sorts_by_distance_and_copies():
    prob = _unit_problem()
    db = EvaluationDatabase(prob)
    db.evaluate(np.array([[0.3, 0.0], [0.0, -0.1], [0.2, 0.2], [0.9, 0.0]]))
    hits = db.query_ball(np.zeros(2), 0.5)
    np.testing.assert_array_equal(hits, [[0.0, -0.1], [0.2, 0.2], [0.3, 0.0]])
    hits[:] = 7.0
    np.testing.assert_array_equal(db.query_ball(np.zeros(2), 0.15), [[0.0, -0.1]])


def test_csv_roundtrip(tmp_path):
    prob = _t6()
    db = EvaluationDatabase(prob)
    db.evaluate(1.0 + 28.0 * halton(3, 2, offset=3))  # sites of 17 significant digits
    path = tmp_path / "db.csv"
    db.to_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["x_1", "x_2", "f_1", "f_2"]
    table = np.array([[float(v) for v in row] for row in rows])
    assert table.shape == (3, 4)
    assert table[:, :2].tobytes() == db.sites.tobytes()
    assert table[:, 2:].tobytes() == db.values.tobytes()
