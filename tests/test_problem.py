import numpy as np
import pytest

from pareto_trm.errors import (
    BudgetExhausted,
    DimensionMismatch,
    InfeasiblePoint,
    ObjectiveFailure,
)
from pareto_trm.problem import (
    EvaluationDatabase,
    FeasibleSet,
    MOProblem,
    project_to_box,
    scale_to_unit,
    unscale_from_unit,
)
from pareto_trm.testbed import TestProblemSpec, make_problem


def test_scale_midpoint():
    fs = FeasibleSet.box([0.0], [10.0])
    assert scale_to_unit([5.0], fs) == pytest.approx([0.5])


def test_scale_boundary_is_zero():
    fs = FeasibleSet.box([2.0, -1.0], [4.0, 1.0])
    np.testing.assert_allclose(scale_to_unit(fs.lower, fs), np.zeros(2))


def test_scale_t6_box():
    fs = FeasibleSet.box([1e-12, 0.0], [30.0, 30.0])
    z = scale_to_unit([15.0, 30.0], fs)
    assert z[0] == pytest.approx(0.5, abs=1e-12)
    assert z[1] == pytest.approx(1.0, abs=1e-15)


def test_scale_unconstrained_identity():
    fs = FeasibleSet.unconstrained()
    x = np.array([3.0, -7.5])
    np.testing.assert_array_equal(scale_to_unit(x, fs), x)
    np.testing.assert_array_equal(unscale_from_unit(x, fs), x)


def test_scale_roundtrip_random(rng):
    fs = FeasibleSet.box([-3.0, 1e-12, 100.0], [5.0, 30.0, 101.0])
    for _ in range(1000):
        x = fs.lower + rng.random(3) * (fs.upper - fs.lower)
        back = unscale_from_unit(scale_to_unit(x, fs), fs)
        np.testing.assert_allclose(back, x, rtol=1e-12, atol=1e-12)


def test_scale_dimension_mismatch():
    fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        scale_to_unit([0.5], fs)


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
            [lambda x: float(x[0])],
            np.array([True]),
            FeasibleSet.unconstrained(),
            [lambda x: np.ones(1)],
        )


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
        [lambda x: float("nan")],
        np.array([True]),
        FeasibleSet.unconstrained(),
    )
    db = EvaluationDatabase(prob)
    with pytest.raises(ObjectiveFailure):
        db.evaluate([0.0])


def _unit_problem(n=2):
    return MOProblem(
        n,
        1,
        [lambda x: float(np.sum(x))],
        np.array([True]),
        FeasibleSet.unconstrained(),
    )


def test_query_ball_empty():
    db = EvaluationDatabase(_unit_problem())
    assert db.query_ball(np.zeros(2), 0.5) == []


def test_query_ball_one_inside():
    prob = _unit_problem()
    db = EvaluationDatabase(prob)
    db.evaluate([0.0, 0.0])
    db.evaluate([0.3, 0.0])
    hits = db.query_ball(np.zeros(2), 0.2)
    assert len(hits) == 1
    np.testing.assert_array_equal(hits[0][0], [0.0, 0.0])


def test_query_ball_tiebreak_by_insertion():
    prob = _unit_problem()
    db = EvaluationDatabase(prob)
    db.evaluate([0.1, 0.0])
    db.evaluate([-0.1, 0.0])
    db.evaluate([0.0, 0.1])
    hits = db.query_ball(np.zeros(2), 0.5)
    sites = np.array([h[0] for h in hits])
    np.testing.assert_allclose(sites, [[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1]])


def test_csv_roundtrip(tmp_path):
    prob = _t6()
    db = EvaluationDatabase(prob)
    db.evaluate([1.0, 0.0])
    db.evaluate([2.0, 3.0])
    path = tmp_path / "db.csv"
    db.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x_1,x_2,f_1,f_2"
    loaded = EvaluationDatabase.from_csv(path, prob)
    assert len(loaded) == 2
    np.testing.assert_allclose(loaded.sites[1], [2.0, 3.0])
    np.testing.assert_allclose(loaded.values[0], db.values[0])
    # cache hits must work against imported sites
    before = loaded.eval_counts.copy()
    loaded.evaluate([1.0, 0.0])
    np.testing.assert_array_equal(loaded.eval_counts, before)


def test_csv_rejects_short_row(tmp_path):
    path = tmp_path / "db.csv"
    path.write_text("x_1,x_2,f_1,f_2\n1.0,0.0\n")
    with pytest.raises(DimensionMismatch):
        EvaluationDatabase.from_csv(path, _t6())


@pytest.mark.parametrize(
    "second", ["1.0,0.0,1.0,1.0", "1.0,0.0,2.0,1.0"], ids=["identical", "conflicting"]
)
def test_csv_rejects_repeated_site(tmp_path, second):
    path = tmp_path / "db.csv"
    path.write_text(f"x_1,x_2,f_1,f_2\n1.0,0.0,1.0,1.0\n{second}\n")
    with pytest.raises(ObjectiveFailure, match="repeats the site") as info:
        EvaluationDatabase.from_csv(path, _t6())
    assert np.array_equal(info.value.site, [1.0, 0.0])
    message = str(info.value)
    assert repr(second.split(",")) in message
    assert repr("1.0,0.0,1.0,1.0".split(",")) in message


def test_csv_rejects_non_finite_value(tmp_path):
    path = tmp_path / "db.csv"
    path.write_text("x_1,x_2,f_1,f_2\n1.0,0.0,nan,1.0\n")
    with pytest.raises(ObjectiveFailure):
        EvaluationDatabase.from_csv(path, _t6())


@pytest.mark.parametrize(
    "row, error",
    [("1.0,abc,1.0,1.0", InfeasiblePoint), ("1.0,0.0,1.0,abc", ObjectiveFailure)],
    ids=["site", "value"],
)
def test_csv_rejects_non_numeric_field(tmp_path, row, error):
    path = tmp_path / "db.csv"
    path.write_text(f"x_1,x_2,f_1,f_2\n{row}\n")
    with pytest.raises(error, match="non-numeric"):
        EvaluationDatabase.from_csv(path, _t6())
