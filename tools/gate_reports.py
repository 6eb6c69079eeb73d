"""One sha256 over the report files of the gate runs the bench cannot express.

    python3 tools/gate_reports.py

Every bench job comes from the testbed, whose feasible sets are boxes, so no
bench run reaches the optimizer's R^n frame, and no bench run reaches a zero
step, the ``radius-min`` stop or the Pascoletti-Serafini fallback. These
library runs do:

- ``rn-rbf``: an unconstrained problem (n = 3) with one cheap objective that
  has a gradient evaluator and one expensive objective modelled ``rbf-cubic``,
  under ``strict-pc``, with the per-iteration true criticality on;
- ``rn-cheap-pair``: the all-cheap pair of ``tests/conftest.py:two_quadratics``
  (unconstrained, analytic gradients) under ``modified-pc``;
- ``rn-critical-pair``: the same pair with ``eps_crit = 0``, started on its
  Pareto segment, so every step is the zero step at a model-critical center
  until the radius falls to ``delta_min`` (``radius-min``, 18 iterations);
- ``dtlz6-face``: DTLZ6 (n = 6, ``rbf-gaussian-adaptive``, ``strict-pc``)
  from a start whose iterate reaches the x_i = 0 face, where backtracking runs
  out at t = 5 and t = 6;
- ``dtlz1-ps-fallback``: DTLZ1 (n = 6, ``rbf-cubic``, Pascoletti-Serafini),
  where one trial misses the sufficient-decrease bound and falls back to the
  strict Pareto-Cauchy step;
- ``rn-ps-shared-minimizer``: an all-cheap R^n pair, |x - a|^2 and
  2 |x - a|^2 + 1, under Pascoletti-Serafini with ``eps_crit = 0``, started
  1e-7 from the shared minimizer a: omega is about 4e-7, yet both local ideal
  points lie within 1e-12 of the center values, so every iteration takes
  Pascoletti-Serafini's own zero step.

Each run's ``report.json``, ``iterations.csv`` and ``db.csv`` are written with
the writer of ``pareto-trm run`` and hashed by ``tools/bench_reports.py``'s
``digest``, run after run in order. ``tests/golden/gate-reports.txt`` holds
the committed digest. Run it from the root of a checkout; it imports the
package from ``src/`` and takes about 1 s on a 2-core VM.
"""

from __future__ import annotations

import sys

# first: it sets one BLAS thread before numpy loads, and puts src/ on the path
from bench_reports import digest

import numpy as np

from pareto_trm import (
    MODEL_SPECS,
    AlgoConfig,
    FeasibleSet,
    MOProblem,
    StepConfig,
    TestProblemSpec,
    make_problem,
)
from pareto_trm.cli import _start_points

SEED = 0
FIRST_CHEAP = "first-cheap-rest-expensive"


def _rn_rbf() -> tuple:
    a, b = np.array([0.5, -0.25, 1.0]), np.array([-0.5, 0.75, 0.0])
    prob = MOProblem(
        3,
        2,
        [
            lambda X: np.sum((X - a) ** 2, axis=1),
            lambda X: np.sum((X - b) ** 2, axis=1) + 0.1 * np.sum(np.sin(3.0 * X), axis=1),
        ],
        np.array([False, True]),
        FeasibleSet.unconstrained(),
        [lambda X: 2.0 * (X - a), None],
        name="rn-rbf",
    )
    cfg = AlgoConfig(
        models=MODEL_SPECS["rbf-cubic"],
        step=StepConfig(method="strict-pc"),
        max_expensive=40,
        compute_true_omega=True,
    )
    return prob, cfg, np.array([1.0, -1.0, 0.5]), SEED


def _cheap_pair() -> MOProblem:
    a, b = np.array([0.2, 0.3]), np.array([0.9, 0.7])
    return MOProblem(
        2,
        2,
        [lambda X: np.sum((X - a) ** 2, axis=1), lambda X: np.sum((X - b) ** 2, axis=1)],
        np.array([False, False]),
        FeasibleSet.unconstrained(),
        [lambda X: 2.0 * (X - a), lambda X: 2.0 * (X - b)],
        name="two-quadratics",
    )


def _rn_cheap_pair() -> tuple:
    cfg = AlgoConfig(models=None, step=StepConfig(method="modified-pc"))
    return _cheap_pair(), cfg, np.array([3.0, -2.0]), SEED


def _rn_critical_pair() -> tuple:
    cfg = AlgoConfig(
        models=None, step=StepConfig(method="modified-pc"), eps_crit=0.0, delta_crit=1e-7
    )
    return _cheap_pair(), cfg, np.array([0.55, 0.5]), SEED


def _dtlz6_face() -> tuple:
    prob = make_problem(TestProblemSpec("DTLZ6", 6, FIRST_CHEAP))
    cfg = AlgoConfig(
        models=MODEL_SPECS["rbf-gaussian-adaptive"],
        step=StepConfig(method="strict-pc"),
        max_iters=8,
    )
    return prob, cfg, _start_points(prob, 2, 3)[1], SEED


def _dtlz1_ps_fallback() -> tuple:
    prob = make_problem(TestProblemSpec("DTLZ1", 6, FIRST_CHEAP))
    cfg = AlgoConfig(
        models=MODEL_SPECS["rbf-cubic"],
        step=StepConfig(method="pascoletti-serafini"),
        max_iters=6,
    )
    return prob, cfg, _start_points(prob, 6, 0)[5], SEED


def _rn_ps_shared_minimizer() -> tuple:
    a = np.array([0.2, 0.3])
    prob = MOProblem(
        2,
        2,
        [
            lambda X: np.sum((X - a) ** 2, axis=1),
            lambda X: 2.0 * np.sum((X - a) ** 2, axis=1) + 1.0,
        ],
        np.array([False, False]),
        FeasibleSet.unconstrained(),
        [lambda X: 2.0 * (X - a), lambda X: 4.0 * (X - a)],
        name="shared-minimizer",
    )
    cfg = AlgoConfig(
        models=None, step=StepConfig(method="pascoletti-serafini"), eps_crit=0.0, max_iters=5
    )
    return prob, cfg, a + 1e-7, SEED


def gate_runs() -> list:
    """(problem, AlgoConfig, x0, seed) of every gate run, in digest order."""
    return [
        _rn_rbf(),
        _rn_cheap_pair(),
        _rn_critical_pair(),
        _dtlz6_face(),
        _dtlz1_ps_fallback(),
        _rn_ps_shared_minimizer(),
    ]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args:
        print("usage: python3 tools/gate_reports.py", file=sys.stderr)
        return 1
    print(digest(gate_runs()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
