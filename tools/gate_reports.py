"""One sha256 over the report files of the gate runs the bench cannot express.

    python3 tools/gate_reports.py

Every bench job comes from the testbed, whose feasible sets are boxes, so no
bench run reaches the optimizer's R^n frame. These library runs do:

- ``rn-rbf``: an unconstrained problem (n = 3) with one cheap objective that
  has a gradient evaluator and one expensive objective modelled ``rbf-cubic``,
  under ``strict-pc``, with the per-iteration true criticality on;
- ``rn-cheap-pair``: the all-cheap pair of ``tests/conftest.py:two_quadratics``
  (unconstrained, analytic gradients) under ``modified-pc``.

Each run's ``report.json``, ``iterations.csv`` and ``db.csv`` are written with
the writer of ``pareto-trm run``, and the tool prints the sha256 of those
bytes, run after run in order. ``tests/golden/gate-reports.txt`` holds the
committed digest. Run it from the root of a checkout; it imports the package
from ``src/`` and takes well under a second.
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py: the LAPACK bits must not depend on it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pareto_trm import (  # noqa: E402
    MODEL_SPECS,
    AlgoConfig,
    EvaluationDatabase,
    FeasibleSet,
    MOProblem,
    StepConfig,
    run,
)
from pareto_trm.cli import _write_run_outputs  # noqa: E402

FILES = ("report.json", "iterations.csv", "db.csv")
SEED = 0


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
    return "rn-rbf", prob, cfg, np.array([1.0, -1.0, 0.5])


def _rn_cheap_pair() -> tuple:
    a, b = np.array([0.2, 0.3]), np.array([0.9, 0.7])
    prob = MOProblem(
        2,
        2,
        [lambda X: np.sum((X - a) ** 2, axis=1), lambda X: np.sum((X - b) ** 2, axis=1)],
        np.array([False, False]),
        FeasibleSet.unconstrained(),
        [lambda X: 2.0 * (X - a), lambda X: 2.0 * (X - b)],
        name="two-quadratics",
    )
    cfg = AlgoConfig(models=None, step=StepConfig(method="modified-pc"))
    return "rn-cheap-pair", prob, cfg, np.array([3.0, -2.0])


def gate_jobs() -> list:
    """(label, problem, AlgoConfig, x0) of every gate run, in digest order;
    each runs with seed SEED."""
    return [_rn_rbf(), _rn_cheap_pair()]


def reports_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for _, prob, cfg, x0 in gate_jobs():
            db = EvaluationDatabase(prob)
            _write_run_outputs(out, run(prob, cfg, x0, seed=SEED, db=db), db)
            for name in FILES:
                digest.update((out / name).read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args:
        print("usage: python3 tools/gate_reports.py", file=sys.stderr)
        return 1
    print(reports_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
