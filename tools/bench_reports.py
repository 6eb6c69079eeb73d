"""One sha256 over the report files of every run of one bench pass.

    python3 tools/bench_reports.py WORKLOAD SEED

Runs each job of ``perfbench/workloads.build_jobs(WORKLOAD, SEED)`` once, as
the benchmark does, writes its ``report.json``, ``iterations.csv`` and
``db.csv`` with the writer of ``pareto-trm run``, and prints the sha256 of
those bytes, run after run in job order. A refactor that keeps this digest
changes no byte of any bench report; ``tests/golden/bench-reports.txt`` holds
the committed digests. ``tools/gate_reports.py`` hashes its runs with the
same ``digest``. Run it from the root of a checkout; it imports the package
from ``src/``.
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

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from pareto_trm import run  # noqa: E402
from pareto_trm.cli import _write_run_outputs  # noqa: E402
from pareto_trm.problem import EvaluationDatabase  # noqa: E402
from workloads import build_jobs  # noqa: E402

FILES = ("report.json", "iterations.csv", "db.csv")


def digest(runs) -> str:
    """sha256 over the FILES bytes of every (problem, AlgoConfig, x0, seed)
    run, run after run in order."""
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for prob, cfg, x0, seed in runs:
            db = EvaluationDatabase(prob)
            _write_run_outputs(out, run(prob, cfg, x0, seed=seed, db=db), db)
            for name in FILES:
                sha.update((out / name).read_bytes())
    return sha.hexdigest()


def bench_runs(workload: str, seed: int) -> list:
    """(problem, AlgoConfig, x0, seed) of every job of one bench pass, in job order."""
    return [(prob, cfg, x0, seed) for _, prob, cfg, x0 in build_jobs(workload, seed)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/bench_reports.py WORKLOAD SEED", file=sys.stderr)
        return 1
    print(digest(bench_runs(args[0], int(args[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
