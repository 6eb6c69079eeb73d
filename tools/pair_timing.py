"""Paired wall-time comparison of two checkouts on one bench workload.

    python3 tools/pair_timing.py PARENT CHANGE --workload W --seed S --passes N

PARENT and CHANGE are checkout roots. Both ``src/pareto_trm`` packages are
loaded into this one process under distinct names, and the jobs of
``perfbench/workloads.build_jobs(W, S)`` (CHANGE's copy) are built once for
each. One untimed warm-up pass runs every job on both trees. Each of the N
timed passes then runs every job on both trees back to back, in an order
that alternates from job to job and from pass to pass, and sums each tree's
job times into its pass time. So both trees see the same machine load, job
by job, which a comparison of two separate bench runs cannot promise.

Every run must have the same outcome on both trees (stop reason, expensive
evaluations, iterations, final x and f); the tool exits 1 otherwise. It
prints each pass's two times and their ratio change / parent, then the
median ratio, its quartiles and the number of passes the change won, then
the measuring rule's verdict: the parent's and the change's median pass
times and the distance between the parent's quartiles. A speed-up claim
holds only with at least CLAIM_PASSES passes, at least 9 of every 10 of
them won by the change, and a gap between the two medians larger than that
quartile distance. With fewer passes the tool says so and claims nothing.
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

PACKAGE = "pareto_trm"
CLAIM_PASSES = 10  # the fewest passes a speed-up claim rests on


def load_tree(root: Path, name: str):
    """Import root/src/pareto_trm as the package `name` (its modules import
    each other relatively, so they resolve inside `name`)."""
    pkg_dir = root / "src" / PACKAGE
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location(
        "pair_timing_workloads", root / "perfbench" / "workloads.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def build_jobs(workloads, pkg, workload: str, seed: int) -> list:
    """build_jobs with `pareto_trm` (and its modules) standing for `pkg`."""
    prefix = pkg.__name__ + "."
    alias = {PACKAGE: pkg}
    alias.update(
        (PACKAGE + "." + key[len(prefix):], mod)
        for key, mod in sys.modules.items()
        if key.startswith(prefix)
    )
    saved = {key: sys.modules.get(key) for key in alias}
    sys.modules.update(alias)
    try:
        return workloads.build_jobs(workload, seed)
    finally:
        for key, mod in saved.items():
            if mod is None:
                del sys.modules[key]
            else:
                sys.modules[key] = mod


def timed_run(pkg, job, seed: int):
    """(seconds, outcome) of one job."""
    label, prob, cfg, x0 = job
    t0 = time.perf_counter()
    rep = pkg.run(prob, cfg, x0, seed=seed)
    wall = time.perf_counter() - t0
    outcome = (
        label, rep.stop_reason, rep.expensive_evals, len(rep.iterations),
        repr(rep.final_x), repr(rep.final_f),
    )
    return wall, outcome


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent_walls: list, change_walls: list) -> str:
    """The measuring rule applied to the timed passes of both trees."""
    passes = len(parent_walls)
    won = sum(c < p for p, c in zip(parent_walls, change_walls))
    med_parent, med_change = statistics.median(parent_walls), statistics.median(change_walls)
    q1, _, q3 = quartiles(parent_walls) if passes > 1 else (med_parent,) * 3
    line = (
        f"median pass: parent {med_parent:.3f} s change {med_change:.3f} s, "
        f"parent quartile distance {q3 - q1:.3f} s: "
    )
    if passes < CLAIM_PASSES:
        return line + f"no claim: {passes} passes, a claim needs {CLAIM_PASSES}"
    if 10 * won >= 9 * passes and med_parent - med_change > q3 - q1:
        return line + "claim holds"
    return line + "claim does not hold"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=10)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")

    trees = [load_tree(args.parent.resolve(), "pair_parent"), load_tree(args.change.resolve(), "pair_change")]
    workloads = load_workloads(args.change.resolve())
    jobs = [build_jobs(workloads, pkg, args.workload, args.seed) for pkg in trees]
    n_jobs = len(jobs[0])

    ratios, pass_walls = [], []
    for p in range(args.passes + 1):  # pass 0 warms up and is not reported
        walls = [0.0, 0.0]
        for j in range(n_jobs):
            order = (0, 1) if (p + j) % 2 == 0 else (1, 0)
            outcomes = [None, None]
            for t in order:
                wall, outcomes[t] = timed_run(trees[t], jobs[t][j], args.seed)
                walls[t] += wall
            if outcomes[0] != outcomes[1]:
                print(f"outcomes differ: parent {outcomes[0]} change {outcomes[1]}", file=sys.stderr)
                return 1
        if p == 0:
            continue
        pass_walls.append(walls)
        ratios.append(walls[1] / walls[0])
        print(f"pass {p}: parent {walls[0]:.3f} s change {walls[1]:.3f} s ratio {ratios[-1]:.3f}")

    won = sum(r < 1.0 for r in ratios)
    if len(ratios) > 1:
        q1, med, q3 = quartiles(ratios)
    else:
        q1 = med = q3 = ratios[0]
    print(
        f"{args.workload} seed {args.seed}: median ratio {med:.3f} "
        f"(quartiles {q1:.3f}-{q3:.3f}), change won {won}/{len(ratios)} passes"
    )
    print(verdict(*zip(*pass_walls)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
