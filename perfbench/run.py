"""pareto-trm benchmark: closed-loop optimizer workloads in one process.

    python3 perfbench/run.py --workload model-build --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
A workload (see ``workloads.py``) is a fixed matrix of ``pareto_trm.run``
calls executed one after another; one execution of the matrix is a pass.
Passes repeat until the next one would overrun ``--seconds`` (at least
three; the first warms up and is not timed).
Every run is checked: no raise, no ``error:*`` stop, no invariant violation,
and the same outcome (stop reason, expensive evaluations, iterations) in every
pass. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs two untraced
passes, then traced passes (see ``tracing.py``), reports the per-layer metrics
and writes the spans of the last traced pass to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the matrices are small, and timings are steadier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, build_jobs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
MIN_PASSES = 3  # a warm-up pass and at least two timed ones
ZERO_STEP_ANOMALY = "no Armijo step"  # BacktrackExhausted, turned into a zero step


def timed_setup(workload: str, seed: int):
    """Import the package and build the workload's problems; (seconds, jobs)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    jobs = build_jobs(workload, seed)
    return time.perf_counter() - t0, jobs


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


@dataclass
class Pass:
    wall: float
    traced: bool
    outcomes: list  # (label, stop, expensive evals, iterations) or (label, error)
    reports: list  # RunReport or None when the run raised
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def run_pass(jobs, seed: int, run_fn, traced: bool) -> Pass:
    outcomes, reports = [], []
    t0 = time.perf_counter()
    for label, prob, cfg, x0 in jobs:
        try:
            rep = run_fn(prob, cfg, x0, seed=seed)
        except Exception as exc:  # a run that raises is a failed run, not a failed benchmark
            outcomes.append((label, f"raised {type(exc).__name__}: {exc}"))
            reports.append(None)
            continue
        outcomes.append((label, rep.stop_reason, rep.expensive_evals, len(rep.iterations)))
        reports.append(rep)
    return Pass(time.perf_counter() - t0, traced, outcomes, reports)


def measure(jobs, seed: int, seconds: float, trace: bool):
    """Run passes until the next would overrun `seconds`; returns (passes, tracer).

    The first pass warms the allocator and lazy state and is not timed into
    any metric. With tracing, the second pass is the untraced baseline and the
    later passes are traced.
    """
    import pareto_trm

    tracer = traced_run = None
    if trace:
        from tracing import RUN_LAYER, Tracer

        tracer = Tracer()
        traced_run = tracer.wrap(pareto_trm.run, RUN_LAYER)
    passes = []
    t_start = time.perf_counter()
    while True:
        if trace and len(passes) >= 2:
            tracer.clear()
            with tracer.installed():
                p = run_pass(jobs, seed, traced_run, traced=True)
            p.layers, p.counts = tracer.summary(), dict(tracer.counts)
        else:
            p = run_pass(jobs, seed, pareto_trm.run, traced=False)
        passes.append(p)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and elapsed + max(q.wall for q in passes) > seconds:
            return passes, tracer


def run_failures(passes) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every run of every pass.

    A run fails if it raised, stopped with ``error:*``, recorded an invariant
    violation, or its outcome differs from the first pass's outcome of the
    same run. Only violations and differing outcomes make the output incorrect.
    """
    reference = passes[0].outcomes
    attempted = failed = 0
    correct = True
    for p in passes:
        for ref, out, rep in zip(reference, p.outcomes, p.reports):
            attempted += 1
            violated = rep is not None and any(rep.violations.values())
            differs = out != ref
            errored = rep is None or rep.stop_reason.startswith("error:")
            failed += violated or differs or errored
            correct = correct and not (violated or differs)
    return attempted, failed, correct


def outcome_digest(outcomes) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(passes, setup_samples) -> dict:
    from pareto_trm.cli import SOLVED_THRESHOLD

    reports = [r for r in passes[0].reports if r is not None]
    omegas = [r.final_omega_true_clamped for r in reports]
    return {
        "wall_s": _metric(statistics.median(p.wall for p in passes[1:]), "s"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "expensive_evals": _metric(statistics.fmean(r.expensive_evals for r in reports), "count"),
        "iterations": _metric(statistics.fmean(len(r.iterations) for r in reports), "count"),
        "solved_frac": _metric(
            statistics.fmean(om is not None and om <= SOLVED_THRESHOLD for om in omegas),
            "fraction",
        ),
    }


def per_layer_metrics(passes) -> dict:
    """Layer times are medians over the traced passes; counts repeat exactly."""
    from pareto_trm.driver import ACCEPTABLE, INACCEPTABLE, MODEL_IMPROVING, SUCCESSFUL
    from tracing import LAYERS

    untraced = [p for p in passes[1:] if not p.traced]
    traced = [p for p in passes if p.traced]
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = _metric(traced[0].layers[name]["calls"], "count")
        for key in ("s", "self_s"):
            out[f"{name}.{key}"] = _metric(
                statistics.median(p.layers[name][key] for p in traced), "s"
            )

    records = [it for r in untraced[0].reports if r is not None for it in r.iterations]
    anomalies = [a for r in untraced[0].reports if r is not None for a in r.anomalies]
    steps_taken = max(1, len(records))
    c = traced[0].counts
    db_calls = max(1, traced[0].layers["problem.db.evaluate"]["calls"])
    out.update({
        "surrogates.new_sites": _metric(c.get("bundle_new_sites", 0), "count"),
        "surrogates.recycled_frac": _metric(
            1.0 - c.get("bundle_new_sites", 0) / max(1, c.get("bundle_sites", 0)), "fraction"
        ),
        "surrogates.fully_linear_frac": _metric(
            c.get("bundles_fully_linear", 0) / max(1, c.get("bundles", 0)), "fraction"
        ),
        "steps.ps_fallback_frac": _metric(
            c.get("ps_fallbacks", 0) / max(1, c.get("ps_steps", 0)), "fraction"
        ),
        "steps.backtracks": _metric(sum(it["backtracks"] for it in records), "count"),
        "steps.zero_step_frac": _metric(
            sum(ZERO_STEP_ANOMALY in a for a in anomalies) / steps_taken, "fraction"
        ),
        "problem.db.hit_frac": _metric(c.get("db_hits", 0) / db_calls, "fraction"),
        "driver.crit_loops": _metric(sum(it["criticality_loops"] for it in records), "count"),
    })
    for cls in (SUCCESSFUL, ACCEPTABLE, INACCEPTABLE, MODEL_IMPROVING):
        share = sum(it["classification"] == cls for it in records) / steps_taken
        out[f"driver.iter.{cls.replace('-', '_')}_frac"] = _metric(share, "fraction")

    traced_wall = statistics.median(p.wall for p in traced)
    run_time = statistics.median(p.layers[LAYERS[0]]["s"] for p in traced)
    out["trace.wall_s"] = _metric(traced_wall, "s")
    out["trace.overhead_s"] = _metric(
        traced_wall - statistics.median(p.wall for p in untraced), "s"
    )
    out["trace.outside_runs_s"] = _metric(traced_wall - run_time, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="run only the first run of the matrix"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pareto_trm" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'pareto_trm'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(timed_setup(args.workload, args.seed)[0])
        return 0

    first, jobs = timed_setup(args.workload, args.seed)
    if not args.trace:
        setup_samples = [first] + [
            setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
    if args.smoke:
        jobs = jobs[:1]
    passes, tracer = measure(jobs, args.seed, args.seconds, bool(args.trace))

    attempted, failed, correct = run_failures(passes)
    walls = [p.wall for p in passes[1:] if not p.traced]
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(
        f"{args.workload} seed={args.seed}: {len(jobs)} runs per pass, {len(passes)} passes "
        f"(1 warm-up, {sum(p.traced for p in passes)} traced); untraced timed pass wall_s "
        f"median {statistics.median(walls):.4f} q1 {q[0]:.4f} q3 {q[2]:.4f} "
        f"(all passes: {', '.join(f'{p.wall:.4f}' for p in passes)}); "
        f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}"
    )
    print(f"outcomes sha256:{outcome_digest(passes[0].outcomes)}")
    if args.trace:
        metrics = per_layer_metrics(passes)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz")
    else:
        metrics = end_to_end_metrics(passes, setup_samples)
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
