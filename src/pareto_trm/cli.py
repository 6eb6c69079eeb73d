"""Benchmark harness: single runs, campaign matrices and report aggregation.

Subcommands:
  run        one optimizer run, writes report.json / iterations.csv / db.csv
  campaign   problem x n x model x step matrix from a JSON config; writes each
             run's files under runs/<cell>/ and summary.csv
  summarize  regenerate summary.csv from a directory of report.json files

summary.csv holds one row per (problem, n, model, step), in SUMMARY_COLUMNS
order and sorted by that key; the rows of one (model, step) are its series of
mean expensive evaluations over problems and n.

Campaign cells are independent; PARETO_TRM_THREADS > 1 runs them in a process
pool. All outputs are byte-deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .driver import AlgoConfig, RunReport, run
from .errors import ParetoTRMError
from .linalg import halton
from .problem import EvaluationDatabase
from .steps import StepConfig
from .surrogates import MODEL_SPECS
from .testbed import PATTERNS, PROBLEM_NAMES, TestProblemSpec, make_problem, pareto_distance

STEP_NAMES = {
    "steepest": "modified-pc",
    "modified-pc": "modified-pc",
    "strict-pc": "strict-pc",
    "pascoletti-serafini": "pascoletti-serafini",
    "ps": "pascoletti-serafini",
    "exact-pc": "exact-pc",
}

SOLVED_THRESHOLD = 0.1
SUMMARY_COLUMNS = [
    "problem", "n", "model", "step",
    "mean_evals", "median_evals", "mean_final_omega", "solved_frac",
]


def _usage_error(msg: str) -> int:
    print(msg, file=sys.stderr)
    return 1


def _lookup(table: dict, kind: str, name: str):
    if name not in table:
        raise KeyError(f"unknown {kind} {name!r}; available: {', '.join(sorted(table))}")
    return table[name]


def _algo_config(overrides: dict, model_name: str, step_name: str) -> AlgoConfig:
    overrides = dict(overrides or {})
    step_over = overrides.pop("step", {})
    step = StepConfig(method=_lookup(STEP_NAMES, "step", step_name), **step_over)
    return AlgoConfig(models=_lookup(MODEL_SPECS, "model", model_name), step=step, **overrides)


def _start_points(prob, n_starts: int, seed: int) -> np.ndarray:
    """Deterministic interior starts of the problem's box from low-discrepancy sampling."""
    fs = prob.feasible
    interior = 0.1 + 0.8 * halton(n_starts, prob.n_vars, offset=7919 * seed)
    return fs.lower + interior * (fs.upper - fs.lower)


def _write_run_outputs(outdir: Path, rep: RunReport, db: EvaluationDatabase) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    rep.to_json(outdir / "report.json")
    rep.iterations_csv(outdir / "iterations.csv")
    db.to_csv(outdir / "db.csv")


def _summary_line(rep: RunReport) -> str:
    omega = rep.final_omega_true_clamped
    omega_s = "n/a" if omega is None else f"{omega:.6g}"
    return (
        f"{rep.meta['problem']} n={rep.n_vars} "
        f"model={rep.meta['model']} step={rep.meta['step']} "
        f"stop={rep.stop_reason} evals={rep.expensive_evals} "
        f"iters={len(rep.iterations)} omega_final={omega_s}"
    )


def cmd_run(args) -> int:
    try:
        spec = TestProblemSpec(args.problem, args.n, args.pattern)
        prob = make_problem(spec)
        overrides = json.loads(Path(args.config).read_text()) if args.config else {}
        if args.budget is not None:
            overrides["max_expensive"] = args.budget
        cfg = _algo_config(overrides, args.model, args.step)
    except (KeyError, ParetoTRMError, ValueError, TypeError, OSError) as exc:
        return _usage_error(str(exc))
    if args.x0:
        try:
            x0 = np.array([float(v) for v in args.x0.split(",")])
        except ValueError:
            return _usage_error(f"cannot parse --x0 {args.x0!r}")
    else:
        x0 = _start_points(prob, 1, args.seed)[0]
    db = EvaluationDatabase(prob)
    try:
        rep = run(prob, cfg, x0, seed=args.seed, db=db)
    except ParetoTRMError as exc:
        return _usage_error(f"run aborted: {exc}")
    rep.meta = {
        "problem": prob.name,
        "n": prob.n_vars,
        "pattern": spec.resolved().pattern,
        "model": args.model,
        "step": args.step,
        "seed": args.seed,
        "dist_to_pareto": pareto_distance(prob, rep.final_x),
    }
    _write_run_outputs(Path(args.out), rep, db)
    print(_summary_line(rep))
    return 2 if rep.stop_reason.startswith("error:") else 0


def _campaign_job(job: dict) -> dict:
    """Run one campaign cell start; returns a picklable result record."""
    spec = TestProblemSpec(job["problem"], job["n"], job["pattern"])
    prob = make_problem(spec)
    cfg = _algo_config(job["algo"], job["model"], job["step"])
    x0 = _start_points(prob, job["n_starts"], job["seed"])[job["start_index"]]
    db = EvaluationDatabase(prob)
    try:
        rep = run(prob, cfg, x0, seed=job["seed"], db=db)
    except Exception as exc:  # one failing cell must not discard the others
        return {"id": job["id"], "error": f"{type(exc).__name__}: {exc}"}
    rep.meta = {
        "problem": prob.name,
        "n": prob.n_vars,
        "pattern": spec.resolved().pattern,
        "model": job["model"],
        "step": job["step"],
        "seed": job["seed"],
        "start_index": job["start_index"],
    }
    outdir = Path(job["outdir"])
    _write_run_outputs(outdir, rep, db)
    return {"id": job["id"], "report": str(outdir / "report.json")}


def _load_campaign_config(path) -> dict:
    config = json.loads(Path(path).read_text())
    if config.get("schema") != 1:
        raise ValueError("campaign config must declare \"schema\": 1")
    for key in ("problems", "models", "steps", "output_dir"):
        if key not in config:
            raise ValueError(f"campaign config is missing {key!r}")
    return config


def _campaign_jobs(config: dict) -> list[dict]:
    """Every run of the campaign, cell by cell; builds every cell's problem and
    AlgoConfig first, so that a bad cell raises before anything runs."""
    n_starts = int(config.get("n_starts_per_cell", 4))
    seed = int(config.get("seed", 0))
    algo = config.get("algo", {})
    cells = []
    for entry in config["problems"]:
        if isinstance(entry, str):
            name, n_list, pattern = entry, config.get("n_values", [0]), ""
        else:
            name = entry["name"]
            n_list = [entry["n"]] if "n" in entry else config.get("n_values", [0])
            pattern = entry.get("pattern", "")
        for n in n_list:
            cells.append((name, int(n), pattern))
    jobs = []
    for name, n, pattern in cells:
        make_problem(TestProblemSpec(name, n, pattern))
        for model in config["models"]:
            for step in config["steps"]:
                _algo_config(algo, model, step)
                for s in range(n_starts):
                    cell_id = f"{name}-n{n}-{model}-{step}-s{s}"
                    jobs.append(
                        {
                            "id": cell_id,
                            "problem": name,
                            "n": n,
                            "pattern": pattern,
                            "model": model,
                            "step": step,
                            "seed": seed,
                            "start_index": s,
                            "n_starts": n_starts,
                            "algo": algo,
                            "outdir": str(Path(config["output_dir"]) / "runs" / cell_id),
                        }
                    )
    return jobs


def _aggregate(report_paths) -> list[list]:
    """summary.csv rows, one per (problem, n, model, step) in sorted order,
    each in SUMMARY_COLUMNS order with its statistics as float reprs."""
    groups: dict = {}
    for path in sorted(str(p) for p in report_paths):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        meta = data.get("meta", {})
        key = (
            meta.get("problem", data.get("problem_name", "?")),
            int(meta.get("n", data.get("n_vars", 0))),
            meta.get("model", "?"),
            meta.get("step", "?"),
        )
        omega = data.get("final_omega_true_clamped")
        if omega is None:
            omega = data.get("final_omega_m_clamped")
        groups.setdefault(key, {"evals": [], "omega": []})
        groups[key]["evals"].append(data.get("expensive_evals", 0))
        groups[key]["omega"].append(float(omega))
    rows = []
    for key in sorted(groups):
        evals = np.array(groups[key]["evals"], dtype=float)
        omegas = np.array(groups[key]["omega"], dtype=float)
        stats = (
            evals.mean(), np.median(evals), omegas.mean(), np.mean(omegas <= SOLVED_THRESHOLD)
        )
        rows.append([*key, *(repr(float(v)) for v in stats)])
    return rows


def _write_summary(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(rows)


def cmd_campaign(args) -> int:
    try:
        threads = int(os.environ.get("PARETO_TRM_THREADS", "1"))
        config = _load_campaign_config(args.config)
        jobs = _campaign_jobs(config)
    except (
        KeyError, ValueError, TypeError, OSError, json.JSONDecodeError, ParetoTRMError
    ) as exc:
        return _usage_error(str(exc))
    outdir = Path(config["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_campaign_job, jobs))
    else:
        results = [_campaign_job(job) for job in jobs]
    failures = [r for r in results if "error" in r]
    reports = [r["report"] for r in results if "report" in r]
    _write_summary(_aggregate(reports), outdir / "summary.csv")
    if failures:
        with open(outdir / "failures.json", "w", encoding="utf-8") as fh:
            json.dump(sorted(failures, key=lambda r: r["id"]), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"{len(failures)} cell(s) failed; see failures.json", file=sys.stderr)
    print(f"campaign complete: {len(reports)} runs, summary at {outdir / 'summary.csv'}")
    return 0


def cmd_summarize(args) -> int:
    root = Path(args.reports)
    if not root.is_dir():
        return _usage_error(f"{root} is not a directory")
    reports = sorted(root.rglob("report.json"))
    rows = _aggregate(reports)
    out = Path(args.out) if args.out else root / "summary.csv"
    _write_summary(rows, out)
    print(f"wrote {out} ({len(rows)} rows from {len(reports)} reports)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pareto-trm",
        description="Derivative-free multiobjective trust-region benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single optimizer run")
    p_run.add_argument("--problem", required=True, help=f"one of {', '.join(PROBLEM_NAMES)}")
    p_run.add_argument("--n", type=int, default=0, help="decision variables (family default if omitted)")
    p_run.add_argument("--pattern", default="", choices=["", *PATTERNS])
    p_run.add_argument("--model", required=True)
    p_run.add_argument("--step", required=True)
    p_run.add_argument("--x0", default="", help="comma-separated start point")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--config", default="", help="JSON file with AlgoConfig overrides")
    p_run.add_argument("--budget", type=int, default=None, help="expensive-evaluation cap")
    p_run.add_argument("--out", default="out-run")
    p_run.set_defaults(func=cmd_run)

    p_camp = sub.add_parser("campaign", help="run a benchmark matrix")
    p_camp.add_argument("--config", required=True)
    p_camp.set_defaults(func=cmd_campaign)

    p_sum = sub.add_parser("summarize", help="regenerate summary.csv from reports")
    p_sum.add_argument("--reports", required=True)
    p_sum.add_argument("--out", default="")
    p_sum.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
