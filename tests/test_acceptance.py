"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria that execute full
optimizer runs register their reports so the suite-wide sufficient-decrease
count (criterion 7) covers every run performed here.
"""

import json
import time

import numpy as np
import pytest

from conftest import lp_vertex_oracle, plain, row_loop, segment_distance, two_quadratics

import pareto_trm.cli as cli
from pareto_trm import (
    AlgoConfig,
    MODEL_SPECS,
    StepConfig,
    TestProblemSpec,
    make_problem,
    run,
)
from pareto_trm.criticality import omega_of_gradients
from pareto_trm.linalg import box_multistart_minimize, halton, solve_descent_lp
from pareto_trm.problem import EvaluationDatabase, FeasibleSet, MOProblem
from pareto_trm.steps import StepConfig as SC, pascoletti_serafini
from pareto_trm.surrogates import PolyModel, SurrogateBundle, build_lagrange, build_rbf
from pareto_trm.testbed import FIRST_CHEAP

ALL_REPORTS = []  # every run performed by this module, for criterion 7


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def _starts(prob, count, seed=0):
    fs = prob.feasible
    h = halton(count, prob.n_vars, offset=7919 * seed)
    return fs.lower + (0.1 + 0.8 * h) * (fs.upper - fs.lower)


def _t6_cfg(model, budget):
    # benchmark parameter set: strict acceptance, strict Pareto-Cauchy steps
    return AlgoConfig(
        eps_crit=1e-3, mu=2e3, beta_c=1e3, delta_ub=0.5, delta0=0.1,
        nu_p=0.1, nu_pp=0.4, gamma_downdown=0.51, gamma_down=0.75, gamma_up=2.0,
        n_loops=2, delta_min=1e-3, max_expensive=budget,
        acceptance="strict", step=StepConfig(method="strict-pc"),
        models=MODEL_SPECS[model], max_iters=60,
    )


def _tracked_run(prob, cfg, x0, seed=0):
    rep = run(prob, cfg, x0, seed=seed)
    ALL_REPORTS.append(rep)
    return rep


def test_criterion_1_t6_reproduction():
    prob = make_problem(TestProblemSpec("T6"))
    hits, eval_counts, worst_dt = 0, [], 0.0
    for x0 in _starts(prob, 4, seed=1):
        t0 = time.time()
        rep = _tracked_run(prob, _t6_cfg("rbf-cubic", 25), x0, seed=1)
        worst_dt = max(worst_dt, time.time() - t0)
        dist = max(abs(rep.final_x[0] - 1e-12), abs(rep.final_x[1]))
        eval_counts.append(rep.expensive_evals)
        if dist <= 0.1 and rep.expensive_evals <= 25:
            hits += 1
    ok = hits >= 3 and worst_dt < 5.0
    _line(1, ok, f"T6 converged from {hits}/4 starts, evals={eval_counts}, "
                 f"slowest run {worst_dt:.2f}s")
    assert hits >= 3
    assert worst_dt < 5.0


def test_criterion_2_t6_model_ordering():
    prob = make_problem(TestProblemSpec("T6"))
    votes = 0
    rows = []
    for x0 in _starts(prob, 4, seed=1):
        rbf = _tracked_run(prob, _t6_cfg("rbf-cubic", 20), x0, seed=1)
        lag = _tracked_run(prob, _t6_cfg("lagrange-2", 20), x0, seed=1)
        om_rbf = rbf.final_omega_true_clamped
        om_lag = lag.final_omega_true_clamped
        good = lag.expensive_evals >= rbf.expensive_evals and om_lag >= om_rbf - 1e-9
        votes += good
        rows.append((rbf.expensive_evals, lag.expensive_evals, round(om_rbf, 4), round(om_lag, 4)))
    ok = votes >= 3
    _line(2, ok, f"votes={votes}/4 (rbf_evals, lag_evals, rbf_omega, lag_omega)={rows}")
    assert votes >= 3


def test_criterion_3_scaling_ordering():
    t_start = time.time()
    means = {}
    for n in (5, 10, 15):
        prob = make_problem(TestProblemSpec("ZDT1", n, FIRST_CHEAP))
        for model in ("rbf-cubic", "taylor-fd1", "lagrange-2"):
            evals = []
            for x0 in _starts(prob, 4):
                cfg = AlgoConfig(
                    models=MODEL_SPECS[model], step=StepConfig(method="modified-pc")
                )
                evals.append(_tracked_run(prob, cfg, x0).expensive_evals)
            means[(model, n)] = float(np.mean(evals))
    elapsed = time.time() - t_start
    orderings = all(
        means[("rbf-cubic", n)] < means[("taylor-fd1", n)]
        and means[("rbf-cubic", n)] < means[("lagrange-2", n)]
        for n in (5, 10, 15)
    )
    ratio = means[("lagrange-2", 10)] / means[("lagrange-2", 5)]
    ok = orderings and ratio >= 2.5 and elapsed < 600
    _line(
        3,
        ok,
        f"orderings={orderings}, lagrange-2 n10/n5 mean-eval ratio={ratio:.2f} "
        f"(needs >= 2.5; n15/n10={means[('lagrange-2', 15)] / means[('lagrange-2', 10)]:.2f}), "
        f"elapsed={elapsed:.0f}s",
    )
    assert elapsed < 600
    assert orderings, f"means={means}"
    # Every degree-2 Lagrange model interpolates on the same box-fitted
    # stencil, so evaluations scale with the basis size (n5=236, n10=804).
    assert ratio >= 2.5, (
        f"lagrange-2 mean-eval ratio n10/n5 = {ratio:.2f} < 2.5 "
        f"(means: n5={means[('lagrange-2', 5)]:.0f}, n10={means[('lagrange-2', 10)]:.0f})"
    )


def test_criterion_4_solved_fraction():
    counts = {}
    for model in ("rbf-cubic", "lagrange-1"):
        solved, total = 0, 0
        for name in ("ZDT1", "ZDT2", "ZDT3"):
            prob = make_problem(TestProblemSpec(name, 5, FIRST_CHEAP))
            for x0 in _starts(prob, 4):
                cfg = AlgoConfig(
                    models=MODEL_SPECS[model], step=StepConfig(method="modified-pc")
                )
                rep = _tracked_run(prob, cfg, x0)
                total += 1
                solved += rep.final_omega_true_clamped <= 0.1
        counts[model] = (solved, total)
    rbf_frac = counts["rbf-cubic"][0] / counts["rbf-cubic"][1]
    ok = rbf_frac >= 0.6 and counts["lagrange-1"][0] <= counts["rbf-cubic"][0]
    _line(4, ok, f"rbf-cubic solved {counts['rbf-cubic'][0]}/{counts['rbf-cubic'][1]} "
                 f"(frac={rbf_frac:.2f}), lagrange-1 solved {counts['lagrange-1'][0]}")
    assert rbf_frac >= 0.6
    assert counts["lagrange-1"][0] <= counts["rbf-cubic"][0]


def test_criterion_5_lp_oracle_equivalence():
    rng = np.random.default_rng(524287)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        G = rng.uniform(-1, 1, size=(k, n))
        lo = -rng.uniform(0.1, 1.0, size=n)
        hi = rng.uniform(0.1, 1.0, size=n)
        _, beta = solve_descent_lp(G, lo, hi)
        _, beta_oracle = lp_vertex_oracle(G, lo, hi)
        worst = max(worst, abs(beta - beta_oracle))
    elapsed = time.time() - t0
    ok = worst <= 2e-3 and elapsed < 30
    _line(5, ok, f"100 instances, worst |omega - oracle| = {worst:.2e} "
                 f"(exact vertex-enumeration oracle), elapsed={elapsed:.1f}s")
    assert worst <= 2e-3
    assert elapsed < 30


def test_criterion_6_fully_linear_decay():
    f = lambda x: float(np.sin(3 * x[0]) + x[1] ** 2)
    grad = lambda x: np.array([3 * np.cos(3 * x[0]), 2 * x[1]])
    fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
    prob = MOProblem(2, 1, [row_loop(f)], np.array([True]), fs, name="decay")
    # fixed center where f''' of the sine term is near-constant over the
    # nested regions, so measured ratios reflect the convergence orders
    center = np.array([0.05, 0.5])
    offsets = 2.0 * halton(200, 2, offset=41) - 1.0
    results = {}
    for name in ("rbf-cubic", "lagrange-2"):
        errs, gerrs = [], []
        for delta in (0.2, 0.1, 0.05):
            db = EvaluationDatabase(prob)
            if name == "rbf-cubic":
                _, (model,) = build_rbf(db, MODEL_SPECS[name], center, delta, 0.5, fs)
            else:
                _, (model,) = build_lagrange(db, MODEL_SPECS[name], center, delta, fs)
            pts = np.clip(center + delta * offsets, 0.0, 1.0)
            errs.append(max(abs(model.values(p)[0] - f(p)) for p in pts))
            gerrs.append(max(np.linalg.norm(model.gradients(p)[0] - grad(p)) for p in pts))
        results[name] = (
            [errs[0] / errs[1], errs[1] / errs[2]],
            [gerrs[0] / gerrs[1], gerrs[1] / gerrs[2]],
        )
    ok = all(
        all(2.5 <= r <= 8.0 for r in vr) and all(1.4 <= r <= 4.0 for r in gr)
        for vr, gr in results.values()
    )
    detail = ", ".join(
        f"{name}: value=({vr[0]:.2f},{vr[1]:.2f}) grad=({gr[0]:.2f},{gr[1]:.2f})"
        for name, (vr, gr) in results.items()
    )
    _line(6, ok, f"halving ratios over 200 ball samples: {detail}")
    for name, (vr, gr) in results.items():
        for r in vr:
            assert 2.5 <= r <= 8.0, f"{name} value ratio {r}"
        for r in gr:
            assert 1.4 <= r <= 4.0, f"{name} gradient ratio {r}"


def test_criterion_7_sufficient_decrease_suitewide():
    assert ALL_REPORTS, "run-producing criteria must execute first"
    runs = len(ALL_REPORTS)
    bad = sum(r.violations.get("sufficient_decrease", 0) for r in ALL_REPORTS)
    iters = sum(len(r.iterations) for r in ALL_REPORTS)
    ok = bad == 0
    _line(7, ok, f"{bad} certificate violations across {runs} runs / {iters} iterations")
    assert bad == 0


def test_criterion_8_monotonicity_and_convergence():
    a, b = np.array([0.2, 0.3]), np.array([0.9, 0.7])
    details = []
    ok = True
    # standard mode
    prob = two_quadratics(a, b)
    cfg = AlgoConfig(models=None, step=StepConfig(method="modified-pc"))
    rep = _tracked_run(prob, cfg, [3.0, -2.0])
    mono_std = rep.violations["monotonicity"] == 0
    final_delta = rep.iterations[-1]["delta_after"]
    conv = (
        rep.final_omega_true_clamped <= 1e-3
        and final_delta <= cfg.delta_crit
        and segment_distance(rep.final_x, a, b) <= 1e-2
    )
    details.append(
        f"standard: omega={rep.final_omega_true_clamped:.2e} delta={final_delta:.2e} "
        f"dist={segment_distance(rep.final_x, a, b):.2e} evals={rep.expensive_evals}"
    )
    ok = ok and mono_std and conv and rep.expensive_evals == 0
    # strict mode: every objective non-increasing over accepted moves
    prob2 = two_quadratics(a, b)
    cfg2 = AlgoConfig(models=None, acceptance="strict", step=StepConfig(method="strict-pc"))
    rep2 = _tracked_run(prob2, cfg2, [3.0, -2.0])
    mono_strict = rep2.violations["monotonicity"] == 0
    details.append(f"strict: omega={rep2.final_omega_true_clamped:.2e}")
    ok = ok and mono_strict and rep2.final_omega_true_clamped <= 1e-3
    _line(8, ok, "; ".join(details))
    assert mono_std and mono_strict
    assert rep.expensive_evals == 0
    assert rep.final_omega_true_clamped <= 1e-3
    assert final_delta <= cfg.delta_crit
    assert segment_distance(rep.final_x, a, b) <= 1e-2
    assert rep2.final_omega_true_clamped <= 1e-3


def _quad_model(c, scale=1.0):
    c = np.asarray(c, dtype=float)
    return PolyModel(
        np.zeros(c.size), 1.0, scale * float(c @ c), -2.0 * scale * c,
        2.0 * scale * np.eye(c.size),
    )


def _bundle(models, center, radius):
    center = np.asarray(center, dtype=float)
    fs = FeasibleSet.unconstrained()
    return SurrogateBundle(
        models=models,
        center=center,
        radius=radius,
        training_sites=np.empty((0, center.size)),
        new_sites=0,
        fs=fs,
    )


def test_criterion_9_pascoletti_serafini_contract():
    fs = FeasibleSet.unconstrained()
    cfg = SC(method="pascoletti-serafini")
    rng = np.random.default_rng(8191)
    # 20 model-critical centers: both quadratics minimized at the center
    zero_ok = 0
    for _ in range(20):
        center = rng.uniform(-1, 1, size=2)
        bundle = _bundle([_quad_model(center), _quad_model(center, 2.0)], center, 0.3)
        crit = omega_of_gradients(bundle.gradients(center), center, fs)
        res = pascoletti_serafini(bundle, center, 0.3, crit, cfg, fs)
        zero_ok += res.is_zero and res.certificate_lhs == res.certificate_rhs == 0.0
    # 50 random non-critical bundles: certificate must hold (fallback allowed)
    cert_ok, tried = 0, 0
    while tried < 50:
        center = rng.uniform(-0.5, 0.5, size=2)
        bundle = _bundle(
            [_quad_model(rng.uniform(-1, 1, 2)), _quad_model(rng.uniform(-1, 1, 2))],
            center,
            0.4,
        )
        crit = omega_of_gradients(bundle.gradients(center), center, fs)
        if crit.omega <= 1e-10:
            continue
        tried += 1
        res = pascoletti_serafini(bundle, center, 0.4, crit, cfg, fs)
        cert_ok += res.certificate_lhs >= res.certificate_rhs - 1e-12
    # k = 1: PS reduces to direct model minimization
    k1_ok = 0
    for _ in range(10):
        c = rng.uniform(-1, 1, size=2)
        model = _quad_model(c)
        center = rng.uniform(0.5, 1.0, size=2)
        bundle = _bundle([model], center, 2.0)
        crit = omega_of_gradients(bundle.gradients(center), center, fs)
        res = pascoletti_serafini(bundle, center, 2.0, crit, cfg, fs)
        direct, _ = box_multistart_minimize(
            *plain(model.values, model.gradients), center - 2.0, center + 2.0,
            12, seed=3, include=center[None, :],
        )
        k1_ok += float(np.max(np.abs(res.trial - direct))) <= 1e-5
    ok = zero_ok == 20 and cert_ok == 50 and k1_ok == 10
    _line(9, ok, f"zero-step at critical centers {zero_ok}/20, certificates {cert_ok}/50, "
                 f"k=1 direct-min matches {k1_ok}/10")
    assert zero_ok == 20
    assert cert_ok == 50
    assert k1_ok == 10


def test_criterion_10_determinism(tmp_path):
    # single run repeated byte-identically
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run-{tag}"
        code = cli.main(
            [
                "run", "--problem", "T6", "--model", "rbf-cubic", "--step", "strict-pc",
                "--seed", "3", "--budget", "25", "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    run_same = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("report.json", "iterations.csv", "db.csv")
    )
    # campaign repeated byte-identically
    sums = []
    for tag in ("a", "b"):
        outdir = tmp_path / f"camp-{tag}"
        cfg = {
            "schema": 1,
            "problems": ["ZDT1"],
            "n_values": [3],
            "models": ["rbf-cubic"],
            "steps": ["steepest"],
            "n_starts_per_cell": 2,
            "seed": 5,
            "algo": {"max_iters": 20},
            "output_dir": str(outdir),
        }
        cfgfile = tmp_path / f"camp-{tag}.json"
        cfgfile.write_text(json.dumps(cfg))
        assert cli.main(["campaign", "--config", str(cfgfile)]) == 0
        sums.append(outdir)
    camp_same = (sums[0] / "summary.csv").read_bytes() == (sums[1] / "summary.csv").read_bytes()
    reports_same = all(
        p.read_bytes() == (sums[1] / p.relative_to(sums[0])).read_bytes()
        for p in sorted(sums[0].rglob("report.json"))
    )
    ok = run_same and camp_same and reports_same
    _line(10, ok, f"single-run files identical={run_same}, campaign identical={camp_same and reports_same}")
    assert run_same
    assert camp_same
    assert reports_same
