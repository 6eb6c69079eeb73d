import json
from pathlib import Path

import numpy as np
import pytest

from pareto_trm import cli, criticality, driver
from pareto_trm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# (directory under GOLDEN, `pareto-trm run` arguments) of each golden CLI run
GOLDEN_RUNS = [
    tuple(line.split(" ", 1))
    for line in (GOLDEN / "cli-runs.txt").read_text(encoding="utf-8").splitlines()
    if line and not line.startswith("#")
]


def test_run_smoke(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "run", "--problem", "T6", "--model", "rbf-cubic", "--step", "strict-pc",
            "--seed", "1", "--budget", "25", "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "report.json").is_file()
    assert (out / "iterations.csv").is_file()
    assert (out / "db.csv").is_file()
    line = capsys.readouterr().out.strip()
    assert "stop=" in line and "evals=" in line
    data = json.loads((out / "report.json").read_text())
    assert data["schema"] == 1
    assert data["meta"]["model"] == "rbf-cubic"


@pytest.mark.parametrize("name, argv", GOLDEN_RUNS)
def test_run_outputs_match_golden(tmp_path, name, argv):
    assert main(["run", *argv.split(), "--out", str(tmp_path)]) == 0
    for output in ("report.json", "iterations.csv", "db.csv"):
        assert (tmp_path / output).read_bytes() == (GOLDEN / name / output).read_bytes(), output


def test_run_solves_no_second_true_omega(tmp_path, monkeypatch):
    # the report already holds the run's final true omega; the CLI adds only
    # the distance to the Pareto set, which needs no criticality LP
    calls = []
    final_diagnostic = driver.true_omega

    def counted(*args, **kwargs):
        calls.append(args)
        return final_diagnostic(*args, **kwargs)

    def second_true_omega(*args, **kwargs):
        raise AssertionError("the CLI solved a second true-omega LP")

    monkeypatch.setattr(driver, "true_omega", counted)
    monkeypatch.setattr(criticality, "true_omega", second_true_omega)
    argv = "--problem T6 --model rbf-cubic --step strict-pc --seed 1 --budget 5"
    assert main(["run", *argv.split(), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1  # the run's own final diagnostic
    meta = json.loads((tmp_path / "report.json").read_text())["meta"]
    assert meta["dist_to_pareto"] is not None


def test_run_unknown_model_lists_registry(capsys):
    code = main(["run", "--problem", "T6", "--model", "nope", "--step", "strict-pc"])
    assert code == 1
    err = capsys.readouterr().err
    assert "rbf-cubic" in err and "lagrange-2" in err


def test_run_unknown_problem(capsys):
    code = main(["run", "--problem", "NOPE", "--model", "rbf-cubic", "--step", "steepest"])
    assert code == 1


def test_run_zero_budget_reports_budget_stop(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "run", "--problem", "T6", "--model", "rbf-cubic", "--step", "strict-pc",
            "--budget", "0", "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads((out / "report.json").read_text())
    assert data["stop_reason"] == "budget-exhausted"


def test_run_explicit_x0(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "run", "--problem", "ZDT1", "--n", "3", "--model", "taylor-fd1",
            "--step", "steepest", "--x0", "0.5,0.5,0.5", "--budget", "40",
            "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads((out / "report.json").read_text())
    np.testing.assert_allclose(data["x0"], [0.5, 0.5, 0.5])


def test_run_wrong_length_x0_aborts_with_one_line(tmp_path, capsys):
    code = main(
        [
            "run", "--problem", "T6", "--model", "rbf-cubic", "--step", "strict-pc",
            "--x0", "1,2,3", "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "run aborted: expected length 2\n" and captured.out == ""


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def _campaign_config(tmp_path, outdir, n_starts=2):
    return {
        "schema": 1,
        "problems": ["ZDT1"],
        "n_values": [3],
        "models": ["rbf-cubic", "lagrange-1"],
        "steps": ["steepest"],
        "n_starts_per_cell": n_starts,
        "seed": 0,
        "algo": {"max_iters": 20},
        "output_dir": str(outdir),
    }


def test_campaign_and_summary(tmp_path, capsys):
    cfgfile = tmp_path / "camp.json"
    outdir = tmp_path / "camp-out"
    cfgfile.write_text(json.dumps(_campaign_config(tmp_path, outdir)))
    assert main(["campaign", "--config", str(cfgfile)]) == 0
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[0] == "problem,n,model,step,mean_evals,median_evals,mean_final_omega,solved_frac"
    assert len(summary) == 3  # 1 problem x 1 n x 2 models x 1 step
    runs = list((outdir / "runs").iterdir())
    assert len(runs) == 4  # 2 cells x 2 starts
    # summary.csv is the one summary; its rows for one (model, step) are that series
    assert sorted(p.name for p in outdir.iterdir()) == ["runs", "summary.csv"]
    for row in summary[1:]:
        fields = row.split(",")
        solved = float(fields[-1])
        assert 0.0 <= solved <= 1.0
        # any run that built an interpolation model used at least n+1 sites
        assert float(fields[4]) >= 3 + 1


def test_campaign_records_unexpected_cell_error(tmp_path, monkeypatch):
    monkeypatch.setenv("PARETO_TRM_THREADS", "1")
    real_run = cli.run

    def run_or_raise(prob, cfg, x0, seed=0, db=None):
        if cfg.models.kind == "lagrange":
            raise RuntimeError("cell blew up")
        return real_run(prob, cfg, x0, seed=seed, db=db)

    monkeypatch.setattr(cli, "run", run_or_raise)
    cfgfile = tmp_path / "camp.json"
    outdir = tmp_path / "camp-out"
    cfgfile.write_text(json.dumps(_campaign_config(tmp_path, outdir, n_starts=1)))
    assert main(["campaign", "--config", str(cfgfile)]) == 0
    failures = json.loads((outdir / "failures.json").read_text())
    assert failures == [
        {"id": "ZDT1-n3-lagrange-1-steepest-s0", "error": "RuntimeError: cell blew up"}
    ]
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert len(summary) == 2 and summary[1].startswith("ZDT1,3,rbf-cubic,steepest,")


def test_campaign_process_pool_matches_serial(tmp_path, monkeypatch):
    out_serial, out_pool = tmp_path / "serial", tmp_path / "pool"
    for out, threads in ((out_serial, "1"), (out_pool, "3")):
        cfgfile = tmp_path / f"{out.name}.json"
        cfgfile.write_text(json.dumps(_campaign_config(tmp_path, out)))
        monkeypatch.setenv("PARETO_TRM_THREADS", threads)
        assert main(["campaign", "--config", str(cfgfile)]) == 0
    assert (out_serial / "summary.csv").read_bytes() == (out_pool / "summary.csv").read_bytes()


def test_campaign_determinism(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        cfgfile = tmp_path / f"{out.name}.json"
        cfgfile.write_text(json.dumps(_campaign_config(tmp_path, out)))
        assert main(["campaign", "--config", str(cfgfile)]) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    for p1 in sorted((out1 / "runs").rglob("report.json")):
        p2 = out2 / p1.relative_to(out1)
        assert p1.read_bytes() == p2.read_bytes()


def test_summarize_idempotent(tmp_path):
    cfgfile = tmp_path / "camp.json"
    outdir = tmp_path / "camp-out"
    cfgfile.write_text(json.dumps(_campaign_config(tmp_path, outdir)))
    assert main(["campaign", "--config", str(cfgfile)]) == 0
    regen = tmp_path / "regen.csv"
    assert main(["summarize", "--reports", str(outdir), "--out", str(regen)]) == 0
    assert regen.read_bytes() == (outdir / "summary.csv").read_bytes()


def test_summarize_empty_dir(tmp_path):
    out = tmp_path / "summary.csv"
    assert main(["summarize", "--reports", str(tmp_path), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "problem,n,model,step,mean_evals,median_evals,mean_final_omega,solved_frac"
    ]


def test_summarize_single_report(tmp_path):
    rundir = tmp_path / "r0"
    main(
        [
            "run", "--problem", "ZDT1", "--n", "3", "--model", "rbf-cubic",
            "--step", "steepest", "--seed", "2", "--budget", "40", "--out", str(rundir),
        ]
    )
    out = tmp_path / "summary.csv"
    assert main(["summarize", "--reports", str(tmp_path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2
    assert float(rows[1].rsplit(",", 1)[1]) in (0.0, 1.0)


def test_campaign_dict_problem_entries(tmp_path):
    cfgfile = tmp_path / "camp.json"
    outdir = tmp_path / "out"
    cfg = {
        "schema": 1,
        "problems": [{"name": "T6"}],  # pinned family default n, no n_values cross
        "models": ["rbf-cubic"],
        "steps": ["strict-pc"],
        "n_starts_per_cell": 2,
        "seed": 1,
        "algo": {"max_expensive": 25, "nu_p": 0.1, "n_loops": 2, "delta_min": 1e-3,
                 "acceptance": "strict"},
        "output_dir": str(outdir),
    }
    cfgfile.write_text(json.dumps(cfg))
    assert main(["campaign", "--config", str(cfgfile)]) == 0
    rows = (outdir / "summary.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("T6,2,rbf-cubic,strict-pc,")


def test_readme_campaign_config_passes_the_up_front_checks(tmp_path):
    # the README's example config builds every cell's problem and AlgoConfig
    readme = (GOLDEN.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Campaign config schema", 1)[1].split("```json\n", 1)[1]
    cfgfile = tmp_path / "campaign.json"
    cfgfile.write_text(block.split("```", 1)[0], encoding="utf-8")
    jobs = cli._campaign_jobs(cli._load_campaign_config(cfgfile))
    cells = {(job["problem"], job["n"]) for job in jobs}
    assert cells == {("ZDT1", 5), ("ZDT1", 10), ("T6", 2)}
    assert len(jobs) == 3 * 2 * 1 * 4  # cells x models x steps x starts


def test_campaign_rejects_bad_schema(tmp_path, capsys):
    cfgfile = tmp_path / "bad.json"
    cfg = _campaign_config(tmp_path, tmp_path / "x")
    cfg["schema"] = 2
    cfgfile.write_text(json.dumps(cfg))
    assert main(["campaign", "--config", str(cfgfile)]) == 1


def test_campaign_rejects_unparsable_threads_before_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PARETO_TRM_THREADS", "two")
    cfgfile, outdir = tmp_path / "camp.json", tmp_path / "camp-out"
    cfgfile.write_text(json.dumps(_campaign_config(tmp_path, outdir)))
    assert main(["campaign", "--config", str(cfgfile)]) == 1
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert "'two'" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "patch",
    [
        {"steps": ["warp-drive"]},
        {"algo": {"max_iter": 20}},
        {"algo": {"step": {"max_backtrack": 3}}},
        {"algo": {"mu": -1.0}},
        {"problems": ["ZDT1"], "n_values": [1]},
        {"algo": {"validate": True}},
        {"algo": {"step": {"max_backtracks": 30}}},
    ],
    ids=[
        "unknown-step", "algo-typo", "step-typo", "algo-invalid", "zdt-n1",
        "removed-algo-option", "removed-step-option",
    ],
)
def test_campaign_rejects_bad_cell(tmp_path, patch):
    cfgfile = tmp_path / "bad.json"
    cfg = _campaign_config(tmp_path, tmp_path / "x")
    cfg.update(patch)
    cfgfile.write_text(json.dumps(cfg))
    assert main(["campaign", "--config", str(cfgfile)]) == 1
    assert not (tmp_path / "x").exists()
