"""The benchmark in perfbench/ reaches into the package by name; these checks
fail fast when a rename or deletion in src/ would break it. They read
perfbench/, build its run matrices and trace one short run, but neither
modify it nor run the benchmark."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import PERFBENCH, load_perfbench

from pareto_trm import AlgoConfig, MODEL_SPECS, StepConfig, TestProblemSpec, cli, make_problem, run

SRC = PERFBENCH.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
# the pinned-run digests; its bench lines are: bench WORKLOAD SEED SHA
GATES = GOLDEN / "gates.txt"


def _package_imports():
    """(module, name) for every `from pareto_trm... import name` in perfbench/."""
    out = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pareto_trm"):
                out.update((node.module, alias.name) for alias in node.names)
    return out


def test_traced_sites_exist():
    tracing = load_perfbench("tracing")
    assert tracing.SITES
    for owner, attr, name in tracing.SITES:
        # the tracer wraps owner.__dict__[attr], so the name must live on the owner itself
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"


def test_imported_names_exist():
    imports = _package_imports()
    for label in ("SUCCESSFUL", "ACCEPTABLE", "INACCEPTABLE", "MODEL_IMPROVING"):
        assert ("pareto_trm.driver", label) in imports
    for module_name, name in sorted(imports):
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"perfbench imports {module_name}.{name}, which is gone"


def test_workloads_build():
    # every cell's problem, AlgoConfig and StepConfig must still construct
    workloads = load_perfbench("workloads")
    for name in workloads.WORKLOADS:
        jobs = workloads.build_jobs(name, 0)
        assert len(jobs) == sum(cell.starts for cell in workloads.WORKLOADS[name])


def test_tracer_times_the_lazy_curvature_bound():
    # the bound is computed inside the step, through the module-level name the
    # tracer swaps for its wrapper; a reference captured at import would bypass it.
    # One step of this run is not certified at the curvature floor, so it reads H.
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    prob = make_problem(TestProblemSpec("ZDT1", 5, "first-cheap-rest-expensive"))
    cfg = AlgoConfig(
        models=MODEL_SPECS["rbf-cubic"], step=StepConfig(method="modified-pc"), max_iters=15
    )
    with tracer.installed():
        run(prob, cfg, cli._start_points(prob, 4, 3)[0])
    assert tracer.summary()["surrogates.hessian_bound"]["calls"] == 1
    layers = [tracing.LAYERS[i] for i in tracer.layer]
    parents = {layers[tracer.parent[i]] for i, name in enumerate(layers)
               if name == "surrogates.hessian_bound"}
    assert parents == {"steps.compute_step"}


def test_tracer_times_every_builder():
    # build_bundle dispatches through the module-level builder names, which the
    # tracer swaps for its wrappers; one builder call per bundle must show up
    tracing = load_perfbench("tracing")
    prob = make_problem(TestProblemSpec("ZDT1", 3))
    for model, layer in (
        ("rbf-cubic", "surrogates.build_rbf"),
        ("lagrange-1", "surrogates.build_lagrange"),
        ("lagrange-2", "surrogates.build_lagrange"),
        ("taylor-fd1", "surrogates.build_taylor_fd"),
    ):
        tracer = tracing.Tracer()
        with tracer.installed():
            run(prob, AlgoConfig(models=MODEL_SPECS[model], max_iters=2), np.full(3, 0.6))
        summary = tracer.summary()
        assert summary[layer]["calls"] > 0, model
        assert summary[layer]["calls"] == summary["surrogates.build_bundle"]["calls"], model


def test_every_workload_has_a_committed_reports_digest():
    # tools/gates.py runs the bench pass of each bench line and compares its digest
    lines = GATES.read_text(encoding="utf-8").splitlines()
    rows = [line.split()[1:] for line in lines if line.startswith("bench ")]
    workloads = load_perfbench("workloads")
    assert sorted((name, seed) for name, seed, _ in rows) == sorted(
        (name, seed) for name in workloads.WORKLOADS for seed in ("0", "1")
    )
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, _, digest in rows)


def test_package_import_loads_only_numpy_and_the_standard_library():
    # the bench's setup_s times `import pareto_trm`; a new third-party import shows here first
    code = (
        "import sys; before = set(sys.modules); import pareto_trm; "
        "print(*sorted(set(sys.modules) - before))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )
    top = {name.split(".")[0] for name in out.stdout.split()}
    assert "pareto_trm" in top
    assert top - {"numpy", "pareto_trm"} <= set(sys.stdlib_module_names)
