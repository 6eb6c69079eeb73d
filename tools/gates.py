"""Every pinned run, run once, its digest checked against one golden file and
the package lines it leaves unreached against the allowlist.

    python3 tools/gates.py

The pinned runs are the ones whose bytes the repository fixes:

- each bench pass that a ``bench WORKLOAD SEED`` line of
  ``tests/golden/gates.txt`` names: every job of
  ``perfbench/workloads.build_jobs(WORKLOAD, SEED)``, run once as the
  benchmark runs it; its report bytes fix the benchmark's outcomes (stop
  reason, expensive evaluations, iterations) of every job;
- each gate run below, named by one ``gate NAME`` line;
- the golden campaign, ``pareto-trm campaign`` on
  ``tests/golden/campaign.json``, serially, and ``pareto-trm summarize`` on
  its output (the ``campaign`` line); a failed campaign run is an error;
- the golden CLI runs that ``tests/golden/cli-runs.txt`` lists (their files
  are compared with their directories under ``tests/golden/`` by
  ``tests/test_cli.py``).

Each run's ``report.json``, ``iterations.csv`` and ``db.csv`` are written with
the writer of ``pareto-trm run``. A bench or gate digest is the sha256 of those
bytes, run after run in job order. The campaign digest hashes, in order, the
campaign's ``summary.csv``, the ``summary.csv`` that summarize regenerates and
every run's files, run directory after run directory in sorted order.

Every bench job comes from the testbed, whose feasible sets are boxes, so no
bench run reaches the optimizer's R^n frame, and no bench run reaches a zero
step, the ``radius-min`` stop or the Pascoletti-Serafini fallback. The gate
runs do:

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
  Pascoletti-Serafini's own zero step;
- ``rn-wide-radius``: the cheap pair from (3, -2) under ``strict-pc`` with
  ``delta0 = 2`` and ``delta_ub = 4``, so the radius exceeds 1 while the step
  direction is long and ``steps.bar_sigma`` caps the step at the radius.

A ``sys.settrace`` collector records every package line the runs execute,
from the package's import on. The executable lines of a module are the line
starts of its compiled code objects. The tool prints each digest in the form
of its golden line, then, per module, how many executable lines are unreached
and which, as line ranges, then every function or lambda the runs never
enter, and the totals.

It exits 1, naming the line, on a digest that differs from its golden line, a
golden line that names no run, a run that no golden line names, an unreached
line that no entry of ``tools/gate_allowlist.txt`` lists and an entry that
lists no unreached line, so the list shrinks as the gates grow. An entry
names a line by module, innermost function and stripped source text, not by
number, so an edit elsewhere in the module keeps it valid. Run it from the
root of a checkout; it imports the package from ``src/`` and takes about 20 s
on a 2-core VM.
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py: the LAPACK bits must not depend on
# it; the campaign runs serially: its bytes must not depend on a process pool,
# whose cells would run outside the traced process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PARETO_TRM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import dis
import hashlib
import io
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pareto_trm"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

GOLDEN = ROOT / "tests" / "golden"
# one digest a line: bench WORKLOAD SEED SHA, gate NAME SHA or campaign SHA
GATES = GOLDEN / "gates.txt"
CAMPAIGN = GOLDEN / "campaign.json"
# the golden CLI runs, one per line after the comments: directory, arguments
CLI_RUNS = GOLDEN / "cli-runs.txt"
# the unreached lines that may stay so: module, function, stripped line, reason
ALLOWLIST = ROOT / "tools" / "gate_allowlist.txt"
FILES = ("report.json", "iterations.csv", "db.csv")


def key(code: types.CodeType) -> tuple[str, int, str]:
    """A code object by where it is defined, the same for every compile of a file."""
    return code.co_filename, code.co_firstlineno, code.co_name


class LineCollector:
    """The (file, line) pairs executed, and the code objects entered, in
    files under one directory, while ``trace`` is the global trace function."""

    def __init__(self, root: Path):
        self.prefix = str(root) + os.sep
        self.lines: set[tuple[str, int]] = set()
        self.entered: set[tuple[str, int, str]] = set()

    def trace(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.entered.add(key(code))
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local


# run as a script, the tool traces from the package's import on, so that its
# module-level lines count; the tests load this module untraced
COLLECTOR = LineCollector(PACKAGE)
if __name__ == "__main__":
    sys.settrace(COLLECTOR.trace)

import numpy as np  # noqa: E402

from pareto_trm import (  # noqa: E402
    MODEL_SPECS,
    AlgoConfig,
    FeasibleSet,
    MOProblem,
    StepConfig,
    TestProblemSpec,
    make_problem,
    run,
)
from pareto_trm.cli import _start_points, _write_run_outputs  # noqa: E402
from pareto_trm.cli import main as cli_main  # noqa: E402
from pareto_trm.problem import EvaluationDatabase  # noqa: E402
from workloads import build_jobs  # noqa: E402

SEED = 0
FIRST_CHEAP = "first-cheap-rest-expensive"


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


def _rn_wide_radius() -> tuple:
    cfg = AlgoConfig(
        models=None, step=StepConfig(method="strict-pc"), delta0=2.0, delta_ub=4.0, max_iters=10
    )
    return _cheap_pair(), cfg, np.array([3.0, -2.0]), SEED


# name -> (problem, AlgoConfig, x0, seed) of each gate run; a new run goes last
GATE_RUNS = {
    "rn-rbf": _rn_rbf,
    "rn-cheap-pair": _rn_cheap_pair,
    "rn-critical-pair": _rn_critical_pair,
    "dtlz6-face": _dtlz6_face,
    "dtlz1-ps-fallback": _dtlz1_ps_fallback,
    "rn-ps-shared-minimizer": _rn_ps_shared_minimizer,
    "rn-wide-radius": _rn_wide_radius,
}


def campaign_digest() -> str:
    """Run the golden campaign and summarize in a temporary directory; the
    sha256 of the files they write."""
    config = json.loads(CAMPAIGN.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        out, cfgfile, regen = (Path(tmp, name) for name in ("out", "campaign.json", "regen.csv"))
        cfgfile.write_text(json.dumps({**config, "output_dir": str(out)}), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(["campaign", "--config", str(cfgfile)]) != 0:
                raise SystemExit("the golden campaign failed")
            failures = out / "failures.json"
            if failures.exists():
                raise SystemExit(f"a golden campaign run failed: {failures.read_text()}")
            if cli_main(["summarize", "--reports", str(out), "--out", str(regen)]) != 0:
                raise SystemExit("summarize failed on the golden campaign")
        paths = [out / "summary.csv", regen]
        paths += [run / name for run in sorted((out / "runs").iterdir()) for name in FILES]
        sha = hashlib.sha256()
        for path in paths:
            sha.update(path.read_bytes())
    return sha.hexdigest()


def read_golden(path: Path = GATES) -> list[tuple[int, str, str]]:
    """(line number, run key, digest) of each line after the comments; the
    key is the line without its digest, such as ``gate rn-rbf``."""
    rows = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line and not line.startswith("#"):
            run_key, _, sha = line.rpartition(" ")
            rows.append((number, run_key, sha))
    return rows


def gate_digests() -> dict[str, str]:
    """Run key -> digest of each gate run."""
    return {f"gate {name}": digest([build()]) for name, build in GATE_RUNS.items()}


def run_digests(keys) -> dict[str, str]:
    """Run key -> digest of each bench pass that one of keys names, of every
    gate run and of the golden campaign, in that order."""
    digests = {}
    for run_key in keys:
        if run_key.startswith("bench "):
            _, workload, seed = run_key.split()
            digests[run_key] = digest(bench_runs(workload, int(seed)))
    digests.update(gate_digests())
    digests["campaign"] = campaign_digest()
    return digests


def mismatches(golden: list[tuple[int, str, str]], digests: dict[str, str]) -> list[str]:
    """A message for each golden line whose digest differs from its run's or
    that names no run, and for each run that no golden line names."""
    problems = []
    for number, run_key, sha in golden:
        got = digests.get(run_key)
        if got != sha:
            problems.append(
                f"{GATES.name}:{number}: {run_key} {sha}: "
                + (f"got {got}" if got else "no such run")
            )
    named = {run_key for _, run_key, _ in golden}
    problems += [f"no golden line: {k} {sha}" for k, sha in digests.items() if k not in named]
    return problems


def cli_runs() -> None:
    """Run each golden CLI run."""
    lines = CLI_RUNS.read_text(encoding="utf-8").splitlines()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for line in lines:
            if line and not line.startswith("#"):
                name, argv = line.split(" ", 1)
                if cli_main(["run", *argv.split(), "--out", str(Path(tmp) / name)]) != 0:
                    raise SystemExit(f"golden run failed: {argv}")


def code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def ranges(numbers: list[int]) -> str:
    spans, start = [], None
    for i, num in enumerate(numbers):
        if start is None:
            start = num
        if i + 1 == len(numbers) or numbers[i + 1] != num + 1:
            spans.append(str(start) if start == num else f"{start}-{num}")
            start = None
    return ", ".join(spans)


def executable_lines(path: Path) -> tuple[dict[int, tuple[str, str]], list[types.CodeType]]:
    """Each executable line of a module, with the qualified name of the
    innermost function that holds it (``<module>`` at top level) and its
    stripped source text, and the module's code objects."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    codes = list(code_objects(compile(source, str(path), "exec")))
    lines = {}
    for code in codes:  # outer before inner, so the innermost function wins
        # line 0 (a module's RESUME) and None (no source line) are never traced
        for _, line in dis.findlinestarts(code):
            if line:
                lines[line] = (code.co_qualname, text[line - 1].strip())
    return lines, codes


def load_allowlist(path: Path = ALLOWLIST) -> dict[tuple[str, str, str], str]:
    """(module, function, stripped source line) -> reason, for every entry."""
    entries = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line and not line.startswith("#"):
            fields = line.split("\t")
            if len(fields) != 4 or not all(fields):
                raise SystemExit(f"{path.name}:{number}: want 4 tab-separated fields")
            entries[tuple(fields[:3])] = fields[3]
    return entries


def unlisted_and_stale(unreached: list[tuple], allowlist: dict) -> tuple[list, list]:
    """The unreached (module, line, function, text) no entry lists, and the
    entries that list no unreached line."""
    keys = {(module, function, text) for module, _, function, text in unreached}
    unlisted = [u for u in unreached if (u[0], u[2], u[3]) not in allowlist]
    return unlisted, sorted(set(allowlist) - keys)


def coverage(seen: LineCollector) -> tuple[list, list]:
    """Print the package lines and functions seen leaves unreached; the
    unlisted unreached lines and the stale allowlist entries."""
    total = 0
    unreached, never_entered = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        lines, codes = executable_lines(path)
        never_entered += [
            f"{path.name}:{code.co_firstlineno} {code.co_name}"
            for code in codes[1:]
            if key(code) not in seen.entered
        ]
        missed = sorted(line for line in lines if (str(path), line) not in seen.lines)
        unreached += [(path.name, line, *lines[line]) for line in missed]
        total += len(lines)
        print(f"{path.name}: {len(missed)} of {len(lines)} lines unreached")
        if missed:
            print(f"  {ranges(missed)}")
    print(f"never entered: {', '.join(never_entered) or 'none'}")
    print(f"total: {len(unreached)} of {total} executable lines unreached")
    return unlisted_and_stale(unreached, load_allowlist())


def main() -> int:
    if sys.argv[1:]:
        print("usage: python3 tools/gates.py", file=sys.stderr)
        return 1
    golden = read_golden()
    digests = run_digests(run_key for _, run_key, _ in golden)
    cli_runs()
    sys.settrace(None)
    for run_key, sha in digests.items():
        print(f"{run_key} {sha}")
    unlisted, stale = coverage(COLLECTOR)
    differing = mismatches(golden, digests)
    for problem in differing:
        print(f"mismatch: {problem}")
    for module, line, function, text in unlisted:
        print(f"unlisted: {module}:{line} {function}: {text}")
    for module, function, text in stale:
        print(f"stale entry: {module} {function}: {text}")
    print(
        f"{len(differing)} mismatches, {len(unlisted)} unlisted unreached lines, "
        f"{len(stale)} stale allowlist entries"
    )
    return 1 if differing or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
