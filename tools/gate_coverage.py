"""The lines of src/pareto_trm that the gated runs leave unreached.

    python3 tools/gate_coverage.py

The gated runs are the ones whose bytes the repository pins, each run the
way its gate runs it: one pass of every bench workload at seeds 0 and 1
through ``tools/bench_reports.py`` (``tests/golden/bench-digests.txt`` and
``bench-reports.txt``), the library runs of ``tools/gate_reports.py``
(``tests/golden/gate-reports.txt``) and the golden CLI runs listed in
``tests/golden/cli-runs.txt`` (``tests/test_cli.py``). A refactor that keeps
those bytes proves itself only on the lines they execute.

A ``sys.settrace`` collector records every line the runs execute in the
package, from its import on. The executable lines of a module are the line
starts of its compiled code objects. The tool prints, per module, how many
of them are unreached and which, as line ranges, then every function or
lambda the runs never enter, then the totals. It fails nothing. Run it from
the root of a checkout; it imports the package from ``src/`` and takes about
15 s on a 2-core VM.
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py: the LAPACK bits must not depend on it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import dis
import io
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pareto_trm"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

WORKLOADS = ("model-build", "step-solve", "fd-highdim")
SEEDS = (0, 1)
# the golden CLI runs, one per line after the comments: directory, arguments
GOLDEN_RUNS = ROOT / "tests" / "golden" / "cli-runs.txt"


def key(code: types.CodeType) -> tuple[str, int, str]:
    """A code object by where it is defined, the same for every compile of a file."""
    return code.co_filename, code.co_firstlineno, code.co_name


class LineCollector:
    """The (file, line) pairs executed, and the code objects entered, in
    files under one directory."""

    def __init__(self, root: Path):
        self.prefix = str(root) + os.sep
        self.lines: set[tuple[str, int]] = set()
        self.entered: set[tuple[str, int, str]] = set()

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.entered.add(key(code))
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def gated_runs() -> None:
    """Every gated run, in process, as its gate runs it; imports the package."""
    from pareto_trm.cli import main
    from bench_reports import bench_runs, digest
    from gate_reports import gate_runs

    for workload in WORKLOADS:
        for seed in SEEDS:
            digest(bench_runs(workload, seed))
    digest(gate_runs())
    lines = GOLDEN_RUNS.read_text(encoding="utf-8").splitlines()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for line in lines:
            if line and not line.startswith("#"):
                name, argv = line.split(" ", 1)
                if main(["run", *argv.split(), "--out", str(Path(tmp) / name)]) != 0:
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


def main() -> int:
    with LineCollector(PACKAGE) as seen:
        gated_runs()
    total = unreached_total = 0
    never_entered = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        executable = set()
        for code in code_objects(module):
            # line 0 (a module's RESUME) and None (no source line) are never traced
            executable.update(line for _, line in dis.findlinestarts(code) if line)
            if code is not module and key(code) not in seen.entered:
                never_entered.append(f"{path.name}:{code.co_firstlineno} {code.co_name}")
        unreached = sorted(line for line in executable if (str(path), line) not in seen.lines)
        total += len(executable)
        unreached_total += len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(executable)} lines unreached")
        if unreached:
            print(f"  {ranges(unreached)}")
    print(f"never entered: {', '.join(never_entered) or 'none'}")
    print(f"total: {unreached_total} of {total} executable lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
