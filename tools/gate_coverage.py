"""The lines of src/pareto_trm that the gated runs leave unreached.

    python3 tools/gate_coverage.py

The gated runs are the ones whose bytes the repository pins, each run the
way its gate runs it: one pass of each (workload, seed) that
``tests/golden/bench-reports.txt`` lists, through ``tools/bench_reports.py``
(``bench-digests.txt`` pins the outcomes of the same passes), the library
runs of ``tools/gate_reports.py`` (``tests/golden/gate-reports.txt``), the
golden campaign and its summarize through ``tools/campaign_reports.py``
(``tests/golden/campaign-reports.txt``) and the golden CLI runs listed in
``tests/golden/cli-runs.txt`` (``tests/test_cli.py``). A refactor that keeps
those bytes proves itself only on the lines they execute.

A ``sys.settrace`` collector records every line the runs execute in the
package, from its import on. The executable lines of a module are the line
starts of its compiled code objects. The tool prints, per module, how many
of them are unreached and which, as line ranges, then every function or
lambda the runs never enter, then the totals.

It exits 1 on any unreached line that no entry of ``tools/gate_allowlist.txt``
lists, and on any entry that lists no unreached line, so the list shrinks as
the gates grow. An entry names a line by module, innermost function and
stripped source text, not by number, so an edit elsewhere in the module keeps
it valid. Run it from the root of a checkout; it imports the package from
``src/`` and takes about 20 s on a 2-core VM.
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

GOLDEN = ROOT / "tests" / "golden"
# the gated bench passes, one per line: workload, seed, reports digest
BENCH_REPORTS = GOLDEN / "bench-reports.txt"
# the golden CLI runs, one per line after the comments: directory, arguments
GOLDEN_RUNS = GOLDEN / "cli-runs.txt"
# the unreached lines that may stay so: module, function, stripped line, reason
ALLOWLIST = ROOT / "tools" / "gate_allowlist.txt"


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
    from campaign_reports import campaign_digest
    from gate_reports import gate_runs

    for line in BENCH_REPORTS.read_text(encoding="utf-8").splitlines():
        workload, seed, _ = line.split()
        digest(bench_runs(workload, int(seed)))
    digest(gate_runs())
    campaign_digest()
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


def main() -> int:
    with LineCollector(PACKAGE) as seen:
        gated_runs()
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
    unlisted, stale = unlisted_and_stale(unreached, load_allowlist())
    for module, line, function, text in unlisted:
        print(f"unlisted: {module}:{line} {function}: {text}")
    for module, function, text in stale:
        print(f"stale entry: {module} {function}: {text}")
    print(f"{len(unlisted)} unlisted unreached lines, {len(stale)} stale allowlist entries")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
