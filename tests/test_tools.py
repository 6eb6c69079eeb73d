"""The scripts in tools/: pair_timing.py is started the way its docstring
says, as a separate process from the root of a checkout; the checks of
gates.py are called in process."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _tool(name, *args):
    return subprocess.run(
        [sys.executable, str(TOOLS / name), *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def _gates(monkeypatch):
    """tools/gates.py as a module; the path entries and environment variables
    it sets on import are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PARETO_TRM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("gates", TOOLS / "gates.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# CI's gate step runs these and the bench passes, under its line collector
def test_gate_reports_match_their_committed_digest(monkeypatch):
    gates = _gates(monkeypatch)
    golden = [row for row in gates.read_golden() if row[1].startswith("gate ")]
    assert gates.mismatches(golden, gates.gate_digests()) == []


def test_campaign_reports_match_their_committed_digest(monkeypatch):
    gates = _gates(monkeypatch)
    golden = [row for row in gates.read_golden() if row[1] == "campaign"]
    assert gates.mismatches(golden, {"campaign": gates.campaign_digest()}) == []


def test_gates_name_the_golden_line_of_a_wrong_digest(tmp_path, monkeypatch):
    gates = _gates(monkeypatch)
    golden = gates.read_golden()
    digests = {run_key: sha for _, run_key, sha in golden}
    number, run_key, sha = next(row for row in golden if row[1] == "gate rn-rbf")
    lines = gates.GATES.read_text(encoding="utf-8").splitlines()
    lines[number - 1] = f"{run_key} {'0' * 64}"
    wrong = tmp_path / "gates.txt"
    wrong.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert gates.mismatches(gates.read_golden(wrong), digests) == [
        f"gates.txt:{number}: gate rn-rbf {'0' * 64}: got {sha}"
    ]
    # a line that names no run, and a run that no line names
    del digests[run_key]
    assert gates.mismatches(golden, {**digests, "gate new": sha}) == [
        f"gates.txt:{number}: gate rn-rbf {sha}: no such run",
        f"no golden line: gate new {sha}",
    ]


def test_pair_timing_on_two_copies_of_one_tree_claims_nothing(tmp_path):
    # equal trees give equal outcomes (the tool exits 1 otherwise), and two
    # passes are too few for the measuring rule to back any claim
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (root / "perfbench").mkdir()
        shutil.copy(ROOT / "perfbench" / "workloads.py", root / "perfbench")
    out = _tool("pair_timing.py", *roots, "--workload", "fd-highdim", "--passes", "2")
    assert out.returncode == 0, out.stderr
    assert "no claim: 2 passes, a claim needs 10" in out.stdout.splitlines()[-1]


def test_gate_allowlist_entries_name_executable_lines_of_the_package(monkeypatch):
    # tools/gates.py fails on an entry whose line was edited or deleted; this
    # catches it without the gated runs
    cov = _gates(monkeypatch)
    lines = {
        (path.name, *owner_text)
        for path in cov.PACKAGE.glob("*.py")
        for owner_text in cov.executable_lines(path)[0].values()
    }
    assert sorted(set(cov.load_allowlist()) - lines) == []


def test_gate_coverage_fails_unlisted_lines_and_stale_entries(monkeypatch):
    cov = _gates(monkeypatch)
    check = ("steps.py", 50, "StepConfig.__post_init__", "raise ValueError(msg)")
    entry = ("steps.py", "StepConfig.__post_init__", "raise ValueError(msg)")
    allowlist = {entry: "argument check"}
    assert cov.unlisted_and_stale([check], allowlist) == ([], [])
    # the same text elsewhere in the function is listed by the same entry
    moved = ("steps.py", 61, *check[2:])
    assert cov.unlisted_and_stale([check, moved], allowlist) == ([], [])
    new = ("steps.py", 70, "compute_step", "return zero_step(center)")
    assert cov.unlisted_and_stale([check, new], allowlist) == ([new], [])
    assert cov.unlisted_and_stale([], allowlist) == ([], [entry])
