"""The scripts in tools/ run as documented: each is started the way its
docstring says, as a separate process from the root of a checkout."""

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


def test_gate_reports_match_their_committed_digest():
    # the R^n library runs no bench run reaches; CI runs the same comparison
    out = _tool("gate_reports.py")
    assert out.returncode == 0, out.stderr
    golden = (ROOT / "tests" / "golden" / "gate-reports.txt").read_text(encoding="utf-8")
    assert out.stdout == golden


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
