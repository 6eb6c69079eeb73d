"""One sha256 over what the golden campaign writes and what summarize reads back.

    python3 tools/campaign_reports.py

Runs ``pareto-trm campaign`` on ``tests/golden/campaign.json`` serially, with
its ``output_dir`` moved to a temporary directory, then ``pareto-trm
summarize`` on that directory, and prints the sha256 of, in order: the
campaign's ``summary.csv``, the ``summary.csv`` that summarize regenerates, and
every run's ``report.json``, ``iterations.csv`` and ``db.csv`` (the ``FILES`` of
``tools/bench_reports.py``), run directory after run directory in sorted
order. A campaign that fails, or any of whose runs fails, is an error (exit
1). ``tests/golden/campaign-reports.txt`` holds the committed digest. Run it
from the root of a checkout; it imports the package from ``src/`` and takes
about 3 s on a 2-core VM.
"""

from __future__ import annotations

import os

# first: it sets one BLAS thread before numpy loads, and puts src/ on the path
from bench_reports import FILES, ROOT

# serially: the bytes must not depend on a process pool, and the cells of a
# pool would run outside the process that tools/gate_coverage.py traces
os.environ["PARETO_TRM_THREADS"] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from pareto_trm.cli import main as cli_main

CONFIG = ROOT / "tests" / "golden" / "campaign.json"


def campaign_digest() -> str:
    """Run the golden campaign and summarize in a temporary directory; the
    sha256 of the files they write."""
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args:
        print("usage: python3 tools/campaign_reports.py", file=sys.stderr)
        return 1
    print(campaign_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
