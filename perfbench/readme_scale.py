"""One-shot record of the seven README CLI examples at their README sizes.

Runs each line once in a fresh interpreter and writes wall time, exit
code, report-bytes digest and peak resident memory to
``perfbench/readme_scale.json``.  This is a reproducible source for the
ROADMAP baseline table; it is not a benchmark workload and feeds no gate.
The whole record takes several minutes (the ``verify-s2a`` line alone is
about five).

    python3 perfbench/readme_scale.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

from envinfo import ROOT, environment

README_LINES = (
    "verify-n2 --backend fmu:1/2:0 --emax 3 --b0max 2 --window 2",
    "verify-s2a --backend loop:sl2 --alpha 0 --emax 3 --b0max 2 --window 2 --format json",
    "verify-chain --backend witt --emax 3 --b0max 2 --window 2",
    "verify-relative --backend loop:sl2 --emax 3 --b0max 2 --window 2",
    "sca-tables --alpha 1/2 --window 3",
    "cohomology --backend loop:abelian:1 --rel --emax 2 --format csv",
    "kahler --backend loop:sl2 --emax 2 --format text",
)


def run_line(line: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "sweil.cli", *line.split()]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "line": f"sweil {line}",
        "wall_s": round(wall, 3),
        "exit_code": proc.returncode,
        "sha256": hashlib.sha256(out).hexdigest(),
        "report_bytes": len(out),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
    }


def main() -> int:
    records = []
    for line in README_LINES:
        rec = run_line(line)
        print(json.dumps(rec), flush=True)
        records.append(rec)
    doc = {"environment": environment(seed=None), "runs": records}
    path = ROOT / "perfbench" / "readme_scale.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
