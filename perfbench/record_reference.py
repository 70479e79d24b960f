"""Record the reference verdicts the benchmark checks against.

Runs every job any workload can draw (all CLI lines, every perturbed
structure constant, the central-charge defect and every table flip) once
and writes each job's exit code and report digest to
``perfbench/reference.json``.  A defect job is recorded only if its suite
FAILs with witnesses that replay; otherwise nothing is written.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

from envinfo import ROOT, SRC, environment

sys.path.insert(0, str(SRC))

import workloads as w  # noqa: E402


def all_jobs():
    for lines in (w.RELATION_LINES, w.KAHLER_LINES, w.TABLE_LINES):
        for line in lines:
            yield w.cli_job(line)
    for a, b, k in w.constant_candidates():
        yield w.chain_defect_job(a, b, k)
    yield w.charge_defect_job()
    for pair in w.table_pairs():
        yield w.flip_defect_job(pair)


def main() -> int:
    jobs = {}
    problems = []
    for job in all_jobs():
        rc, data = job.call()
        if job.replay is not None:
            problems += w.check_defect_report(job, data)
            if rc != 1:
                problems.append(f"{job.name}: exit {rc}, expected 1")
        jobs[job.name] = {
            "exit_code": rc,
            "sha256": w.digest(data),
            "report_bytes": len(data),
        }
        print(f"{rc} {len(data):6d} {job.name}", flush=True)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 1
    doc = {"environment": environment(seed=None), "jobs": jobs}
    (ROOT / "perfbench" / "reference.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
