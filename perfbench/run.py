"""The sweil benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 20 --trace 0

A run times repeated passes over the workload's jobs in this process for
``--seconds`` seconds (closed loop, one client, one thread), checks every
job's exit code and report bytes against ``perfbench/reference.json``
(and, on ``defects``, that each suite FAILs with a witness that replays),
and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  Peak memory is measured
with ``tracemalloc`` on an untimed pass after the warm-up pass.
Set-up time comes from fresh interpreters started before the timed loop.
Every pass time is scaled to a nominal host speed measured by a
calibration kernel timed just before and after it (see ``calibrate``),
and every set-up time by a reference interpreter started just before and
after it (see ``setup_samples``); the raw medians are in the line before
the result.

``--trace 1`` alternates untraced passes with passes run under the
per-layer hooks of ``tracing.py``, and reports per-pass layer counts and
self times, the tracing overhead, and the hook guard.

The metric names are those of ``BENCHMARK.json``; a run whose metrics
differ from that list stops with an error.  The line before the result
records the environment, the seed, the jobs, the pass count and the tail
percentile.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np

from envinfo import ROOT, SRC, environment

perf = time.perf_counter
HERE = ROOT / "perfbench"
# fresh interpreters per run for setup_s, each between two reference ones
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
# Nominal times of calibrate() and of the reference interpreter, about
# their medians on the 2-core machine the baseline was taken on; timings
# are reported at this host speed.
CALIBRATION_S = 0.021
REFERENCE_S = 0.42
# The reference interpreter imports what sweil's modules import and runs
# no sweil code, so a change to sweil cannot move it.
REFERENCE_IMPORTS = "import argparse, csv, dataclasses, fractions, json, numpy, scipy.sparse"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- fresh-interpreter samples -----------------------------------------


def _interpreter(args) -> float:
    """Wall seconds from spawning ``python3 ARGS`` to the ``perf_counter``
    reading it prints last (CLOCK_MONOTONIC, shared by every process on
    the machine), or to its exit when it prints nothing."""
    t0 = perf()
    out = subprocess.run(
        [sys.executable, *args], stdout=subprocess.PIPE, check=True, cwd=ROOT
    ).stdout.split()
    return (float(out[-1]) if out else perf()) - t0


def setup_samples(workload: str, seed: int) -> tuple:
    """(scaled, raw) set-up seconds of SETUP_SAMPLES fresh interpreters.

    Set-up is mostly imports, whose speed on a shared host follows the
    host more closely than any compute kernel does.  So each sample runs
    between two reference interpreters that only import the same
    libraries, and is scaled by REFERENCE_S over their mean.  On the host
    this was written on, the raw medians of four runs of ten samples each
    ranged over 0.45-0.58 s, and the scaled ones over 3%."""
    child = [str(HERE / "child.py"), workload, str(seed)]
    reference = ["-c", REFERENCE_IMPORTS]
    _interpreter(child)  # warm the bytecode and page caches; discarded
    refs = [_interpreter(reference)]
    raw = []
    for _ in range(SETUP_SAMPLES):
        raw.append(_interpreter(child))
        refs.append(_interpreter(reference))
    scaled = [r * 2 * REFERENCE_S / (a + b) for r, a, b in zip(raw, refs, refs[1:])]
    return scaled, raw


# -- checks ------------------------------------------------------------


class Checker:
    """Compares each job execution with the reference; a defect job's
    report is also replayed once per distinct report."""

    def __init__(self, workloads, reference: dict):
        self.w = workloads
        self.reference = reference
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _problems(self, job, rc: int, sha: str, data: bytes) -> list:
        ref = self.reference.get(job.name)
        if ref is None:
            return [f"{job.name}: no reference"]
        out = []
        if (rc, sha) != (ref["exit_code"], ref["sha256"]):
            out.append(f"{job.name}: exit {rc} / report {sha[:12]} differs from reference")
        elif job.replay is not None:
            out.extend(self.w.check_defect_report(job, data))
        return out

    def record(self, job, rc: int, data: bytes):
        """One job execution and its report bytes."""
        sha = self.w.digest(data)
        key = (job.name, rc, sha)
        if key not in self.verdicts:
            self.verdicts[key] = self._problems(job, rc, sha, data)
            self.problems.extend(self.verdicts[key])
        self.attempted += 1
        self.failed += bool(self.verdicts[key])

    def fail(self, problem: str):
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


# -- timed passes ------------------------------------------------------


def calibrate() -> float:
    """Time a fixed mix of exact-fraction, dict, int and numpy integer
    work, like sweil's own hot loops but using no sweil code.

    The shared host this benchmark was written on changes speed by up to a
    third within seconds and drifts over minutes, and a pass slows with
    it.  Timing this kernel before and after every pass measures the speed
    the pass ran at; each pass time is scaled by CALIBRATION_S over the
    mean of the two.  On that host the raw median pass times of eight
    15-second runs of one workload spread by 0.26 (interquartile distance
    over median); scaled, ten-run sets of every workload spread by
    0.03-0.07.  A change to sweil cannot move the kernel."""
    t0 = perf()
    acc = {}
    for i in range(2500):
        k = (i % 37, i % 11)
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 13 + 1, i % 17 + 1)
    sorted(acc.items())
    counts = {}
    for i in range(30000):
        k = i * 7919 % 4093
        counts[k] = counts.get(k, 0) + i * i % 1000003
    a = np.arange(20000, dtype=np.int64) * 2654435761 % 1000003
    for _ in range(4):
        order = np.argsort(a, kind="stable")
        np.add.reduceat(a[order], np.arange(0, 20000, 16))
    return perf() - t0


def speed(before: float, after: float) -> float:
    """Scale factor to the nominal host speed from the calibrations taken
    just before and just after a timed interval."""
    return 2 * CALIBRATION_S / (before + after)


def memory_pass(jobs, checker) -> float:
    """Run one pass with tracemalloc on; the most memory, in MB, that one
    job allocated above what was held when it started."""
    tracemalloc.start()
    peaks = []
    try:
        for job in jobs:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            rc, data = job.call()
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            checker.record(job, rc, data)
    finally:
        tracemalloc.stop()
    return max(peaks) / 2**20


def run_pass(jobs, checker):
    t0, c0 = perf(), time.process_time()
    outs = [job.call() for job in jobs]
    wall, cpu = perf() - t0, time.process_time() - c0
    for job, (rc, data) in zip(jobs, outs):
        checker.record(job, rc, data)
    return wall, cpu


def timed_passes(jobs, checker, seconds: float):
    """Closed loop of passes for ``seconds`` with a calibration between
    passes: (walls, cpus, speeds), one entry per pass."""
    walls, cpus, calib = [], [], [calibrate()]
    start = perf()
    while not walls or perf() - start < seconds:
        wall, cpu = run_pass(jobs, checker)
        calib.append(calibrate())
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus, [speed(a, b) for a, b in zip(calib, calib[1:])]


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile).  With fewer than 2 * TAIL_BEYOND + 1 samples that
    percentile would lie below the median, so the median is reported."""
    s = sorted(values)
    n = len(s)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(s), 50.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, jobs, checker, info):
    run_pass(jobs, checker)  # warm-up pass: checked, not timed
    peak_mem = memory_pass(jobs, checker)
    setup, raw_setup = setup_samples(workload, seed)
    walls, cpus, speeds = timed_passes(jobs, checker, seconds)
    scaled = [w * s for w, s in zip(walls, speeds)]
    tail_value, pct = tail(scaled)
    info.update(
        passes=len(walls),
        tail_percentile=round(pct, 1),
        setup_samples=len(setup),
        speed_scale=statistics.median(speeds),
        raw_wall_s=statistics.median(walls),
        raw_setup_s=statistics.median(raw_setup),
    )
    return {
        "wall_s": metric(statistics.median(scaled), "s"),
        "wall_s_tail": metric(tail_value, "s"),
        "cpu_s": metric(statistics.median(c * s for c, s in zip(cpus, speeds)), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_mem_mb": metric(peak_mem, "MB"),
    }


def per_layer(workload, seconds, jobs, checker, info, names):
    """Alternate untraced and traced passes for ``seconds``, so both halves
    see the same host speed; the difference of their medians is the
    tracing overhead."""
    import tracing

    unknown = set(names) - tracing.known_metrics() - {"trace.overhead_s"}
    if unknown:
        raise SystemExit(f"error: no hook reports {', '.join(sorted(unknown))}")
    run_pass(jobs, checker)  # warm-up pass: checked, not timed
    tracer = tracing.Tracer()
    walls, traced = [], []
    start = perf()
    while not traced or perf() - start < seconds:
        walls.append(run_pass(jobs, checker)[0])
        try:
            tracer.install()
        except tracing.HookError as exc:
            checker.fail(str(exc))
            return {}
        try:
            with tracer.span("pass"):
                traced.append(run_pass(jobs, checker)[0])
        finally:
            tracer.uninstall()
        tracer.drain()
    n = len(traced)
    out = {name: metric(tracer.value(name) / n, unit) for name, unit in names.items()}
    out["trace.overhead_s"] = metric(
        statistics.median(traced) - statistics.median(walls), "s"
    )
    for problem in tracing.guard(workload, tracer.counts):
        checker.fail(problem)
    info.update(passes=len(walls), traced_passes=n)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sweil" / "__init__.py").is_file():
        print(f"error: sweil sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as w

    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    reference = json.loads((HERE / "reference.json").read_text())["jobs"]
    jobs = w.build(args.workload, args.seed)
    checker = Checker(w, reference)
    info = {"workload": args.workload, "jobs": [j.name for j in jobs]}
    if args.trace:
        metrics = per_layer(args.workload, args.seconds, jobs, checker, info, names)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, jobs, checker, info)
    produced = {k: v["unit"] for k, v in metrics.items()}
    if metrics and produced != names:
        print(f"error: metrics {produced} differ from BENCHMARK.json {names}",
              file=sys.stderr)
        return 2
    info["error_rate"] = checker.failed / checker.attempted
    info["environment"] = environment(args.seed)
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
