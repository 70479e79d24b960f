"""Run the benchmark several times per workload and record the spread.

Runs ``run.py`` untraced once per seed on every workload, in ``--sets``
consecutive sets of ``--runs`` seeds each (set k starts at seed
``--first-seed + 1000 k``).  For each set it prints and records each
end-to-end metric's median, quartiles and spread (interquartile distance
as a share of the median) next to its bound from ``BENCHMARK.json``, and
for each later set how far its median moved from the first set's.  One
traced run per workload adds the per-layer numbers and each layer's share
of the hooked self time.  Everything goes to ``perfbench/baseline.json``.

    python3 perfbench/baseline.py --runs 10 --sets 2
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from envinfo import ROOT, environment


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{out.stderr}")
    return {"info": info, "result": result}


def summarize(workload: str, runs: list, bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": bound,
            "values": values,
        }
        print(f"{workload:10s} {name:12s} median {med:.4f} "
              f"spread {(q3 - q1) / med:.3f} (bound {bound})", flush=True)
    return out


def shares(per_layer: dict) -> dict:
    """Each layer's share of the summed self seconds of all hooked layers."""
    self_s = {
        k: v for k, v in per_layer.items()
        if k.endswith("_s") and k != "trace.overhead_s" and v > 0
    }
    total = sum(self_s.values())
    return {k: round(v / total, 3) for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    doc = {
        "environment": environment(seed=None),
        "runs": args.runs,
        "workloads": {w: {"sets": []} for w in names},
    }
    for k in range(args.sets):
        first = args.first_seed + 1000 * k
        seeds = list(range(first, first + args.runs))
        for workload in names:
            runs = [run(workload, s, seconds, 0) for s in seeds]
            doc["workloads"][workload]["sets"].append({
                "seeds": seeds,
                "passes": [r["info"]["passes"] for r in runs],
                "tail_percentile": [r["info"]["tail_percentile"] for r in runs],
                "speed_scale": [r["info"]["speed_scale"] for r in runs],
                "end_to_end": summarize(workload, runs, bounds),
            })
    for workload in names:
        entry = doc["workloads"][workload]
        first = entry["sets"][0]["end_to_end"]
        for later in entry["sets"][1:]:
            for name, bound in bounds.items():
                moved = later["end_to_end"][name]["median"] / first[name]["median"] - 1
                later["end_to_end"][name]["moved_from_first_set"] = moved
                print(f"{workload:10s} {name:12s} second set moved {moved:+.3f} "
                      f"(bound {bound})", flush=True)
        traced = run(workload, args.first_seed, seconds, 1)
        entry["per_layer"] = {
            k: v["value"] for k, v in traced["result"]["metrics"].items()
        }
        entry["self_time_shares"] = shares(entry["per_layer"])
    (ROOT / "perfbench" / "baseline.json").write_text(
        json.dumps(doc, indent=2) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
