#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and prints, per
end-to-end metric, the median and the spread: the distance between the
first and third quartile as a share of the median, next to a third of
the metric's bound from BENCHMARK.json. It also prints how long the runs
took, and what 4 + 22 runs per workload of that length would take.

Run from the repository root:

    python3 e2ebench/spread.py [--seeds 10] [--workloads a,b] [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    durations = []
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            start = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            durations.append(time.monotonic() - start)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(last)
            if not result["correct"]:
                ok = False
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        for metric, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
            else:
                spread = 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            shown = f"{bound / 3:.3f}" if bound is not None else "-"
            print(f"{name:13} {metric:28} median {med:14.6g}  spread {spread:.3f}  (bound/3 {shown}){flag}")
            print("    " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()
    if durations:
        mean = statistics.mean(durations)
        runs = 4 + 22 * len(bench["workloads"])
        print(f"runs took {mean:.1f} s on average, {max(durations):.1f} s at most; "
              f"{runs} such runs take {runs * mean:.0f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
