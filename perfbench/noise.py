#!/usr/bin/env python3
"""Noise record of the GroCoca benchmark: two interleaved sets of runs of
the same code per workload, and the spread of every end-to-end metric.

    python3 perfbench/noise.py [--runs 10] [--seconds 60] [--out perfbench/NOISE.json]

For each workload it runs set A (seeds 1..runs) and set B (seeds
101..100+runs) alternately, A1 B1 A2 B2 ..., through perfbench/run.py with
tracing off. Per set and metric it reports the median and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median; per metric it reports how far set B's median lies
from set A's. Every run must be correct with no failed operation. The raw
values and the summary are written to --out; the summary is also printed.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Unscaled figures each run prints on standard error, recorded beside the
# metrics (no bound: they show how much the speed probe removes).
HOST_VALUES = ("probe_s", "host_wall_s", "host_setup_s", "host_snapshot_s",
               "host_restore_s")


def run_once(workload, seed, seconds):
    t0 = time.time()
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{p.stderr[-2000:]}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # The unscaled host times and the speed probe, from standard error.
    host = re.search(r"speed probes, median ([\d.]+) s .*host medians: wall ([\d.]+) s, "
                     r"setup ([\d.]+) s, snapshot ([\d.]+) s, restore ([\d.]+) s", p.stderr)
    if host:
        for i, name in enumerate(HOST_VALUES, start=1):
            metrics[name] = float(host[i])
    return metrics, time.time() - t0


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--out", default=os.path.join(HERE, "NOISE.json"))
    args = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "command": "python3 perfbench/noise.py "
                   f"--runs {args.runs} --seconds {args.seconds}",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    for w in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, seed in (("A", 1 + i), ("B", 101 + i)):
                metrics, secs = run_once(w, seed, args.seconds)
                sets[name].append(metrics)
                print(f"{w} set {name} seed {seed}: {secs:.1f} s", file=sys.stderr)
        summary = {}
        for m in [*bounds, *(h for h in HOST_VALUES if h in sets["A"][0])]:
            a = [r[m] for r in sets["A"]]
            b = [r[m] for r in sets["B"]]
            (ma, sa), (mb, sb) = spread(a), spread(b)
            bound = bounds.get(m)
            summary[m] = {"median_a": ma, "spread_a": sa, "median_b": mb,
                          "spread_b": sb, "shift": abs(mb - ma) / ma,
                          "bound": bound, "a": a, "b": b}
            print(f"{w:10s} {m:20s} spread A {sa:7.2%} B {sb:7.2%} "
                  f"shift {abs(mb - ma) / ma:7.2%} bound {bound}")
        record["workloads"][w] = summary
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
