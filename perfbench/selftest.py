#!/usr/bin/env python3
"""Tiny-scale self-test of the GroCoca benchmark.

    python3 perfbench/selftest.py

Runs every workload at a 40-host scale through perfbench/run.py and
checks that:
  * each result line names exactly the metrics and units BENCHMARK.json
    lists (end-to-end with --trace 0, per-layer with --trace 1);
  * the default seed passes its pinned digest with no failed operation,
    and so does another seed;
  * coca-n400 reports no directory and no signature work, and the
    GroCoca workloads report both;
  * a mismatched digest or a damaged resume snapshot fails every
    operation of the run;
  * a directory holding only BENCHMARK.json and the benchmark exits
    non-zero without printing a result.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 1

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def run(cwd, *args):
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return p.returncode, result


def bench(workload, seed, trace, *extra):
    rc, result = run(ROOT, "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--tiny", *extra)
    check(rc == 0 and result is not None, f"{workload} trace {trace} {extra}: exit {rc}")
    return result or {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def main():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        for w in WORKLOADS:
            for seed in (DEFAULT_SEED, 7):
                r = bench(w, seed, trace)
                label = f"{w} seed {seed} trace {trace}"
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                check(got == want, f"{label}: metrics {sorted(got)} are not {section}")
                check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                      f"{label}: correct={r['correct']} failed={r['failed']}")
                if section == "end_to_end":
                    check(all(v["value"] > 0 for v in r["metrics"].values()),
                          f"{label}: an end-to-end metric reads 0")
                    continue
                m = {k: v["value"] for k, v in r["metrics"].items()}
                gc = w != "coca-n400"
                for name in ("tcg.record_access_calls", "sig.messages"):
                    check((m.get(name, 0) > 0) == gc, f"{label}: {name} = {m.get(name)}")
                check(m.get("mob.reach_mismatches") == 0, f"{label}: replayed reach differs")

    for tamper in ("digest", "resume"):
        for trace in (0, 1):
            r = bench("gc-n400", DEFAULT_SEED, trace, "--tamper", tamper)
            check(not r["correct"] and r["failed"] == r["attempted"] > 0,
                  f"--tamper {tamper} trace {trace}: correct={r['correct']} "
                  f"failed={r['failed']} of {r['attempted']}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, result = run(bare, "--workload", WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        check(rc != 0 and result is None, f"bare directory: exit {rc}, result {result}")

    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
