#!/usr/bin/env python3
"""Build the GroCoca benchmark from source and run one workload.

    python3 perfbench/run.py --workload gc-n400 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. It builds the `perfbench` cargo
package (a workspace of its own that depends on the simulator crates by
path) in release mode, runs it with the arguments given, and passes its
output through; the last line of standard output is the JSON result.
Cargo's target directory is `$CARGO_TARGET_DIR`, or `.bench_build` at the
root of the checkout when that is unset.

It exits non-zero without printing a result when the simulator sources
are not there, when the build fails, or when the run fails or overruns.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room to report the failure.
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the simulator sources (crates/) are missing", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "grococa-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run overran {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        return run.returncode
    sys.stdout.write(run.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
