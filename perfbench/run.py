#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload corpus-batch --seed 42 --seconds 20 --trace 0

Run from the repository root.  Builds bin/hlsc.exe and the benchmark
driver (perfbench/perfbench.exe) with dune, then runs the driver, whose
last line of standard output is the JSON result.  Exit status: the
driver's (0 ok, 1 an output check failed), or 2 when the checkout is
incomplete or the build fails, in which case no result is printed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("corpus-batch", "serve-mix", "fleet-sweep", "all")
BUILD_TIMEOUT_S = 850


def run_timeout_s(workload, seconds):
    """Time allowed for the driver: per workload a fixed allowance for
    set-up and output checks, plus a multiple of --seconds for the timed
    loop and the checks that grow with it (120 s at --seconds 20)."""
    n = len(WORKLOADS) - 1 if workload == "all" else 1
    return n * (40 + 4 * seconds)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    for path in ("dune-project", "bin", "lib", os.path.join("corpus", "manifest.tsv")):
        if not os.path.exists(path):
            return fail("%s is missing: run from the root of a full checkout" % path)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        return fail("neither dune nor opam is on PATH")

    # The shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "bin/hlsc.exe", "perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if build.returncode != 0:
        return fail("build failed")

    build_dir = os.path.join("_build", "default")
    cmd = [os.path.join(build_dir, "perfbench", "perfbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--hlsc", os.path.join(build_dir, "bin", "hlsc.exe")]
    sys.stdout.flush()
    # Own process group: a timeout takes the driver's daemons down with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=run_timeout_s(args.workload, args.seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail("run timed out")


if __name__ == "__main__":
    sys.exit(main())
