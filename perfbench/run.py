#!/usr/bin/env python3
"""Builds and runs the bpfree end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds the library sources under src/ and the
benchmark into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when
that names a directory inside the checkout); later runs only rebuild what
changed. The benchmark's standard output is passed through: its last line
is the result object. Trace stores and span files stay inside the build
directory. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.realpath(os.path.join(ROOT, base))
    if os.path.commonpath([base, ROOT]) != ROOT:
        base = os.path.join(ROOT, ".bench_build")
    return os.path.join(base, "perfbench")


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log) as f:
                tail = f.read()[-4000:]
            sys.stderr.write(tail + "\nperfbench: build failed (log: %s)\n" % log)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests instead")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        return 1
    pinned = os.path.join(HERE, "expected", "pinned.tsv")
    if args.selftest:
        cmd = [os.path.join(bdir, "perfbench_selftest"), "--pinned", pinned,
               "--store-dir", os.path.join(bdir, "stores", "selftest")]
    else:
        tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
        cmd = [os.path.join(bdir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--pinned", pinned,
               "--store-dir", os.path.join(bdir, "stores", tag)]
        if args.trace:
            cmd += ["--spans", os.path.join(bdir, "spans-%s.json" % tag)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
