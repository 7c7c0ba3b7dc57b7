#!/usr/bin/env python3
"""Build and run the failsig benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds benchmark/ (which compiles the
repository's src/ next to failsig_bench) into $CARGO_TARGET_DIR or .bench_build,
runs the checker self-test, then runs one workload. failsig_bench's last stdout
line is the result: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the spans and per-layer metrics also go to
<build dir>/traces/<workload>-seed<N>.json.

Workloads: saturate-small, explore-churn.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("saturate-small", "explore-churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds failsig_bench and the checker self-test."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    logfile = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(logfile, "a") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                return False
        rc = subprocess.call(
            ["cmake", "--build", build_dir, "-j", jobs, "--target", "failsig_bench",
             "checker_selftest"],
            stdout=out, stderr=subprocess.STDOUT)
    return rc == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    build_dir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                             "failsig-bench")
    if not build(build_dir):
        log(f"build failed; see {os.path.join(build_dir, 'build.log')}")
        return 1

    selftest = subprocess.run([os.path.join(build_dir, "checker_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        log("checker self-test failed:\n" + selftest.stdout)
        return 1

    cmd = [os.path.join(build_dir, "failsig_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1


if __name__ == "__main__":
    sys.exit(main())
