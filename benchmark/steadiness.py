#!/usr/bin/env python3
"""Run-to-run steadiness of the failsig benchmark.

    python3 benchmark/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--seconds S] [--out FILE]

Run from the repository root. Runs every workload (or the listed ones)
--runs times, each with the next seed, through the command in
BENCHMARK.json. For every end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, and flags any metric whose spread exceeds its bound. It also
checks that every run is correct and that the failed share of attempted
operations is identical across the runs of a workload. Exit
status 0 iff nothing was flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]

    flagged = []
    summary = {}
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(spec, workload, seed, seconds)
            results.append(r)
            print(f"{workload} seed={seed} correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1:
            flagged.append(f"{workload}: failed share differs between runs: {sorted(shares)}")
        if not all(r["correct"] for r in results):
            flagged.append(f"{workload}: a run reported correct=false")
        print(f"\n{workload}: {args.runs} runs, {seconds:g} s each, failed share "
              f"{sorted(shares)}")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        summary[workload] = {}
        for name in sorted(bounds):
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if spread > bounds[name]:
                mark = "  EXCEEDS BOUND"
                flagged.append(f"{workload}: {name} spread {spread:.3f} > {bounds[name]}")
            elif spread > bounds[name] / 3:
                mark = "  above a third of its bound"
            print(f"  {name:36} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
                  f"{bounds[name]:6.2f}{mark}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "values": values}
        print()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    for line in flagged:
        print("FLAGGED:", line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
