#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every workload and end-to-end metric: the median over the runs and the
spread, the distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Run from the root of a checkout:

  python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

--out writes the per-run values, medians and spreads with the machine
record as JSON (committed result sets go under perfbench/results/).
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(l[len("machine: "):]) for l in lines
                    if l.startswith("machine: ")), None)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1]), machine


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for w in workloads:
        runs = []
        for seed in seeds:
            result, machine = run(w, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit("%s seed %d: outputs incorrect" % (w, seed))
            runs.append(result["metrics"])
            summary["machine"] = machine
        entry = {}
        print("%s (%d seeds)" % (w, len(seeds)))
        for name in bounds:
            values = [r[name]["value"] for r in runs]
            med, sp = spread(values)
            entry[name] = {"median": med, "spread": sp, "values": values,
                           "unit": runs[0][name]["unit"]}
            flag = "" if sp <= bounds[name] / 3 else (
                "  > bound/3" if sp <= bounds[name] else "  > BOUND")
            print("  %-16s median %14.6g %-5s spread %6.1f%%  bound %4.0f%%%s"
                  % (name, med, entry[name]["unit"], sp * 100,
                     bounds[name] * 100, flag))
        summary["workloads"][w] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
