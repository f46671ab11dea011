#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 bench/e2e/spread.py [--workloads live,fan-in,query,mixed]
                                [--runs 10] [--sets 2] [--seconds 10]

Runs every workload `--runs` times per set, each run with another --seed,
alternating between the sets (set k uses seeds k*1000+1, k*1000+2, ...).
For each metric it prints every set's median and its spread -- the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median -- and how far each later set's median moved from the first
set's in the metric's worse direction, next to the bound BENCHMARK.json
fixes.  A spread above a third of the bound, or a shift above the bound,
is flagged with '!'.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False).stdout
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: a correctness check failed" %
                         (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="live,fan-in,query,mixed")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--raw", help="also write every run's metrics here")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    raw = {}
    for workload in args.workloads.split(","):
        runs = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                runs[s].append(one_run(workload, s * 1000 + i + 1, seconds))
        raw[workload] = runs
        if args.raw:
            with open(args.raw, "w") as f:
                json.dump(raw, f, indent=1)
        print("## %s (%d runs x %d sets, %d s)" %
              (workload, args.runs, args.sets, seconds))
        head = "| metric | bound |" + "".join(
            " set %d median | set %d spread |" % (s + 1, s + 1)
            for s in range(args.sets)) + " worst shift |"
        print(head)
        print("|" + "---|" * (2 + 2 * args.sets + 1))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells = []
            medians = []
            for s in range(args.sets):
                med, sp = spread([r[name] for r in runs[s]])
                medians.append(med)
                flag = "!" if sp > bound / 3 and name != "setup_s" else ""
                cells.append(" %.6g | %.1f%%%s |" % (med, sp * 100, flag))
            sign = 1 if m["better"] == "lower" else -1
            shift = max((sign * (x - medians[0]) / medians[0]
                         for x in medians[1:]), default=0.0)
            flag = "!" if shift > bound else ""
            print("| %s | %g |%s %+.1f%%%s |" %
                  (name, bound, "".join(cells), shift * 100, flag))
        print()
        sys.stdout.flush()


if __name__ == "__main__":
    main()
