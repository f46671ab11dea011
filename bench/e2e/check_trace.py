#!/usr/bin/env python3
"""Traced smoke leg: runs every workload small with spans on, then checks
that the span file parses as Chrome trace-event JSON and carries every
per-layer metric BENCHMARK.json names, for every workload.

    check_trace.py CAUSEWAY_BENCH BENCHMARK_JSON WORKDIR
"""
import json
import os
import subprocess
import sys


def main():
    bench, spec_path, workdir = sys.argv[1:4]
    os.makedirs(workdir, exist_ok=True)
    trace_path = os.path.join(workdir, "BENCH_trace.json")
    rc = subprocess.run([bench, "--workload=all", "--smoke", "--seed=1",
                         "--workdir=" + workdir, "--trace=" + trace_path],
                        stdout=subprocess.DEVNULL, check=False).returncode
    if rc != 0:
        sys.exit("causeway_bench exited with status %d" % rc)
    with open(trace_path) as f:
        trace = json.load(f)
    with open(spec_path) as f:
        spec = json.load(f)

    problems = []
    events = trace.get("traceEvents", [])
    if not events:
        problems.append("no trace events")
    for e in events:
        if e.get("ph") != "X" or not {"name", "ts", "dur", "pid", "tid",
                                      "args"} <= set(e):
            problems.append("malformed event: %r" % e)
            break
        if not {"span", "parent", "request", "count"} <= set(e["args"]):
            problems.append("event without span/parent/request/count: %r" % e)
            break
    workloads = trace.get("otherData", {}).get("workloads", {})
    for w in spec["workloads"]:
        got = workloads.get(w["name"], {}).get("per_layer", {})
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in got]
        if missing:
            problems.append("%s lacks %s" % (w["name"], ", ".join(missing)))
    for p in problems:
        print(p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
