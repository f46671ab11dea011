#!/usr/bin/env python3
"""Builds causeway_bench from the surrounding checkout and runs one workload.

    python3 bench/e2e/run.py --workload live --seed 1 --seconds 10 --trace 0

The benchmark is a CMake package of its own (bench/e2e/CMakeLists.txt) that
compiles the repository's libraries from source; it is configured Release
into build-bench/ at the checkout root on first use and rebuilt
incrementally after that.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with every
end-to-end metric BENCHMARK.json lists (--trace 0) or every per-layer metric
(--trace 1, a traced run whose spans go to build-bench/work/).

Exit status is non-zero, with no result line, when the build or the run
fails; it is 1, after the result line, when a correctness check failed.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
# Relative to ROOT, where the benchmark runs: unix socket paths live under
# it, and sockaddr_un holds only 108 bytes, however deep the checkout is.
WORKDIR = os.path.join("build-bench", "work")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no causeway sources at %s; the benchmark builds them" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            rc, _ = run_bounded(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
            if rc != 0:
                fail("configure failed")
        jobs = str(os.cpu_count() or 1)
        rc, _ = run_bounded(["cmake", "--build", BUILD, "--target",
                             "causeway_bench", "-j", jobs],
                            BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            fail("build failed")


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(os.path.join(ROOT, WORKDIR), exist_ok=True)
    cmd = [os.path.join(BUILD, "causeway_bench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--workdir=" + WORKDIR]
    if args.trace:
        cmd += ["--trace=" + os.path.join(
                    WORKDIR, "BENCH_trace-%s.json" % args.workload),
                "--trace-only"]
    rc, out = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          cwd=ROOT, text=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if rc not in (0, 1):
        fail("causeway_bench exited with status %d" % rc)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("causeway_bench printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    names = expected_metrics(args.trace)
    missing = [m for m in names if m not in result["metrics"]]
    if missing:
        fail("result lacks metrics: " + ", ".join(missing))
    result["metrics"] = {m: result["metrics"][m] for m in names}
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(rc)


if __name__ == "__main__":
    main()
