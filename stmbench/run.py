#!/usr/bin/env python3
"""Builds and runs stmbench, the repository's standing benchmark.

    python3 stmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 stmbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]
    python3 stmbench/run.py --self-test

The first form runs one workload and prints, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1 (a
traced run also writes a Chrome trace-event file under .bench_build/traces/).
The second runs every workload of BENCHMARK.json and prints each metric by
name with its unit; hash-write and kv-read-snapshot run only by name.
The third runs the benchmark's own checks. The C++ load generator is built
from the repository's sources into .bench_build/stmbench on first use.
stmbench/README.md documents the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "stmbench")
BINARY = os.path.join(BUILD, "stmbench")
WORKLOADS = ["kv-read", "kv-write-wide", "skiplist-read"]
# Not in BENCHMARK.json, so they run by name only, not with "all"; README.md
# says why.
BY_NAME_ONLY = ["hash-write", "kv-read-snapshot"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the load generator; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "svc", "kv_store.h")):
        log("stmbench: repository sources (src/) not found next to stmbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                    text=True, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"stmbench: {' '.join(cmd)}: {e}")
            return False
        if result.returncode != 0:
            log(result.stdout)
            log(f"stmbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns the parsed result object or None."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"stmbench: {workload}: {e}")
        return None
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(f"stmbench: {workload} exited with code {result.returncode}")
        return None
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"stmbench: {workload}: last line is not JSON")
        return None
    want = expected_metrics(trace)
    if want is not None and sorted(want) != sorted(out["metrics"]):
        log(f"stmbench: {workload}: metrics differ from BENCHMARK.json")
        return None
    return out


def print_table(workload, out):
    ratio = out["failed"] / out["attempted"] if out["attempted"] else 0.0
    print(f"\n{workload}: correct={out['correct']} attempted={out['attempted']} "
          f"failed={out['failed']} failed_op_ratio={ratio:.3g}")
    for name, m in out["metrics"].items():
        print(f"  {name:36s} {m['value']:>18.6g} {m['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + BY_NAME_ONLY + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload or --self-test is required")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be within 1..60")
    if not build():
        return 1
    if args.self_test:
        return subprocess.run([BINARY, "--self-test"], timeout=RUN_TIMEOUT_S).returncode
    if args.workload != "all":
        out = run_one(args.workload, args.seed, args.seconds, args.trace == 1)
        if out is None:
            return 1
        print(json.dumps(out))
        return 0
    status = 0
    for w in WORKLOADS:
        out = run_one(w, args.seed, args.seconds, args.trace == 1)
        if out is None:
            status = 1
            continue
        print_table(w, out)
    return status


if __name__ == "__main__":
    sys.exit(main())
