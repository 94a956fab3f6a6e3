#!/usr/bin/env python3
"""Records the benchmark's baseline: stmbench/baseline.json.

    python3 stmbench/baseline.py [--out stmbench/baseline.json]

It makes two sets of untraced runs, one after the other, each running every
workload once per seed (ten seeds per set, a different ten in each set) for
BENCHMARK.json's run_seconds. For every set it keeps the median and quartiles
of each end-to-end metric (statistics.quantiles, n=4) and their spread
(interquartile range over median), and it checks the two sets against
BENCHMARK.json's bounds: every spread but setup_s's within its bound, and the
second set's median no worse than the first's by more than the bound. Then it
makes one traced run per workload for the per-layer metrics. It also records
the host the figures were measured on.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

RUNS_PER_SET = 10
SETS = 2


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if result.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def host():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    l3 = ""
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            l3 = f.read().strip()
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "l3": l3}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def worsening(first, second, better):
    """Share of the first median by which the second is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = {"host": host(), "seconds": seconds, "sets": [], "workloads": {}}
    for s in range(SETS):
        seeds = list(range(1 + s * RUNS_PER_SET, 1 + (s + 1) * RUNS_PER_SET))
        entry = {"seeds": seeds, "workloads": {}}
        for w in WORKLOADS:
            values = {}
            attempted = failed = 0
            for seed in seeds:
                r = run(w, seed, seconds, 0)
                attempted += r["attempted"]
                failed += r["failed"]
                for name, m in r["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']}", file=sys.stderr,
                      flush=True)
            entry["workloads"][w] = {
                "attempted": attempted,
                "failed": failed,
                "end_to_end": {name: summarize(v) for name, v in values.items()},
            }
        out["sets"].append(entry)

    status = 0
    traced_seed = 1 + SETS * RUNS_PER_SET
    for w in WORKLOADS:
        first, second = (st["workloads"][w]["end_to_end"] for st in out["sets"][:2])
        checks = {}
        for name, m in metrics.items():
            worse = worsening(first[name]["median"], second[name]["median"], m["better"])
            spreads = [st["workloads"][w]["end_to_end"][name]["spread"] for st in out["sets"]]
            ok = worse <= m["bound"] and (name == "setup_s" or max(spreads) <= m["bound"])
            checks[name] = {"bound": m["bound"], "spreads": spreads,
                            "second_worse_by": worse, "within_bounds": ok}
            if not ok:
                status = 1
                print(f"{w} {name}: outside its bound {m['bound']}: spreads {spreads}, "
                      f"second median worse by {worse:.3f}", file=sys.stderr)
        traced = run(w, traced_seed, seconds, 1)
        out["workloads"][w] = {
            "agreement": checks,
            "per_layer": {"seed": traced_seed, "correct": traced["correct"],
                          "failed": traced["failed"], "metrics": traced["metrics"]},
        }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
