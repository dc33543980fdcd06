#!/usr/bin/env python3
"""Steadiness self-check for the benchmark in BENCHMARK.json.

Runs each workload in two interleaved sets of --runs runs (set A, set B,
set A, ...), each run with its own seed, through the command and run
length in BENCHMARK.json. For every end-to-end metric it
prints per set the median and quartiles, the spread (quartile distance as
a share of the median) against the metric's bound, and how much worse set
B's median is than set A's against the same bound. It also prints the
spread over all 2 x --runs values. Exit code 1 when any check is over its
bound (the setup_s spread excepted, as the bounds only limit its drift).

    python3 perfbench/steadiness.py --runs 5
    python3 perfbench/steadiness.py --runs 3 --workloads feed-open
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Set A runs seeds FIRST_SEED, FIRST_SEED + 1, ...; set B starts 500 later.
FIRST_SEED = 1000


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stdout.write(proc.stdout)
        raise SystemExit("run reported correct=false: %s" % " ".join(cmd))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    stamp = next((json.loads(l[len("stamp "):]) for l in lines
                  if l.startswith("stamp ")), {})
    print("  %s seed %d: host steal %.3f busy %.3f | %s" % (
        workload, seed, stamp.get("host_steal_share", 0),
        stamp.get("host_busy_share", 0),
        " ".join("%s=%.5g" % (k, v) for k, v in values.items())), flush=True)
    return values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=5, help="runs per set")
    p.add_argument("--workloads", default="",
                   help="comma-separated subset (default: all)")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]

    ok = True
    for workload in names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for label, offset in (("A", 0), ("B", 500)):
                seed = FIRST_SEED + offset + i
                sets[label].append(run_once(spec, workload, seed, seconds, 0))
        print("\n== %s: %d + %d runs of %d s" % (workload, args.runs,
                                                  args.runs, seconds))
        print("%-22s %6s | %12s %12s %12s %7s | %12s %7s | %7s | %7s"
              % ("metric", "bound", "A q1", "A median", "A q3", "A sprd",
                 "B median", "B sprd", "B worse", "all spr"))
        for m in spec["end_to_end"]:
            a = [r[m["name"]] for r in sets["A"]]
            b = [r[m["name"]] for r in sets["B"]]
            a1, amed, a3, asp = spread(a)
            _, bmed, _, bsp = spread(b)
            _, _, _, allsp = spread(a + b)
            worse = worse_by(m, amed, bmed)
            bound = m["bound"]
            flags = []
            if m["name"] != "setup_s" and max(asp, bsp, allsp) > bound:
                flags.append("SPREAD")
            if worse > bound:
                flags.append("DRIFT")
            if max(asp, bsp, allsp) > bound / 3 and m["name"] != "setup_s":
                flags.append("(>1/3 bound)")
            ok &= not any(f in ("SPREAD", "DRIFT") for f in flags)
            print("%-22s %6.3f | %12.4g %12.4g %12.4g %7.4f | %12.4g %7.4f | "
                  "%7.4f | %7.4f %s"
                  % (m["name"], bound, a1, amed, a3, asp, bmed, bsp, worse,
                     allsp, " ".join(flags)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
