#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --feed-open-rate 12000 --workload feed-open \
        --seed 1 --seconds 10 --trace 0

--workload is feed-open, feed-closed, replay-trace, or all (each in turn).
With --trace 0 the last line of standard output is one JSON object holding
every end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric instead. Lines before it carry the program's output
checks, a host stamp and, for traced runs, the per-layer self-time table.
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build).
--feed-open-rate, feed-open's offered load, comes from the command line in
BENCHMARK.json; the other settings are constants in src/support.h. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("feed-open", "feed-closed", "replay-trace")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Every run, the first included, must finish within these.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--feed-open-rate", type=float, required=True,
                   help="feed-open offered load, ops/s")
    return p.parse_args(argv)


def source_root():
    root = os.path.dirname(BENCH_DIR)
    if not os.path.isdir(os.path.join(root, "src")):
        fail("no library sources next to perfbench/ (expected %s)"
             % os.path.join(root, "src"))
    return root


def build(root):
    """Configures once, then builds incrementally; returns the binary."""
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as e:
            fail("build failed: %s" % e)
    return os.path.join(build_dir, "perfbench")


def commit_of(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def run_workload(binary, args, workload):
    """Runs the program; returns its result object (None if it crashed)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rate", repr(args.feed_open_rate)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print("perfbench: %s exited with %d" % (workload, proc.returncode),
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def select_metrics(raw, spec, trace):
    """Picks the metrics BENCHMARK.json names, attaching their units.

    Every workload reports every end-to-end metric; a missing one fails the
    run. A per-layer metric of a layer the workload does not exercise
    (the wire on replay-trace, telemetry sums on the feed workloads) is
    reported as 0 and listed as n/a.
    """
    names = spec["per_layer" if trace else "end_to_end"]
    metrics, missing, not_applicable = {}, [], []
    for m in names:
        value = raw["metrics"].get(m["name"])
        if value is None and trace:
            not_applicable.append(m["name"])
            value = 0
        if value is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, missing, not_applicable


def cpu_jiffies():
    """Aggregate /proc/stat CPU counters, or None where there is none."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def host_shares(before, after):
    """Busy and steal shares of all CPUs between two /proc/stat samples."""
    if before is None or after is None:
        return {}
    d = [b - a for a, b in zip(before, after)]
    total = sum(d) or 1
    idle = d[3] + (d[4] if len(d) > 4 else 0)
    steal = d[7] if len(d) > 7 else 0
    return {"host_busy_share": round((total - idle - steal) / total, 4),
            "host_steal_share": round(steal / total, 4)}


def main(argv):
    args = parse_args(argv)
    root = source_root()
    spec_path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    binary = build(root)
    commit = commit_of(root)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        before = cpu_jiffies()
        raw = run_workload(binary, args, workload)
        if raw is None:
            sys.exit(1)
        metrics, missing, not_applicable = select_metrics(
            raw, spec, args.trace == 1)
        stamp = dict(raw["stamp"], commit=commit, workload=workload,
                     trace=args.trace, seconds=args.seconds,
                     **host_shares(before, cpu_jiffies()))
        print("stamp " + json.dumps(stamp, sort_keys=True))
        for m in missing:
            print("check metric %s reported: FAILED" % m)
        if not_applicable:
            print("n/a on %s (reported as 0): %s"
                  % (workload, " ".join(not_applicable)))
        for name, m in metrics.items():
            print("metric %-32s %20.6f %s" % (name, m["value"], m["unit"]))
        correct = raw["correct"] and not missing
        result = {"correct": correct, "attempted": raw["attempted"],
                  "failed": raw["failed"], "metrics": metrics}
        if args.workload != "all":
            print(json.dumps(result))
            return
        combined["correct"] &= correct
        combined["attempted"] += raw["attempted"]
        combined["failed"] += raw["failed"]
        for name, m in metrics.items():
            combined["metrics"][workload + "/" + name] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main(sys.argv[1:])
