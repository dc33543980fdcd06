#!/usr/bin/env python3
"""Runtime auto-tuning harness: sweeps bench_runtime_throughput over
queue_depth x batch_size x drain policy x pinning and recommends committed
RuntimeConfig defaults from the results.

Each grid point is one subprocess run of

    bench_runtime_throughput --tune --shards=S --queue-depth=Q \
        --batch-size=B --drain=D [--pin] ...

whose single machine-readable line

    TUNE,shards,queue_depth,batch_size,drain,pinned,ops_per_sec,p50_us,
    p99_us,conserved

this script parses. A grid point that fails conservation (conserved=0, or
a non-zero exit) is disqualified, not averaged away. Results land in a CSV
(--out) and the recommendation — the highest-ops/sec *epoch* point, ties
broken by lower p99 — is printed as the pair of RuntimeConfig defaults to
commit (queue_depth, batch_size). Eager points are swept for the report but
never recommended as defaults: the committed defaults must keep the
deterministic drain.

--smoke shrinks the grid to a seconds-long CI check (2 points, tiny
workload) that still exercises the full subprocess -> parse -> recommend
pipeline and fails the build if any point loses work. Exit codes: 0 on
success, 1 when any grid point fails to run/parse or conservation fails
everywhere (no recommendable point).

Stdlib only; no third-party imports.
"""
import argparse
import csv
import pathlib
import subprocess
import sys

TUNE_FIELDS = [
    "shards", "queue_depth", "batch_size", "drain", "pinned",
    "ops_per_sec", "p50_us", "p99_us", "conserved",
]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--bench", default="build/bench_runtime_throughput",
                   help="path to the bench binary (default: %(default)s)")
    p.add_argument("--shards", type=int, default=16,
                   help="shard count for every grid point (default: 16, "
                        "the committed results/ configuration)")
    p.add_argument("--queue-depths", default="32,64,128,256",
                   help="comma list of queue_depth values (default: "
                        "%(default)s)")
    p.add_argument("--batch-sizes", default="64,128,256,512",
                   help="comma list of batch_size values (default: "
                        "%(default)s)")
    p.add_argument("--drains", default="epoch,eager",
                   help="comma list of drain policies (default: %(default)s)")
    p.add_argument("--pin", default="0,1",
                   help="comma list of pinning settings, 0/1 (default: "
                        "%(default)s)")
    p.add_argument("--scale", type=float, default=0.002,
                   help="workload scale forwarded to the bench (default: "
                        "%(default)s)")
    p.add_argument("--days", type=float, default=1.0,
                   help="log duration forwarded to the bench (default: "
                        "%(default)s)")
    p.add_argument("--out", default="bench_results/tune_runtime.csv",
                   help="sweep CSV destination (default: %(default)s)")
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per grid point; the reported row is the "
                        "median-ops run, damping single-run scheduler noise "
                        "(default: %(default)s)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny CI grid: 2 points, --smoke workload")
    return p.parse_args()


def int_list(text):
    return [int(v) for v in text.split(",") if v.strip()]


def str_list(text):
    return [v.strip() for v in text.split(",") if v.strip()]


def grid_points(args):
    if args.smoke:
        # The full pipeline (run, parse, conserve, recommend) on the two
        # poles: unpinned vs pinned, both epoch.
        return [
            {"queue_depth": 64, "batch_size": 128, "drain": "epoch",
             "pin": False},
            {"queue_depth": 64, "batch_size": 128, "drain": "epoch",
             "pin": True},
        ]
    points = []
    for qd in int_list(args.queue_depths):
        for bs in int_list(args.batch_sizes):
            for drain in str_list(args.drains):
                for pin in int_list(args.pin):
                    points.append({"queue_depth": qd, "batch_size": bs,
                                   "drain": drain, "pin": bool(pin)})
    return points


def run_point(args, point):
    """Runs one grid point; returns the parsed TUNE row dict or None."""
    cmd = [
        args.bench, "--tune",
        f"--shards={args.shards}",
        f"--queue-depth={point['queue_depth']}",
        f"--batch-size={point['batch_size']}",
        f"--drain={point['drain']}",
        f"--scale={args.scale}",
        f"--days={args.days}",
    ]
    if point["pin"]:
        cmd.append("--pin")
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=1800)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"[tune] FAILED to run {' '.join(cmd)}: {err}",
              file=sys.stderr)
        return None
    for line in proc.stdout.splitlines():
        if not line.startswith("TUNE,"):
            continue
        values = line.strip().split(",")[1:]
        if len(values) != len(TUNE_FIELDS):
            print(f"[tune] malformed line from {' '.join(cmd)}: {line}",
                  file=sys.stderr)
            return None
        row = dict(zip(TUNE_FIELDS, values))
        for key in ("shards", "queue_depth", "batch_size", "pinned",
                    "conserved"):
            row[key] = int(row[key])
        for key in ("ops_per_sec", "p50_us", "p99_us"):
            row[key] = float(row[key])
        return row
    print(f"[tune] no TUNE line from {' '.join(cmd)} "
          f"(exit {proc.returncode})", file=sys.stderr)
    return None


def recommend(rows):
    """Highest-ops/sec conserving epoch point; ties broken by lower p99."""
    eligible = [r for r in rows
                if r["conserved"] and r["drain"] == "epoch"]
    if not eligible:
        return None
    return max(eligible, key=lambda r: (r["ops_per_sec"], -r["p99_us"]))


def main():
    args = parse_args()
    points = grid_points(args)
    print(f"[tune] sweeping {len(points)} grid point(s) at "
          f"{args.shards} shards")
    rows = []
    failures = 0
    for point in points:
        trials = []
        for _ in range(max(1, args.repeat)):
            row = run_point(args, point)
            if row is not None:
                trials.append(row)
        if not trials:
            failures += 1
            continue
        # Median-ops trial: robust against a single descheduled run. A
        # point is conserving only if EVERY trial conserved.
        trials.sort(key=lambda r: r["ops_per_sec"])
        row = trials[len(trials) // 2]
        row["conserved"] = int(all(t["conserved"] for t in trials))
        rows.append(row)
        print(f"[tune] qd={row['queue_depth']} bs={row['batch_size']} "
              f"drain={row['drain']} pin={row['pinned']}: "
              f"{row['ops_per_sec']:.0f} ops/s, "
              f"p99={row['p99_us']:.1f}us, "
              f"conserved={'yes' if row['conserved'] else 'NO'}")
        if not row["conserved"]:
            failures += 1

    if rows:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=TUNE_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"[tune] wrote {out} ({len(rows)} rows)")

    best = recommend(rows)
    if best is None:
        print("[tune] no conserving epoch point — nothing to recommend",
              file=sys.stderr)
        return 1
    print(f"[tune] recommended committed defaults (from the best "
          f"conserving epoch point):")
    print(f"[tune]   RuntimeConfig::queue_depth = {best['queue_depth']}")
    print(f"[tune]   RuntimeConfig::batch_size  = {best['batch_size']}")
    print(f"[tune]   ({best['ops_per_sec']:.0f} ops/s, "
          f"p99={best['p99_us']:.1f}us, pin={best['pinned']})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
