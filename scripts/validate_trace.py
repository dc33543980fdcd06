#!/usr/bin/env python3
"""Chrome trace-event validator for rt::Telemetry exports.

Checks that a --trace=... JSON from the runtime benches is loadable by
Perfetto / chrome://tracing and internally consistent:

  * top level is {"traceEvents": [...]}
  * every event carries name/ph/pid/tid, with ph one of X (complete span,
    requires ts + dur >= 0), i (instant, requires ts), or M (metadata)
  * every tid with real events has a thread_name metadata record
  * per tid, event start timestamps are non-decreasing (the runtime's
    per-track rings are emitted in sequence order)
  * per tid, "X" spans nest: a span either fully contains the next one or
    ends before it starts — partial overlap on one track means broken
    instrumentation (the runtime's span sites are properly bracketed)

With --expect-resize it additionally requires the trace to contain at
least one reconfiguration event (begin_reconfigure / step_migration) AND
at least one scaler_decision instant — the CI contract for the flash-crowd
smoke trace. With --expect-fault it requires the full fault lifecycle
instead: a fault instant, a failover span, at least one rebuild_step span,
and a rebuild_complete instant, in cause-before-effect order (first
fault <= first failover <= last rebuild_complete, with every rebuild_step
in between). With
--expect-slo it requires the SLO control loop: every scaler_decision
instant carries the e2e_p99_us and slo_target_us argument keys, at least
one decision fired with reason "split-slo" and a nonzero decision, and no
resize event precedes the first such decision (the p99 breach is the
cause, the resize the effect). Exit code 1 lists every violation; used as
a CI step after the autoscale, fault, and SLO bench smoke runs."""
import argparse
import json
import pathlib
import sys

SPAN = "X"
INSTANT = "i"
METADATA = "M"
RESIZE_NAMES = {"begin_reconfigure", "step_migration"}
FAULT_NAMES = {"fault", "failover", "rebuild_step", "rebuild_complete"}


def load_events(path, problems):
    try:
        payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        problems.append(f"{path}: not readable JSON: {err}")
        return []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        problems.append(f"{path}: top level must be an object with "
                        "a traceEvents array")
        return []
    events = payload["traceEvents"]
    if not isinstance(events, list):
        problems.append(f"{path}: traceEvents is not a list")
        return []
    return events


def check_schema(events, problems):
    """Per-event required keys; returns the real (non-metadata) events."""
    real = []
    named_tids = set()
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: event is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                problems.append(f"{where}: missing required key '{key}'")
        ph = e.get("ph")
        if ph == METADATA:
            if e.get("name") == "thread_name":
                named_tids.add(e.get("tid"))
            continue
        if ph not in (SPAN, INSTANT):
            problems.append(f"{where}: unsupported ph {ph!r} "
                            "(expected X, i, or M)")
            continue
        if not isinstance(e.get("ts"), (int, float)):
            problems.append(f"{where}: ph {ph} requires a numeric ts")
            continue
        if ph == SPAN:
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: ph X requires dur >= 0, "
                                f"got {dur!r}")
                continue
        real.append(e)
    for tid in sorted({e["tid"] for e in real}):
        if tid not in named_tids:
            problems.append(f"tid {tid}: events but no thread_name metadata")
    return real


def check_tracks(real, problems):
    """Chronological order and span nesting, independently per tid."""
    by_tid = {}
    for e in real:
        by_tid.setdefault(e["tid"], []).append(e)
    for tid, events in sorted(by_tid.items()):
        last_ts = None
        open_spans = []  # stack of (start, end, name)
        for e in events:
            ts = e["ts"]
            if last_ts is not None and ts < last_ts:
                problems.append(f"tid {tid}: ts goes backwards at "
                                f"'{e['name']}' ({ts} < {last_ts})")
            last_ts = ts
            if e["ph"] != SPAN:
                continue
            end = ts + e["dur"]
            while open_spans and open_spans[-1][1] <= ts:
                open_spans.pop()
            if open_spans and end > open_spans[-1][1]:
                outer = open_spans[-1]
                problems.append(
                    f"tid {tid}: span '{e['name']}' [{ts}, {end}] partially "
                    f"overlaps '{outer[2]}' [{outer[0]}, {outer[1]}]")
                continue
            open_spans.append((ts, end, e["name"]))
    return by_tid


def check_resize(real, problems):
    names = {e["name"] for e in real}
    if not names & RESIZE_NAMES:
        problems.append("--expect-resize: no begin_reconfigure / "
                        "step_migration event in the trace")
    if "scaler_decision" not in names:
        problems.append("--expect-resize: no scaler_decision instant "
                        "in the trace")


def check_fault(real, problems):
    """The fault lifecycle: fault -> failover -> rebuild_step* ->
    rebuild_complete, present and in cause-before-effect timestamp order."""
    first = {}
    last = {}
    for e in real:
        name = e["name"]
        if name in FAULT_NAMES:
            first.setdefault(name, e["ts"])
            last[name] = e["ts"]
    for name in sorted(FAULT_NAMES - first.keys()):
        problems.append(f"--expect-fault: no {name} event in the trace")
    if FAULT_NAMES - first.keys():
        return
    if first["fault"] > first["failover"]:
        problems.append("--expect-fault: first failover precedes the first "
                        f"fault ({first['failover']} < {first['fault']})")
    if first["failover"] > first["rebuild_step"]:
        problems.append("--expect-fault: first rebuild_step precedes the "
                        "first failover "
                        f"({first['rebuild_step']} < {first['failover']})")
    if last["rebuild_step"] > last["rebuild_complete"]:
        problems.append("--expect-fault: rebuild_step after the last "
                        f"rebuild_complete ({last['rebuild_step']} > "
                        f"{last['rebuild_complete']})")


def check_slo(real, problems):
    """The SLO control loop: every scaler_decision carries its latency
    inputs, a split-slo decision fired, and the first resize followed it."""
    decisions = [e for e in real if e["name"] == "scaler_decision"]
    if not decisions:
        problems.append("--expect-slo: no scaler_decision instant "
                        "in the trace")
        return
    for e in decisions:
        args = e.get("args", {})
        for key in ("e2e_p99_us", "slo_target_us"):
            if key not in args:
                problems.append(f"--expect-slo: scaler_decision at ts "
                                f"{e.get('ts')} missing args['{key}']")
    fired = [e for e in decisions
             if e.get("args", {}).get("reason") == "split-slo"
             and e.get("args", {}).get("decision", 0) != 0]
    if not fired:
        problems.append("--expect-slo: no scaler_decision with reason "
                        "'split-slo' and a nonzero decision")
        return
    first_fire = min(e["ts"] for e in fired)
    resizes = [e["ts"] for e in real if e["name"] in RESIZE_NAMES]
    if resizes and min(resizes) < first_fire:
        problems.append("--expect-slo: a resize event precedes the first "
                        f"split-slo decision ({min(resizes)} < {first_fire})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON to validate")
    parser.add_argument("--expect-resize", action="store_true",
                        help="require reconfiguration + scaler events "
                             "(the flash-crowd autoscale contract)")
    parser.add_argument("--expect-fault", action="store_true",
                        help="require the fault -> failover -> rebuild "
                             "lifecycle (the fault-bench contract)")
    parser.add_argument("--expect-slo", action="store_true",
                        help="require scaler_decision latency args and a "
                             "split-slo decision before any resize "
                             "(the SLO-bench contract)")
    args = parser.parse_args()

    problems = []
    events = load_events(args.trace, problems)
    real = check_schema(events, problems)
    by_tid = check_tracks(real, problems)
    if args.expect_resize:
        check_resize(real, problems)
    if args.expect_fault:
        check_fault(real, problems)
    if args.expect_slo:
        check_slo(real, problems)

    for line in problems:
        print(line, file=sys.stderr)
    spans = sum(1 for e in real if e["ph"] == SPAN)
    print(f"{args.trace}: {len(real)} events ({spans} spans) on "
          f"{len(by_tid)} tracks: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
