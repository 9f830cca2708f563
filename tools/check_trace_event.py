#!/usr/bin/env python3
"""Validate a Chrome trace-event timeline produced by the simulator.

Checks that ``--chrome-trace`` output (default ``trace.json``) is a
well-formed trace-event JSON object document that chrome://tracing and
Perfetto will accept, and that it carries the content the exporter
promises: a ``traceEvents`` list of known phase types with the
mandatory per-phase fields, process-name metadata for the packet
timeline, the run-metadata footer stamped by ``RunMetadata``, and (with
``--expect-counters``) the flight recorder's per-window counter tracks
that ``--chrome-trace --timeseries`` adds.

Exit status: 0 when valid, 1 with a diagnostic otherwise.

Usage:
  tools/check_trace_event.py trace.json
  tools/check_trace_event.py trace.json --min-events 100 --expect-packets
  tools/check_trace_event.py trace.json --expect-counters
"""

import argparse
import json
import sys

KNOWN_PHASES = {"X", "i", "C", "M", "B", "E"}

# Window aggregates FlightRecorder writes per closed window.
COUNTER_TRACKS = ("in_flight", "vc_occ", "fp_occ", "inj_backlog",
                  "link_util")

REQUIRED_FIELDS = {
    "X": ("name", "pid", "tid", "ts", "dur"),
    "i": ("name", "ts"),
    "C": ("name", "pid", "ts", "args"),
    "M": ("name", "pid"),
}


def fail(msg):
    print(f"check_trace_event: FAIL: {msg}")
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(
        description="Validate a simulator chrome trace")
    ap.add_argument("path", help="trace.json to validate")
    ap.add_argument("--min-events", type=int, default=1,
                    help="minimum number of trace events (default 1)")
    ap.add_argument("--expect-packets", action="store_true",
                    help="require packet lifecycle slices "
                         "('pkt' X events)")
    ap.add_argument("--expect-phases", action="store_true",
                    help="require warmup/measure/drain phase markers")
    ap.add_argument("--expect-counters", action="store_true",
                    help="require the flight recorder's window "
                         "aggregates as 'C' counter tracks")
    args = ap.parse_args()

    try:
        with open(args.path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{args.path}: not readable as JSON: {e}")

    if not isinstance(doc, dict):
        fail("top level must be a JSON object "
             "(trace-event object format)")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("missing 'traceEvents' list")
    if len(events) < args.min_events:
        fail(f"only {len(events)} events, expected >= "
             f"{args.min_events}")

    counts = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            fail(f"event {i} has unknown phase type {ph!r}")
        for field in REQUIRED_FIELDS.get(ph, ()):
            if field not in ev:
                fail(f"event {i} (ph={ph}) lacks '{field}'")
        ts = ev.get("ts")
        if ts is not None and ts < 0:
            fail(f"event {i} has negative timestamp {ts}")
        if ph == "X" and ev["dur"] < 0:
            fail(f"event {i} has negative duration {ev['dur']}")
        counts[ph] = counts.get(ph, 0) + 1

    if args.expect_packets:
        pkt = sum(1 for ev in events
                  if ev.get("ph") == "X" and ev.get("name") == "pkt")
        if pkt == 0:
            fail("no packet lifecycle slices ('pkt' X events)")
        procs = {ev.get("args", {}).get("name")
                 for ev in events
                 if ev.get("ph") == "M"
                 and ev.get("name") == "process_name"}
        if "packets" not in procs:
            fail("no 'packets' process_name metadata event")

    if args.expect_counters:
        tracks = {ev["name"] for ev in events if ev.get("ph") == "C"}
        missing = [t for t in COUNTER_TRACKS if t not in tracks]
        if missing:
            fail(f"missing counter tracks {missing} "
                 "(run with --timeseries)")
        for ev in events:
            if ev.get("ph") == "C" and not isinstance(
                    ev["args"].get("value"), (int, float)):
                fail(f"counter {ev['name']!r} at ts {ev.get('ts')} "
                     "has no numeric args.value")

    if args.expect_phases:
        marks = {ev["name"] for ev in events if ev.get("ph") == "i"}
        for phase in ("phase: warmup", "phase: measure"):
            if phase not in marks:
                fail(f"missing instant marker '{phase}'")

    meta = doc.get("metadata")
    if not isinstance(meta, dict):
        fail("missing run-metadata footer")
    for key in ("seed", "config_hash", "git"):
        if key not in meta:
            fail(f"metadata lacks '{key}'")

    by_phase = ", ".join(f"{ph}:{n}" for ph, n in sorted(counts.items()))
    print(f"check_trace_event: OK: {args.path}: {len(events)} events "
          f"({by_phase}), metadata seed={meta['seed']} "
          f"config_hash={meta['config_hash']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
