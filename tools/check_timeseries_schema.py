#!/usr/bin/env python3
"""Validate footprint.timeseries/1 JSONL streams.

Structural schema validation of the flight-recorder stream written by
``simulate --timeseries`` (DESIGN.md §15), without external jsonschema
dependencies. The CI workflow runs it against a stream produced by a
real simulation run, so a field rename or type change in the C++
emitter fails the build instead of silently breaking downstream
consumers (tools/render_timeseries.py, dashboards, tail -f watchers).

The stream is JSONL: line 1 is the header object (schema, run
metadata, mesh geometry, window interval, detector parameters); every
following line is one closed window record. Windows must tile the run
(each start equals the previous end), indices must be consecutive, the
per-regime VC-allocation grant counts must name exactly the five
Priority regimes, and the network-wide gauges read at window close
(``vc_occ``, ``fp_occ``, ``inj_backlog``, ``link_util``) must be
present and non-negative.

Usage:
  tools/check_timeseries_schema.py timeseries.jsonl
  tools/check_timeseries_schema.py timeseries.jsonl --min-windows 3
"""

import argparse
import json
import sys

TIMESERIES_SCHEMA = "footprint.timeseries/1"

VA_REGIMES = ["escape", "busy", "footprint", "idle", "reclaim"]
LATENCY_FIELDS = ["count", "mean", "p50", "p99", "p999", "max"]
GAUGE_FIELDS = ["vc_occ", "fp_occ", "inj_backlog", "link_util"]


class SchemaError(Exception):
    pass


def expect(cond, path, msg):
    if not cond:
        raise SchemaError("%s: %s" % (path, msg))


def check_number(value, path, minimum=None):
    expect(isinstance(value, (int, float))
           and not isinstance(value, bool), path, "must be a number")
    if minimum is not None:
        expect(value >= minimum, path, "must be >= %s" % minimum)


def check_meta(meta, path):
    expect(isinstance(meta, dict), path, "must be an object")
    for key in ("seed", "config_hash", "git"):
        expect(key in meta, path, "missing run-metadata field %r" % key)


def check_header(doc, path):
    expect(doc.get("schema") == TIMESERIES_SCHEMA, path,
           "schema is %r, expected %r" % (doc.get("schema"),
                                          TIMESERIES_SCHEMA))
    if "meta" in doc:
        check_meta(doc["meta"], path + ".meta")
    mesh = doc.get("mesh")
    expect(isinstance(mesh, dict), path + ".mesh", "must be an object")
    for key in ("width", "height"):
        expect(isinstance(mesh.get(key), int) and mesh[key] >= 1,
               "%s.mesh.%s" % (path, key),
               "must be a positive integer")
    check_number(doc.get("interval"), path + ".interval", minimum=1)
    check_number(doc.get("steady_windows"), path + ".steady_windows",
                 minimum=2)
    check_number(doc.get("steady_tolerance"),
                 path + ".steady_tolerance")
    expect(doc["steady_tolerance"] > 0.0, path + ".steady_tolerance",
           "must be positive")


def check_window(w, path, index, prev_end):
    expect(isinstance(w, dict), path, "must be an object")
    for key in ("window", "start", "end", "offered_flits",
                "accepted_flits", "packets", "offered_rate",
                "accepted_rate", "latency", "in_flight",
                "active_nodes", "va_grants", "va_fails",
                "watchdog_events", *GAUGE_FIELDS):
        expect(key in w, path, "missing field %r" % key)
    expect(w["window"] == index, path,
           "window index %s, expected %s" % (w["window"], index))
    check_number(w["start"], path + ".start", minimum=0)
    check_number(w["end"], path + ".end", minimum=0)
    expect(w["end"] > w["start"], path,
           "window must cover at least one cycle")
    if prev_end is not None:
        expect(w["start"] == prev_end, path,
               "windows must tile the run (start %s != previous end "
               "%s)" % (w["start"], prev_end))
    for key in ("offered_flits", "accepted_flits", "packets",
                "va_fails", "watchdog_events"):
        check_number(w[key], "%s.%s" % (path, key), minimum=0)
    for key in ("offered_rate", "accepted_rate"):
        check_number(w[key], "%s.%s" % (path, key), minimum=0.0)
    check_number(w["in_flight"], path + ".in_flight", minimum=0)
    check_number(w["active_nodes"], path + ".active_nodes", minimum=0)
    for key in GAUGE_FIELDS:
        check_number(w[key], "%s.%s" % (path, key), minimum=0)

    lat = w["latency"]
    expect(isinstance(lat, dict), path + ".latency",
           "must be an object")
    for key in LATENCY_FIELDS:
        check_number(lat.get(key), "%s.latency.%s" % (path, key),
                     minimum=0)
    expect(lat["p50"] <= lat["p99"] <= lat["p999"], path + ".latency",
           "percentiles must be monotone")

    grants = w["va_grants"]
    expect(isinstance(grants, dict), path + ".va_grants",
           "must be an object")
    expect(sorted(grants.keys()) == sorted(VA_REGIMES),
           path + ".va_grants",
           "regimes %r != %r" % (sorted(grants.keys()),
                                 sorted(VA_REGIMES)))
    for regime in VA_REGIMES:
        check_number(grants[regime],
                     "%s.va_grants.%s" % (path, regime), minimum=0)
    return w["end"]


def check_stream(lines, path):
    expect(len(lines) >= 1, path, "stream is empty (no header line)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise SchemaError("%s:1: invalid JSON: %s" % (path, e))
    check_header(header, path + ":1")

    prev_end = None
    for i, line in enumerate(lines[1:]):
        lpath = "%s:%d" % (path, i + 2)
        try:
            w = json.loads(line)
        except json.JSONDecodeError as e:
            raise SchemaError("%s: invalid JSON: %s" % (lpath, e))
        prev_end = check_window(w, lpath, i, prev_end)
    return len(lines) - 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("stream", help="footprint.timeseries/1 JSONL file")
    ap.add_argument("--min-windows", type=int, default=1,
                    help="fail unless at least N window records "
                         "(default 1)")
    args = ap.parse_args()

    try:
        with open(args.stream) as f:
            lines = [ln for ln in (s.strip() for s in f) if ln]
        windows = check_stream(lines, args.stream)
        if windows < args.min_windows:
            raise SchemaError(
                "%s: only %d window(s), need >= %d"
                % (args.stream, windows, args.min_windows))
        print("OK %s: %s, %d window(s)"
              % (args.stream, TIMESERIES_SCHEMA, windows))
        return 0
    except SchemaError as e:
        print("FAIL: %s" % e)
        return 1
    except OSError as e:
        print("FAIL: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
