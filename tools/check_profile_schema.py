#!/usr/bin/env python3
"""Validate footprint.profile/1 and footprint.heatmap/1 documents.

Structural schema validation of the observability artifacts written by
``simulate --profile`` / ``--heatmap`` and ``micro_cycle --profile``
(DESIGN.md §14), without external jsonschema dependencies. The CI
workflow runs it against artifacts produced by a real simulation run,
so a field rename or type change in the C++ emitters fails the build
instead of silently breaking downstream consumers
(tools/render_heatmap.py, dashboards).

Usage:
  tools/check_profile_schema.py --profile profile.json
  tools/check_profile_schema.py --heatmap heatmap.json
  tools/check_profile_schema.py --profile p.json --heatmap h.json
"""

import argparse
import json
import sys

PROFILE_SCHEMA = "footprint.profile/1"
HEATMAP_SCHEMA = "footprint.heatmap/1"

PHASE_NAMES = ["inject", "drain", "compute", "transmit", "epilogue",
               "collect", "skip", "link"]
HEATMAP_METRICS = ["link_util", "inject_util", "eject_util", "vc_occ",
                   "fp_occ", "esc_occ", "inj_backlog"]
DIRS = ["east", "west", "north", "south"]


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


def check_grid(grid, nodes, path):
    expect(isinstance(grid, list), path, "must be a list")
    expect(len(grid) == nodes, path,
           "grid has %d cells, mesh has %d nodes" % (len(grid), nodes))
    for i, v in enumerate(grid):
        check_number(v, "%s[%d]" % (path, i), minimum=0.0)


def check_meta(meta, path):
    expect(isinstance(meta, dict), path, "must be an object")
    for key in ("seed", "config_hash", "git"):
        expect(key in meta, path, "missing run-metadata field %r" % key)


def check_profile_row(row, path):
    expect(isinstance(row, dict), path, "must be an object")
    for key in ("name", "mode", "threads", "cycles", "wall_seconds",
                "cycles_per_sec", "phases", "sharded"):
        expect(key in row, path, "missing field %r" % key)
    expect(isinstance(row["name"], str) and row["name"], path,
           "name must be a non-empty string")
    expect(row["mode"] in ("full", "activity", "verify", "sharded"),
           path, "unknown mode %r" % row["mode"])
    expect(isinstance(row["threads"], int) and row["threads"] >= 1,
           path, "threads must be a positive integer")
    check_number(row["cycles"], path + ".cycles", minimum=0)
    check_number(row["wall_seconds"], path + ".wall_seconds",
                 minimum=0.0)
    check_number(row["cycles_per_sec"], path + ".cycles_per_sec",
                 minimum=0.0)

    phases = row["phases"]
    expect(isinstance(phases, list), path + ".phases",
           "must be a list")
    names = [p.get("name") for p in phases]
    expect(names == PHASE_NAMES, path + ".phases",
           "phase names %r != %r" % (names, PHASE_NAMES))
    for p in phases:
        ppath = "%s.phases[%s]" % (path, p.get("name"))
        check_number(p.get("seconds"), ppath + ".seconds", minimum=0.0)
        check_number(p.get("calls"), ppath + ".calls", minimum=0)
        check_number(p.get("share"), ppath + ".share", minimum=0.0)
        expect(p["share"] <= 1.0 + 1e-9, ppath + ".share",
               "must be <= 1")

    sharded = row["sharded"]
    if row["mode"] == "sharded":
        expect(isinstance(sharded, dict), path + ".sharded",
               "must be an object for sharded rows")
    if sharded is None:
        return
    spath = path + ".sharded"
    for key in ("shards", "chunks", "threads", "shard_busy_seconds",
                "imbalance_ratio", "barrier_wait", "band_starts",
                "recuts"):
        expect(key in sharded, spath, "missing field %r" % key)
    expect(isinstance(sharded["shards"], int) and sharded["shards"] >= 1,
           spath + ".shards", "must be a positive integer")
    bands = sharded["band_starts"]
    expect(isinstance(bands, list) and len(bands) == sharded["shards"],
           spath + ".band_starts", "must list one entry per shard")
    expect(all(isinstance(b, int) and not isinstance(b, bool)
               for b in bands),
           spath + ".band_starts", "entries must be integers")
    expect(bands[0] == 0, spath + ".band_starts", "must start at 0")
    expect(all(a < b for a, b in zip(bands, bands[1:])),
           spath + ".band_starts", "must strictly increase")
    expect(isinstance(sharded["recuts"], int)
           and not isinstance(sharded["recuts"], bool)
           and sharded["recuts"] >= 0,
           spath + ".recuts", "must be a non-negative integer")
    busy = sharded["shard_busy_seconds"]
    expect(isinstance(busy, list) and len(busy) == sharded["shards"],
           spath + ".shard_busy_seconds",
           "must list one entry per shard")
    for i, v in enumerate(busy):
        check_number(v, "%s.shard_busy_seconds[%d]" % (spath, i),
                     minimum=0.0)
    check_number(sharded["imbalance_ratio"],
                 spath + ".imbalance_ratio", minimum=0.0)
    bw = sharded["barrier_wait"]
    expect(isinstance(bw, dict), spath + ".barrier_wait",
           "must be an object")
    for key in ("count", "p50_ns", "p99_ns", "p999_ns", "max_ns"):
        check_number(bw.get(key), "%s.barrier_wait.%s" % (spath, key),
                     minimum=0)
    expect(bw["p50_ns"] <= bw["p99_ns"] <= bw["p999_ns"],
           spath + ".barrier_wait", "percentiles must be monotone")


def check_profile(doc, path):
    expect(doc.get("schema") == PROFILE_SCHEMA, path,
           "schema is %r, expected %r" % (doc.get("schema"),
                                          PROFILE_SCHEMA))
    if "meta" in doc:
        check_meta(doc["meta"], path + ".meta")
    rows = doc.get("rows")
    expect(isinstance(rows, list) and rows, path + ".rows",
           "must be a non-empty list")
    for i, row in enumerate(rows):
        check_profile_row(row, "%s.rows[%d]" % (path, i))
    return len(rows)


def check_heatmap(doc, path):
    expect(doc.get("schema") == HEATMAP_SCHEMA, path,
           "schema is %r, expected %r" % (doc.get("schema"),
                                          HEATMAP_SCHEMA))
    if "meta" in doc:
        check_meta(doc["meta"], path + ".meta")
    mesh = doc.get("mesh")
    expect(isinstance(mesh, dict), path + ".mesh",
           "must be an object")
    for key in ("width", "height"):
        expect(isinstance(mesh.get(key), int) and mesh[key] >= 1,
               "%s.mesh.%s" % (path, key),
               "must be a positive integer")
    nodes = mesh["width"] * mesh["height"]
    check_number(doc.get("window"), path + ".window", minimum=1)
    check_number(doc.get("sample_interval"), path + ".sample_interval",
                 minimum=1)
    expect(doc.get("metrics") == HEATMAP_METRICS, path + ".metrics",
           "metric list %r != %r" % (doc.get("metrics"),
                                     HEATMAP_METRICS))
    windows = doc.get("windows")
    expect(isinstance(windows, list) and windows, path + ".windows",
           "must be a non-empty list")
    prev_end = None
    for i, w in enumerate(windows):
        wpath = "%s.windows[%d]" % (path, i)
        expect(isinstance(w, dict), wpath, "must be an object")
        check_number(w.get("start"), wpath + ".start", minimum=0)
        check_number(w.get("end"), wpath + ".end", minimum=0)
        expect(w["end"] > w["start"], wpath,
               "window must cover at least one cycle")
        if prev_end is not None:
            expect(w["start"] == prev_end, wpath,
                   "windows must tile the run (start %s != previous "
                   "end %s)" % (w["start"], prev_end))
        prev_end = w["end"]
        check_number(w.get("samples"), wpath + ".samples", minimum=0)
        lu = w.get("link_util")
        expect(isinstance(lu, dict), wpath + ".link_util",
               "must be an object")
        expect(sorted(lu.keys()) == sorted(DIRS),
               wpath + ".link_util",
               "directions %r != %r" % (sorted(lu.keys()),
                                        sorted(DIRS)))
        for d in DIRS:
            check_grid(lu[d], nodes, "%s.link_util.%s" % (wpath, d))
        for metric in HEATMAP_METRICS[1:]:
            check_grid(w.get(metric), nodes,
                       "%s.%s" % (wpath, metric))
    return len(windows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--profile", help="footprint.profile/1 document")
    ap.add_argument("--heatmap", help="footprint.heatmap/1 document")
    args = ap.parse_args()
    if not args.profile and not args.heatmap:
        ap.error("nothing to validate: pass --profile and/or --heatmap")

    status = 0
    try:
        if args.profile:
            with open(args.profile) as f:
                doc = json.load(f)
            rows = check_profile(doc, args.profile)
            print("OK %s: %s, %d row(s)"
                  % (args.profile, PROFILE_SCHEMA, rows))
        if args.heatmap:
            with open(args.heatmap) as f:
                doc = json.load(f)
            wins = check_heatmap(doc, args.heatmap)
            print("OK %s: %s, %d window(s)"
                  % (args.heatmap, HEATMAP_SCHEMA, wins))
    except SchemaError as e:
        print("FAIL: %s" % e)
        status = 1
    except (OSError, json.JSONDecodeError) as e:
        print("FAIL: %s" % e)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
