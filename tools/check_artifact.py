#!/usr/bin/env python3
"""Validate simulator artifacts of every kind through one contract.

A JSON document names its kind by its "schema" key (plus "kind":
"micro_cycle" for that shape of footprint.bench/1), a JSONL stream by
its first line's "schema", a chrome trace by its "traceEvents" list.
The RunMetadata header ("meta"; the chrome trace's "metadata" footer)
is checked once for every kind; field tables say the rest, and each
kind's check function what a table cannot. Exit status: 0 when every
FILE is valid, 1 otherwise.

Usage:
  tools/check_artifact.py state_dump.json timeseries.jsonl trace.json \\
      --min-windows 3 --expect-packets --expect-phases --expect-counters
"""

import argparse
import json
import sys

BENCH_SCHEMA = "footprint.bench/1"
MICRO_CYCLE = "footprint.bench/1 micro_cycle"
BENCH_E2E = "footprint.bench_e2e/1"
CHROME_TRACE = "chrome trace"

PHASE_NAMES = ["inject", "drain", "compute", "transmit", "epilogue",
               "collect", "skip", "link"]
PROFILE_MODES = ("full", "activity", "verify", "sharded")
HEATMAP_METRICS = ["link_util", "inject_util", "eject_util", "vc_occ",
                   "fp_occ", "esc_occ", "inj_backlog"]
DIRS = ["east", "west", "north", "south"]
VA_REGIMES = ["escape", "busy", "footprint", "idle", "reclaim"]
STALL_CLASSES = ("none", "tree_saturation", "deadlock")
# Window aggregates the flight recorder writes as chrome counters.
COUNTER_TRACKS = ("in_flight", "vc_occ", "fp_occ", "inj_backlog",
                  "link_util")

# Field tables: name -> type or (type, minimum). float accepts any
# number, int excludes bool, object accepts any value.
COUNT = (float, 0)
META = {"seed": int, "config_hash": str, "git": str, "build_type": str,
        "num_cpus": int}
MESH = {"width": (int, 1), "height": (int, 1)}

BENCH_TOP = {"meta": dict, "run": dict, "sweep": dict, "results": list,
             "saturation": list}
BENCH_RUN = {"git": str, "config_hash": str, "base_seed": int,
             "total_jobs": int}
BENCH_SWEEP = {"rates": list, "routings": list, "meshes": list,
               "traffics": list, "seeds": int}
BENCH_RESULT = {
    "job": int, "mesh": str, "routing": str, "traffic": str,
    "replicate": int, "probe": bool, "seed": int, "offered": float,
    "accepted": float, "latency": float, "p50": float, "p99": float,
    "hops": float, "cycles": int, "drained": bool, "saturated": bool,
    "stall": str,
}
BENCH_CELL = {"mesh": str, "routing": str, "traffic": str,
              "throughput": float, "zero_load_latency": float}
BENCH_TIMING = {"jobs": int, "wall_seconds": float, "jobs_per_sec": float}

MICRO_TOP = {"meta": dict, "kind": str, "run": dict, "results": list}
MICRO_RUN = {"mesh": str, "seed": int, "cycles": int}
MICRO_RESULT = {
    "name": str, "routing": str, "mode": str, "threads": int,
    "load": float, "cycles": int, "wall_seconds": float,
    "cycles_per_sec": float, "full_cycles_per_sec": float,
    "speedup": float, "checksum": str, "topology": str,
}

# The A/B trajectory file tools/ab.py --record appends to.
E2E_TOP = {"meta": dict, "entries": list}
E2E_ENTRY = {"label": str, "ref": str, "change": str,
             "num_cpus": (int, 1), "build_type": str, "pairs": (int, 2),
             "seconds": (float, 0), "results": list}
E2E_RESULT = {"workload": str, "metric": str, "ref": dict,
              "change": dict, "ratio": (float, 0), "wins": (int, 0),
              "verdict": str}
E2E_SPREAD = {"median": float, "q1": float, "q3": float}
E2E_VERDICTS = ("gain", "regression", "unresolved", "within bound")

PROFILE_TOP = {"meta": dict, "rows": list}
PROFILE_ROW = {"name": str, "mode": str, "threads": (int, 1),
               "cycles": COUNT, "wall_seconds": COUNT,
               "cycles_per_sec": COUNT, "phases": list,
               "sharded": object}
PHASE = {"name": str, "seconds": COUNT, "calls": COUNT, "share": COUNT}
SHARDED = {"shards": (int, 1), "chunks": object, "threads": object,
           "shard_busy_seconds": list, "imbalance_ratio": COUNT,
           "barrier_wait": dict, "band_starts": list, "recuts": (int, 0)}
BARRIER = {"count": COUNT, "p50_ns": COUNT, "p99_ns": COUNT,
           "p999_ns": COUNT, "max_ns": COUNT}

HEATMAP_TOP = {"meta": dict, "mesh": dict, "window": (float, 1),
               "sample_interval": (float, 1), "metrics": list,
               "windows": list}
LINK_UTIL = {d: list for d in DIRS}
HEATMAP_WINDOW = {"start": COUNT, "end": COUNT, "samples": COUNT,
                  "link_util": dict,
                  **{m: list for m in HEATMAP_METRICS[1:]}}

TIMESERIES_TOP = {"meta": dict, "mesh": dict, "interval": (float, 1),
                  "steady_windows": (float, 2),
                  "steady_tolerance": float}
TIMESERIES_WINDOW = {
    "window": int, "start": COUNT, "end": COUNT, "offered_flits": COUNT,
    "accepted_flits": COUNT, "packets": COUNT, "offered_rate": COUNT,
    "accepted_rate": COUNT, "latency": dict, "in_flight": COUNT,
    "active_nodes": COUNT, "va_grants": dict, "va_fails": COUNT,
    "watchdog_events": COUNT, "vc_occ": COUNT, "fp_occ": COUNT,
    "inj_backlog": COUNT, "link_util": COUNT,
}
LATENCY = {"count": COUNT, "mean": COUNT, "p50": COUNT, "p99": COUNT,
           "p999": COUNT, "max": COUNT}
VA_GRANTS = {regime: COUNT for regime in VA_REGIMES}

STATE_DUMP_TOP = {"meta": dict, "cycle": (int, 0), "reason": str,
                  "totals": dict, "routers": list, "endpoints": list,
                  "channels": list}
TOTALS = {"injected": (int, 0), "ejected": (int, 0), "resident": (int, 0)}
ROUTER = {"node": int, "inputs": list, "outputs": list}
ENDPOINT = {"node": int, "source_backlog": (int, 0), "injecting": bool,
            "inject_vcs": list, "sink_occ": list}
STALL = {"class": str, "blocked_vcs": (int, 0), "detail": str}
VIOLATION = {"check": str, "node": int, "cycle": int, "detail": str}
WATCHDOG_EVENT = {"kind": str, "cycle": int, "detail": str}

PACKET_TRACE_TOP = {"meta": dict}
PACKET = {"packet": (int, 1), "src": (int, 0), "dest": (int, 0),
          "size": (int, 1), "class": str, "create": (int, 0),
          "inject": (int, -1), "eject": (int, -1), "hops": list}
HOP = {"node": (int, 0), "arrive": (int, -1), "va": (int, -1),
       "st": (int, -1)}

CHROME_TOP = {"traceEvents": list, "metadata": dict}
CHROME_EVENTS = {
    "X": {"name": str, "pid": int, "tid": int, "ts": COUNT, "dur": COUNT},
    "i": {"name": str, "ts": COUNT},
    "C": {"name": str, "pid": int, "ts": COUNT, "args": dict},
    "M": {"name": str, "pid": int, "args": dict},
    "B": {}, "E": {},
}

TYPE_NAMES = {float: "number", dict: "object", object: "present"}


class ArtifactError(Exception):
    pass


def expect(cond, path, msg):
    if not cond:
        raise ArtifactError("%s: %s" % (path, msg))


def check_value(value, spec, path):
    kind, minimum = spec if isinstance(spec, tuple) else (spec, None)
    ok = isinstance(value, (int, float) if kind is float else kind)
    if kind in (int, float):
        ok = ok and not isinstance(value, bool)
    expect(ok, path, "must be %s" % TYPE_NAMES.get(kind, kind.__name__))
    if minimum is not None:
        expect(value >= minimum, path, "must be >= %s" % minimum)


def check_fields(obj, table, path, exact=False):
    """Check @obj against a field table (and no other keys if @exact)."""
    expect(isinstance(obj, dict), path, "must be an object")
    for key, spec in table.items():
        expect(key in obj, path, "missing field %r" % key)
        check_value(obj[key], spec, "%s.%s" % (path, key))
    expect(not exact or len(obj) == len(table), path,
           "keys %r != %r" % (sorted(obj), sorted(table)))
    return obj


def check_each(entries, table, path):
    expect(isinstance(entries, list), path, "must be a list")
    for i, entry in enumerate(entries):
        check_fields(entry, table, "%s[%d]" % (path, i))


def check_percentiles(obj, keys, path):
    """p50 <= p99 <= p999 <= max: no percentile exceeds the max."""
    values = [obj[key] for key in keys]
    expect(values == sorted(values), path, "percentiles must be monotone "
           "and capped by max: %s" % dict(zip(keys, values)))


def check_list(values, spec, length, path):
    expect(isinstance(values, list) and len(values) == length, path,
           "must list %d entries" % length)
    for i, v in enumerate(values):
        check_value(v, spec, "%s[%d]" % (path, i))


def check_tiling(windows, where, path, min_windows):
    expect(len(windows) >= min_windows, path,
           "only %d window(s), need >= %d" % (len(windows), min_windows))
    for i, w in enumerate(windows):
        expect(w["end"] > w["start"], where(i),
               "window must cover at least one cycle")
        prev_end = windows[i - 1]["end"] if i else w["start"]
        expect(w["start"] == prev_end, where(i),
               "windows must tile the run (start %s != previous end %s)"
               % (w["start"], prev_end))


def check_bench(doc, results, where, path, opts):
    run = check_fields(doc["run"], BENCH_RUN, path + ".run")
    expect(run["total_jobs"] == len(results), path + ".run",
           "total_jobs=%d but results has %d entries"
           % (run["total_jobs"], len(results)))
    sweep = check_fields(doc["sweep"], BENCH_SWEEP, path + ".sweep")
    seeds = [r["seed"] for r in results]
    expect(len(set(seeds)) == len(seeds), path + ".results",
           "job seeds are not unique")
    cells = doc["saturation"]
    check_each(cells, BENCH_CELL, path + ".saturation")
    want = (len(sweep["meshes"]) * len(sweep["routings"])
            * len(sweep["traffics"]))
    expect(len(cells) == want, path + ".saturation",
           "has %d entries, want %d (meshes x routings x traffics)"
           % (len(cells), want))
    if "timing" not in doc:
        return
    timing = check_fields(doc["timing"], BENCH_TIMING, path + ".timing")
    if "schedule" not in timing:
        return
    # One [start, end] per job, 0 <= start <= end <= wall_seconds.
    spans = timing["schedule"]
    expect(isinstance(spans, list) and len(spans) == len(results),
           path + ".timing.schedule",
           "must list one [start, end] per job (%d)" % len(results))
    for i, span in enumerate(spans):
        spath = "%s.timing.schedule[%d]" % (path, i)
        check_list(span, float, 2, spath)
        expect(0 <= span[0] <= span[1] <= timing["wall_seconds"], spath,
               "%s lies outside 0 <= start <= end <= wall_seconds (%s)"
               % (span, timing["wall_seconds"]))


def check_micro(doc, results, where, path, opts):
    check_fields(doc["run"], MICRO_RUN, path + ".run")
    expect(results, path + ".results", "must not be empty")
    names = [r["name"] for r in results]
    expect(len(set(names)) == len(names), path + ".results",
           "result names are not unique")


def check_bench_e2e(doc, entries, where, path, opts):
    expect(entries, path + ".entries", "must not be empty")
    for i, entry in enumerate(entries):
        rows = entry["results"]
        expect(rows, where(i) + ".results", "must not be empty")
        check_each(rows, E2E_RESULT, where(i) + ".results")
        keys = [(r["workload"], r["metric"]) for r in rows]
        expect(len(set(keys)) == len(keys), where(i) + ".results",
               "a workload/metric pair appears twice")
        for j, row in enumerate(rows):
            rpath = "%s.results[%d]" % (where(i), j)
            for side in ("ref", "change"):
                s = check_fields(row[side], E2E_SPREAD,
                                 "%s.%s" % (rpath, side))
                expect(s["q1"] <= s["median"] <= s["q3"], rpath + "."
                       + side, "needs q1 <= median <= q3")
            med_r = row["ref"]["median"]
            ratio = row["change"]["median"] / med_r if med_r else 0.0
            expect(abs(row["ratio"] - ratio) <= 1e-9 * max(1.0, ratio),
                   rpath + ".ratio", "must equal change median / ref "
                   "median (%s)" % ratio)
            expect(row["wins"] <= entry["pairs"], rpath + ".wins",
                   "exceeds pairs (%d)" % entry["pairs"])
            expect(row["verdict"] in E2E_VERDICTS, rpath + ".verdict",
                   "unknown verdict %r" % row["verdict"])
    newest = entries[-1]
    meta = doc["meta"]
    expect((meta["git"], meta["build_type"], meta["num_cpus"])
           == (newest["change"], newest["build_type"],
               newest["num_cpus"]),
           path + ".meta", "must describe the newest entry")


def check_profile(doc, rows, where, path, opts):
    expect(rows, path + ".rows", "must not be empty")
    for i, row in enumerate(rows):
        expect(row["name"], where(i) + ".name", "must not be empty")
        expect(row["mode"] in PROFILE_MODES, where(i) + ".mode",
               "unknown mode %r" % row["mode"])
        check_each(row["phases"], PHASE, where(i) + ".phases")
        names = [p["name"] for p in row["phases"]]
        expect(names == PHASE_NAMES, where(i) + ".phases",
               "phase names %r != %r" % (names, PHASE_NAMES))
        for p in row["phases"]:
            expect(p["share"] <= 1.0 + 1e-9, where(i) + ".phases",
                   "share of %s must be <= 1" % p["name"])
        # Several threads step several bands, whose time the sharded
        # block reports; one band reports none.
        if row["threads"] > 1 or row["sharded"] is not None:
            check_sharded(row["sharded"], where(i) + ".sharded")


def check_sharded(sharded, path):
    check_fields(sharded, SHARDED, path)
    bands = sharded["band_starts"]
    check_list(bands, int, sharded["shards"], path + ".band_starts")
    expect(bands[0] == 0, path + ".band_starts", "must start at 0")
    expect(all(a < b for a, b in zip(bands, bands[1:])),
           path + ".band_starts", "must strictly increase")
    check_list(sharded["shard_busy_seconds"], COUNT, sharded["shards"],
               path + ".shard_busy_seconds")
    wait = check_fields(sharded["barrier_wait"], BARRIER,
                        path + ".barrier_wait")
    check_percentiles(wait, ("p50_ns", "p99_ns", "p999_ns", "max_ns"),
                      path + ".barrier_wait")


def check_heatmap(doc, windows, where, path, opts):
    mesh = check_fields(doc["mesh"], MESH, path + ".mesh")
    nodes = mesh["width"] * mesh["height"]
    expect(doc["metrics"] == HEATMAP_METRICS, path + ".metrics",
           "metric list %r != %r" % (doc["metrics"], HEATMAP_METRICS))
    check_tiling(windows, where, path + ".windows", opts.min_windows)
    for i, w in enumerate(windows):
        check_fields(w["link_util"], LINK_UTIL, where(i) + ".link_util",
                     exact=True)
        grids = {"link_util." + d: w["link_util"][d] for d in DIRS}
        grids.update((m, w[m]) for m in HEATMAP_METRICS[1:])
        for name, grid in grids.items():
            check_list(grid, COUNT, nodes, "%s.%s" % (where(i), name))


def check_timeseries(head, windows, where, path, opts):
    check_fields(head["mesh"], MESH, path + ".mesh")
    expect(head["steady_tolerance"] > 0.0, path + ".steady_tolerance",
           "must be positive")
    check_tiling(windows, where, path, opts.min_windows)
    for i, w in enumerate(windows):
        expect(w["window"] == i, where(i),
               "window index %s, expected %s" % (w["window"], i))
        latency = check_fields(w["latency"], LATENCY,
                               where(i) + ".latency")
        check_percentiles(latency, ("p50", "p99", "p999", "max"),
                          where(i) + ".latency")
        check_fields(w["va_grants"], VA_GRANTS, where(i) + ".va_grants",
                     exact=True)


def check_state_dump(doc, routers, where, path, opts):
    totals = check_fields(doc["totals"], TOTALS, path + ".totals")
    expect(totals["injected"] - totals["ejected"] == totals["resident"],
           path + ".totals", "injected - ejected != resident (%d - %d "
           "!= %d)" % (totals["injected"], totals["ejected"],
                       totals["resident"]))
    check_each(doc["endpoints"], ENDPOINT, path + ".endpoints")
    expect(routers, path + ".routers", "must not be empty")
    for key in ("routers", "endpoints"):
        nodes = [entry["node"] for entry in doc[key]]
        expect(nodes == list(range(len(routers))), path + "." + key,
               "must hold one entry per node, in node order")
    if "stall" in doc:
        stall = check_fields(doc["stall"], STALL, path + ".stall")
        expect(stall["class"] in STALL_CLASSES, path + ".stall.class",
               "unknown stall class %r" % stall["class"])
    check_each(doc.get("violations", []), VIOLATION,
               path + ".violations")
    check_each(doc.get("watchdog_events", []), WATCHDOG_EVENT,
               path + ".watchdog_events")


def check_packet_trace(head, packets, where, path, opts):
    ids = [p["packet"] for p in packets]
    expect(len(set(ids)) == len(ids), path, "packet ids are not unique")
    for i, p in enumerate(packets):
        if p["eject"] < 0:
            expect(p.get("complete") is False, where(i),
                   "eject -1 needs \"complete\": false")
        else:
            expect(p["create"] <= p["inject"] <= p["eject"], where(i),
                   "needs create <= inject <= eject (%d, %d, %d)"
                   % (p["create"], p["inject"], p["eject"]))
            check_value(p.get("latency"), int, where(i) + ".latency")
            expect(p["latency"] == p["eject"] - p["create"], where(i),
                   "latency must equal eject - create")
        check_each(p["hops"], HOP, where(i) + ".hops")
        for j, hop in enumerate(p["hops"]):
            stages = [t for t in (hop["arrive"], hop["va"], hop["st"])
                      if t >= 0]
            expect(stages == sorted(stages),
                   "%s.hops[%d]" % (where(i), j),
                   "needs arrive <= va <= st")


def check_chrome(doc, events, where, path, opts):
    expect(len(events) >= opts.min_events, path + ".traceEvents",
           "only %d events, expected >= %d"
           % (len(events), opts.min_events))
    for i, ev in enumerate(events):
        expect(ev.get("ph") in CHROME_EVENTS, where(i),
               "unknown phase type %r" % ev.get("ph"))
        check_fields(ev, CHROME_EVENTS[ev["ph"]], where(i))
        # Optional on M, B and E events, never negative.
        check_value(ev.get("ts", 0), COUNT, where(i) + ".ts")
        if ev["ph"] == "C":
            check_value(ev["args"].get("value"), float,
                        where(i) + ".args.value")

    def named(ph):
        return {ev["name"] for ev in events if ev["ph"] == ph}

    if opts.expect_packets:
        expect("pkt" in named("X"), path,
               "no packet lifecycle slices ('pkt' X events)")
        procs = {ev["args"].get("name") for ev in events
                 if ev["ph"] == "M" and ev["name"] == "process_name"}
        expect("packets" in procs, path,
               "no 'packets' process_name metadata event")
    if opts.expect_counters:
        missing = [t for t in COUNTER_TRACKS if t not in named("C")]
        expect(not missing, path, "missing counter tracks %r (run with "
               "--timeseries)" % missing)
    if opts.expect_phases:
        for phase in ("phase: warmup", "phase: measure"):
            expect(phase in named("i"), path,
                   "missing instant marker %r" % phase)


# kind -> (top-level table, key of the record list or None for the
# lines after a JSONL header, record table, check function)
KINDS = {
    BENCH_SCHEMA: (BENCH_TOP, "results", BENCH_RESULT, check_bench),
    MICRO_CYCLE: (MICRO_TOP, "results", MICRO_RESULT, check_micro),
    BENCH_E2E: (E2E_TOP, "entries", E2E_ENTRY, check_bench_e2e),
    "footprint.profile/1": (PROFILE_TOP, "rows", PROFILE_ROW,
                            check_profile),
    "footprint.heatmap/1": (HEATMAP_TOP, "windows", HEATMAP_WINDOW,
                            check_heatmap),
    "footprint.timeseries/1": (TIMESERIES_TOP, None, TIMESERIES_WINDOW,
                               check_timeseries),
    "footprint.state_dump/1": (STATE_DUMP_TOP, "routers", ROUTER,
                               check_state_dump),
    "footprint.packet_trace/1": (PACKET_TRACE_TOP, None, PACKET,
                                 check_packet_trace),
    CHROME_TRACE: (CHROME_TOP, "traceEvents", {}, check_chrome),
}


def load(path):
    """A JSON document as one record, a JSONL stream as one per line."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f if line.strip()]
    try:
        return [json.loads("".join(lines))]
    except json.JSONDecodeError:
        pass
    records = []
    for n, line in enumerate(lines, 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise ArtifactError("%s:%d: invalid JSON: %s" % (path, n, e))
    return records


def validate(path, opts):
    """Validate one file; return (kind name, head, records)."""
    records = load(path)
    expect(records, path, "empty file")
    head = records[0]
    expect(isinstance(head, dict), path, "top level must be an object")
    name = head.get("schema")
    if "traceEvents" in head:
        name = CHROME_TRACE
    elif name == BENCH_SCHEMA and head.get("kind") == "micro_cycle":
        name = MICRO_CYCLE
    expect(name in KINDS, path, "unknown artifact (schema %r)" % name)
    top, key, record, check = KINDS[name]
    expect(key is None or len(records) == 1, path,
           "must be one JSON document")
    check_fields(head, top, path)
    meta_key = "metadata" if name == CHROME_TRACE else "meta"
    check_fields(head[meta_key], META, "%s.%s" % (path, meta_key))
    items = records[1:] if key is None else head[key]

    def where(i):
        if key is None:
            return "%s:%d" % (path, i + 2)
        return "%s.%s[%d]" % (path, key, i)

    for i, item in enumerate(items):
        check_fields(item, record, where(i))
    check(head, items, where, path, opts)
    return name, head, items


def load_artifact(path, kind):
    """Validate @path as a @kind artifact; return its head (the
    document, or a stream's header line) and its records. Exits 1
    with the reason when @path is not a valid @kind artifact."""
    try:
        name, head, records = validate(path, parse_args([path]))
    except (ArtifactError, OSError) as e:
        sys.exit("FAIL: %s" % e)
    if name != kind:
        sys.exit("FAIL: %s: is a %s artifact, want %s" % (path, name, kind))
    return head, records


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", metavar="FILE")
    ap.add_argument("--min-windows", type=int, default=1,
                    help="timeseries/heatmap: at least N windows")
    ap.add_argument("--min-events", type=int, default=1,
                    help="chrome trace: at least N events")
    ap.add_argument("--expect-packets", action="store_true",
                    help="chrome trace: packet lifecycle slices")
    ap.add_argument("--expect-phases", action="store_true",
                    help="chrome trace: warmup/measure markers")
    ap.add_argument("--expect-counters", action="store_true",
                    help="chrome trace: window counter tracks")
    return ap.parse_args(argv)


def main(argv=None):
    opts = parse_args(argv)
    status = 0
    for path in opts.files:
        try:
            name, _, records = validate(path, opts)
            print("OK %s: %s, %d record(s)" % (path, name, len(records)))
        except (ArtifactError, OSError) as e:
            print("FAIL: %s" % e)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
