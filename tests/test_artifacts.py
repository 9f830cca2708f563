#!/usr/bin/env python3
"""The artifact contract end to end: every writer's output passes
tools/check_artifact.py, and every broken copy of it fails.

Runs simulate and micro_cycle in a temporary directory to write the
eight artifact kinds the simulator writes, and tools/ab.py's recorder
to write an A/B trajectory file, validates them through the tool, then
builds mutants: for each kind, every required field of the top-level table,
of the first record and of the run-metadata header is deleted in turn,
and the semantic mutations in MUTATIONS are applied one at a time. The
tool must exit 1 on every mutant, for the reason the mutation names.
The two renderers, which load through the tool, must render their own
kind and refuse the other. The hotspot run, rerun elsewhere with the
execution knobs --console and --jobs added, must write byte-identical
artifacts. A sweep whose --bench-out cannot be opened must end in
fatal: before its first job runs.

Usage: test_artifacts.py SIMULATE MICRO_CYCLE
"""

import contextlib
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "tools")
sys.path.insert(0, TOOLS)
import ab  # noqa: E402
import check_artifact  # noqa: E402

FLAGS = ["--min-windows", "3", "--expect-packets", "--expect-phases",
         "--expect-counters"]

# One file per kind; the mutants start from these.
FILES = {
    "footprint.bench/1": "bench.json",
    "footprint.bench/1 micro_cycle": "micro.json",
    "footprint.profile/1": "sharded_profile.json",
    "footprint.heatmap/1": "heatmap.json",
    "footprint.timeseries/1": "timeseries.jsonl",
    "footprint.state_dump/1": "state_dump.json",
    "footprint.packet_trace/1": "trace.jsonl",
    "chrome trace": "trace.json",
    "footprint.bench_e2e/1": "bench_e2e.json",
}


# The CI sanitizer job's saturating hotspot run, every observer on.
HOTSPOT = ["traffic=hotspot", "injection_rate=1.0", "background_rate=0.9",
           "mesh_width=4", "mesh_height=4", "num_vcs=4",
           "warmup_cycles=200", "measure_cycles=400", "drain_cycles=800",
           "timeseries_interval=100", "--timeseries", "--audit",
           "--dump-on-abort", "--chrome-trace", "--profile", "--heatmap",
           "--trace-packets", "50"]

# The hotspot run's artifacts that carry no wall-clock time.
TIMELESS = ["timeseries.jsonl", "heatmap.json", "state_dump.json",
            "trace.jsonl"]

SHORT = ["mesh_width=4", "mesh_height=4", "warmup_cycles=100",
         "measure_cycles=200", "drain_cycles=1000"]


def generate(simulate, micro_cycle, tmp):
    """Write every artifact kind from real runs into @tmp."""
    runs = [
        [simulate] + HOTSPOT,
        [simulate, "step_mode=sharded", "threads=2", "--profile",
         "profile_out=sharded_profile.json"] + SHORT,
        [simulate, "--sweep", "0.1,0.3", "--bench-out", "bench.json"]
        + SHORT,
        [micro_cycle, "--point", "sat16", "--cycles", "60", "--out",
         "micro.json"],
    ]
    for argv in runs:
        subprocess.run(argv, check=True, cwd=tmp,
                       stdout=subprocess.DEVNULL)
    write_bench_e2e(os.path.join(tmp, FILES["footprint.bench_e2e/1"]))


def write_bench_e2e(path):
    """A one-entry A/B trajectory file, through tools/ab.py's recorder."""
    def row(metric, ref, chg, wins, verdict):
        return {"workload": "trace_light", "metric": metric,
                "ref": {"median": ref, "q1": ref * 0.98, "q3": ref * 1.02},
                "change": {"median": chg, "q1": chg * 0.98,
                           "q3": chg * 1.02},
                "ratio": chg / ref, "wins": wins, "verdict": verdict}
    ab.record(ab.Path(path), {
        "label": "example", "ref": "a" * 40, "change": "b" * 40,
        "num_cpus": 4, "build_type": "Release", "pairs": 10,
        "seconds": 6.0,
        "results": [row("wall_s", 0.45, 0.37, 10, "gain"),
                    row("peak_rss_mb", 16.4, 16.4, 0, "within bound")],
    }, 1)


def changed_by_execution_knobs(simulate, tmp):
    """Rerun the hotspot run with --console --jobs 3 in its own
    directory; return the TIMELESS artifacts that differ from @tmp's."""
    with tempfile.TemporaryDirectory(prefix="fp_knobs_") as other:
        subprocess.run([simulate] + HOTSPOT + ["--console", "--jobs", "3"],
                       check=True, cwd=other, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        return [f for f in TIMELESS
                if not filecmp.cmp(os.path.join(tmp, f),
                                   os.path.join(other, f), shallow=False)]


def first(records, key):
    return records[1] if key is None else records[0][key][0]


def dup_key(records, key, field):
    items = records[1:] if key is None else records[0][key]
    items[1][field] = items[0][field]


def put(target, path, value):
    """target[path...] = value(old value, the object holding it)."""
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value(target[path[-1]], target)


# (kind, mutation, expected message fragment): each breaks one rule
# that no field table can state.
MUTATIONS = [
    ("footprint.bench/1", "duplicate job seed",
     lambda r: dup_key(r, "results", "seed"), "job seeds are not unique"),
    ("footprint.bench/1", "schedule entry ends before it starts",
     lambda r: put(r[0], ["timing", "schedule", 0],
                   lambda old, _: [1.0, 0.5]), "lies outside"),
    ("footprint.bench/1 micro_cycle", "duplicate result name",
     lambda r: dup_key(r, "results", "name"), "names are not unique"),
    ("footprint.profile/1", "barrier-wait p999 above max",
     lambda r: put(first(r, "rows"), ["sharded", "barrier_wait", "p999_ns"],
                   lambda _, bw: bw["max_ns"] + 1),
     "capped by max"),
    ("footprint.profile/1", "multi-thread row without its sharded block",
     lambda r: put(first(r, "rows"), ["sharded"], lambda old, _: None),
     "sharded: must be an object"),
    ("footprint.heatmap/1", "window that breaks tiling",
     lambda r: put(r[0], ["windows", 1, "start"], lambda old, _: old + 1),
     "tile the run"),
    ("footprint.timeseries/1", "latency p999 above max",
     lambda r: put(first(r, None), ["latency", "p999"],
                   lambda _, lat: lat["max"] + 1), "capped by max"),
    ("footprint.state_dump/1", "injected - ejected != resident",
     lambda r: put(r[0], ["totals", "resident"], lambda old, _: old + 1),
     "injected - ejected != resident"),
    ("footprint.state_dump/1", "one endpoint short",
     lambda r: r[0]["endpoints"].pop(), "one entry per node"),
    ("footprint.state_dump/1", "unknown stall class",
     lambda r: put(r[0], ["stall", "class"], lambda old, _: "livelock"),
     "unknown stall class"),
    ("footprint.state_dump/1", "cycle of the wrong type",
     lambda r: put(r[0], ["cycle"], lambda old, _: str(old)), ".cycle"),
    ("footprint.state_dump/1", "violation with a string node",
     lambda r: r[0].update(violations=[
         {"check": "credit", "node": "5", "cycle": 1, "detail": ""}]),
     "violations[0].node"),
    ("footprint.state_dump/1", "watchdog event without detail",
     lambda r: r[0].update(watchdog_events=[{"kind": "stall",
                                             "cycle": 1}]),
     "watchdog_events[0]"),
    ("footprint.packet_trace/1", "eject before inject",
     lambda r: put(first(r, None), ["inject"], lambda _, p: p["eject"] + 1),
     "create <= inject <= eject"),
    ("footprint.packet_trace/1", "latency != eject - create",
     lambda r: put(first(r, None), ["latency"], lambda old, _: old + 1),
     "latency must equal"),
    ("footprint.packet_trace/1", "VC allocation before arrival",
     lambda r: put(first(r, None), ["hops", 0, "va"],
                   lambda _, hop: hop["arrive"] - 1),
     "arrive <= va <= st"),
    ("footprint.packet_trace/1", "size of the wrong type",
     lambda r: put(first(r, None), ["size"], lambda old, _: str(old)),
     ".size"),
    ("footprint.packet_trace/1", "duplicate packet id",
     lambda r: dup_key(r, None, "packet"), "packet ids are not unique"),
    ("chrome trace", "unknown event phase",
     lambda r: put(r[0], ["traceEvents", 0, "ph"], lambda old, _: "Q"),
     "unknown phase type"),
    ("footprint.bench_e2e/1", "ratio that is not change / ref",
     lambda r: put(first(r, "entries"), ["results", 0, "ratio"],
                   lambda old, _: old * 2), "must equal change median"),
    ("footprint.bench_e2e/1", "median above its third quartile",
     lambda r: put(first(r, "entries"), ["results", 0, "change", "median"],
                   lambda _, s: s["q3"] + 1), "q1 <= median <= q3"),
    ("footprint.bench_e2e/1", "more wins than pairs",
     lambda r: put(first(r, "entries"), ["results", 0, "wins"],
                   lambda old, _: 11), "exceeds pairs"),
    ("footprint.bench_e2e/1", "unknown verdict",
     lambda r: put(first(r, "entries"), ["results", 0, "verdict"],
                   lambda old, _: "faster"), "unknown verdict"),
    ("footprint.bench_e2e/1", "duplicate workload/metric row",
     lambda r: first(r, "entries")["results"].append(
         dict(first(r, "entries")["results"][0])), "appears twice"),
    ("footprint.bench_e2e/1", "meta header of another run",
     lambda r: put(r[0], ["meta", "git"], lambda old, _: "c" * 40),
     "must describe the newest entry"),
]


def deletions(name, records):
    """Mutators that each delete one required field."""
    table, key, record, _ = check_artifact.KINDS[name]
    meta = "metadata" if name == "chrome trace" else "meta"
    item = first(records, key)
    if name == "chrome trace":
        record = dict(check_artifact.CHROME_EVENTS[item["ph"]], ph=str)
    out = []
    for field in table:
        out.append(("top-level %r" % field,
                    lambda r, f=field: r[0].pop(f)))
    for field in record:
        out.append(("first-record %r" % field,
                    lambda r, f=field: first(r, key).pop(f)))
    for field in check_artifact.META:
        out.append(("meta %r" % field,
                    lambda r, f=field: r[0][meta].pop(f)))
    return out


def write(path, records, stream):
    with open(path, "w", encoding="utf-8") as f:
        if stream:
            f.writelines(json.dumps(r) + "\n" for r in records)
        else:
            f.write(json.dumps(records[0]))


def rejects(path):
    """Run the tool in-process on @path: (exit status, its output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = check_artifact.main([path] + FLAGS)
    return status, out.getvalue()


def main():
    simulate, micro_cycle = sys.argv[1:3]
    tool = os.path.join(TOOLS, "check_artifact.py")
    failures = []
    with tempfile.TemporaryDirectory(prefix="fp_artifacts_") as tmp:
        generate(simulate, micro_cycle, tmp)
        valid = [os.path.join(tmp, f) for f in sorted(os.listdir(tmp))]
        result = subprocess.run([sys.executable, tool] + valid + FLAGS,
                                capture_output=True, text=True)
        print(result.stdout, end="")
        if result.returncode != 0:
            failures.append("real artifacts failed validation")
        # "OK <path>: <kind>, <n> record(s)"
        kinds = {line.split(": ", 1)[1].rsplit(", ", 1)[0]
                 for line in result.stdout.splitlines()
                 if line.startswith("OK ")}
        if kinds != set(FILES):
            failures.append("kinds written %r != %r" % (kinds, set(FILES)))
        changed = changed_by_execution_knobs(simulate, tmp)
        if changed:
            failures.append("--console --jobs 3 changed %s"
                            % ", ".join(changed))

        mutants = [(name, what, fn, None)
                   for name, file in FILES.items()
                   for what, fn in deletions(
                       name, check_artifact.load(os.path.join(tmp, file)))]
        mutants += MUTATIONS
        for i, (name, what, mutate, message) in enumerate(mutants):
            source = os.path.join(tmp, FILES[name])
            records = check_artifact.load(source)
            mutate(records)
            path = os.path.join(tmp, "mutant%d%s"
                                % (i, os.path.splitext(source)[1]))
            write(path, records, check_artifact.KINDS[name][1] is None)
            status, output = rejects(path)
            if status != 1 or (message and message not in output):
                failures.append("%s with %s: exit %d, %s"
                                % (name, what, status, output.strip()))

        # The command line itself exits 1 on a mutant.
        cli = subprocess.run([sys.executable, tool, path],
                             capture_output=True, text=True)
        if cli.returncode != 1:
            failures.append("CLI exit %d on a mutant" % cli.returncode)

        # The renderers load through the tool: each renders its own
        # kind and refuses the other.
        renders = {"render_heatmap.py": FILES["footprint.heatmap/1"],
                   "render_timeseries.py":
                       FILES["footprint.timeseries/1"]}
        for script, own in renders.items():
            for file in renders.values():
                run = subprocess.run(
                    [sys.executable, os.path.join(TOOLS, script),
                     os.path.join(tmp, file)],
                    capture_output=True, text=True)
                want = 0 if file == own else 1
                if run.returncode != want:
                    failures.append("%s on %s: exit %d, want %d (%s)"
                                    % (script, file, run.returncode, want,
                                       run.stderr.strip()))

        # The bench file opens before the sweep's first job.
        run = subprocess.run(
            [simulate, "--sweep", "0.1,0.3", "--bench-out",
             os.path.join(tmp, "missing", "b.json")] + SHORT,
            capture_output=True, text=True)
        if (run.returncode != 1
                or "fatal: cannot open bench results file" not in run.stderr
                or "--- sweep results ---" in run.stdout):
            failures.append("unopenable --bench-out: exit %d, %s"
                            % (run.returncode, run.stderr.strip()))
    for msg in failures:
        print("FAIL: %s" % msg)
    print("%d mutants over %d kinds; %d failure(s)"
          % (len(mutants), len(FILES), len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
