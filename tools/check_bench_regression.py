#!/usr/bin/env python3
"""Validate and gate footprint.bench/1 benchmark artifacts.

Two modes:

1. Baseline gate (default) — validate a bench_results.json produced by
   the sweep runner against the schema, then compare its per-cell
   saturation throughput and jobs/sec against a recorded baseline:

       check_bench_regression.py bench_results.json \
           --baseline bench/micro_baseline.json

   The baseline file holds the reference under a "sweep_baseline" key
   (so the same file can carry the micro-benchmark baseline used by
   check_telemetry_overhead.py). Saturation throughput drifting more
   than --max-sat-drift percent from the baseline in either direction
   fails the gate: simulation results are deterministic, so any drift
   is a behavioural change, not noise. jobs/sec is machine-dependent
   and only gates on *regression* beyond --max-speed-regress percent.
   A timing.schedule, when present, must hold one [start, end] per job
   with 0 <= start <= end <= wall_seconds; the sweep's makespan over
   ideal is then printed (never gated).

2. Determinism compare (--compare) — require two or more artifacts to
   be byte-identical after removing the "timing" object (the only
   section allowed to depend on thread count, schedule, or wall
   clock):

       check_bench_regression.py --compare j1.json j4.json j8.json

3. Micro-cycle gate (--micro) — validate a micro_cycle.json produced
   by bench/micro_cycle and compare it against the baseline recorded
   under "micro_cycle_baseline": per-config checksums must match the
   baseline EXACTLY (they are machine-independent; any difference is a
   behavioural change), and cycles/sec only gates on regression beyond
   --max-speed-regress percent (wall clock is machine-dependent).
   Rows with more threads than the candidate's meta.num_cpus are
   printed but not speed-gated: an oversubscribed row measures the
   runner, not the code. --min-speedup THREADS:X additionally fails
   any THREADS-thread sharded row slower than X times its @t1 row:

       check_bench_regression.py --micro micro_cycle.json \
           --baseline bench/micro_baseline.json --min-speedup 4:2.0

Exit status is 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "footprint.bench/1"

RESULT_FIELDS = {
    "job": int,
    "mesh": str,
    "routing": str,
    "traffic": str,
    "replicate": int,
    "probe": bool,
    "seed": int,
    "offered": (int, float),
    "accepted": (int, float),
    "latency": (int, float),
    "p50": (int, float),
    "p99": (int, float),
    "hops": (int, float),
    "cycles": int,
    "drained": bool,
    "saturated": bool,
    "stall": str,
}

SATURATION_FIELDS = {
    "mesh": str,
    "routing": str,
    "traffic": str,
    "throughput": (int, float),
    "zero_load_latency": (int, float),
}


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: {exc}")
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value must be an object")
    return doc


def check_fields(path: str, where: str, entry: dict, spec: dict) -> None:
    for key, types in spec.items():
        if key not in entry:
            fail(f"{path}: {where} missing field '{key}'")
        if not isinstance(entry[key], types):
            fail(
                f"{path}: {where} field '{key}' has type "
                f"{type(entry[key]).__name__}"
            )
    # bool is an int subclass in Python; keep int fields strictly int.
    for key, types in spec.items():
        if types is int and isinstance(entry[key], bool):
            fail(f"{path}: {where} field '{key}' must be an integer")


def validate(path: str, doc: dict) -> None:
    """Validate a document against the footprint.bench/1 schema."""
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want '{SCHEMA}'")
    for key in ("run", "sweep", "results", "saturation"):
        if key not in doc:
            fail(f"{path}: missing top-level key '{key}'")

    run = doc["run"]
    for key in ("git", "config_hash", "base_seed", "total_jobs"):
        if key not in run:
            fail(f"{path}: run missing field '{key}'")
    if run["total_jobs"] != len(doc["results"]):
        fail(
            f"{path}: run.total_jobs={run['total_jobs']} but results "
            f"has {len(doc['results'])} entries"
        )

    sweep = doc["sweep"]
    for key in ("rates", "routings", "meshes", "traffics", "seeds"):
        if key not in sweep:
            fail(f"{path}: sweep missing field '{key}'")

    for i, entry in enumerate(doc["results"]):
        check_fields(path, f"results[{i}]", entry, RESULT_FIELDS)
    seeds = [e["seed"] for e in doc["results"]]
    if len(set(seeds)) != len(seeds):
        fail(f"{path}: job seeds are not unique")

    for i, entry in enumerate(doc["saturation"]):
        check_fields(path, f"saturation[{i}]", entry, SATURATION_FIELDS)
    expected_cells = (
        len(sweep["meshes"]) * len(sweep["routings"]) * len(sweep["traffics"])
    )
    if len(doc["saturation"]) != expected_cells:
        fail(
            f"{path}: saturation has {len(doc['saturation'])} entries, "
            f"want {expected_cells} (meshes x routings x traffics)"
        )

    if "timing" in doc:
        timing = doc["timing"]
        for key in ("jobs", "wall_seconds", "jobs_per_sec"):
            if key not in timing:
                fail(f"{path}: timing missing field '{key}'")
        if "schedule" in timing:
            check_schedule(path, timing, len(doc["results"]))
    print(
        f"OK: {path}: valid {SCHEMA} document "
        f"({len(doc['results'])} results, "
        f"{len(doc['saturation'])} saturation cells)"
    )
    if "schedule" in doc.get("timing", {}):
        print_makespan(doc["timing"])


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_schedule(path: str, timing: dict, jobs: int) -> None:
    """timing.schedule: one [start, end] per job, in job order, with
    0 <= start <= end <= wall_seconds."""
    schedule = timing["schedule"]
    if not isinstance(schedule, list) or len(schedule) != jobs:
        fail(f"{path}: timing.schedule must list one [start, end] per "
             f"job ({jobs})")
    wall = timing["wall_seconds"]
    for i, span in enumerate(schedule):
        if (not isinstance(span, list) or len(span) != 2
                or not all(is_number(t) for t in span)):
            fail(f"{path}: timing.schedule[{i}] is not a [start, end] "
                 f"pair of numbers")
        start, end = span
        if not 0 <= start <= end <= wall:
            fail(f"{path}: timing.schedule[{i}] = {span} lies outside "
                 f"0 <= start <= end <= wall_seconds ({wall})")


def print_makespan(timing: dict) -> None:
    """Makespan over ideal, as perfbench defines it: wall over
    max(summed job seconds / workers, longest job). Printed, never
    gated: host noise moves it."""
    spans = [end - start for start, end in timing["schedule"]]
    ideal = max(sum(spans) / timing["jobs"], max(spans, default=0.0))
    if ideal > 0:
        print(f"schedule: makespan / ideal = "
              f"{timing['wall_seconds'] / ideal:.3f} "
              f"({len(spans)} jobs on {timing['jobs']} workers)")


def canonical(doc: dict) -> str:
    """Serialize a document with timing metadata removed."""
    stripped = {k: v for k, v in doc.items() if k != "timing"}
    return json.dumps(stripped, sort_keys=True, indent=1)


def compare_mode(paths: list[str]) -> None:
    docs = [load(p) for p in paths]
    for path, doc in zip(paths, docs):
        validate(path, doc)
    reference = canonical(docs[0])
    for path, doc in zip(paths[1:], docs[1:]):
        if canonical(doc) != reference:
            # Locate the first differing section for the error message.
            ref_doc = {k: v for k, v in docs[0].items() if k != "timing"}
            new_doc = {k: v for k, v in doc.items() if k != "timing"}
            for key in sorted(set(ref_doc) | set(new_doc)):
                if ref_doc.get(key) != new_doc.get(key):
                    fail(
                        f"{path} differs from {paths[0]} in section "
                        f"'{key}' (payloads must be identical modulo "
                        f"'timing')"
                    )
            fail(f"{path} differs from {paths[0]}")
    print(
        f"OK: {len(paths)} artifacts are identical modulo timing "
        f"metadata"
    )


MICRO_RESULT_FIELDS = {
    "name": str,
    "routing": str,
    "mode": str,
    "threads": int,
    "load": (int, float),
    "cycles": int,
    "wall_seconds": (int, float),
    "cycles_per_sec": (int, float),
    "full_cycles_per_sec": (int, float),
    "speedup": (int, float),
    "checksum": str,
}

# Row fields that newer producers emit but older artifacts may lack;
# validated for type when present.
MICRO_OPTIONAL_FIELDS = {
    "topology": str,
}


def warn_build_type(path: str, doc: dict, base_path: str | None,
                    base_doc: dict | None) -> None:
    """Warn when either side of a comparison was built non-Release.

    Checksums are build-type independent, so the gate itself still
    runs; but cycles/sec from a Debug/RelWithDebInfo build is not
    comparable to a Release baseline, so flag it loudly instead of
    letting a bogus speed regression (or a masked real one) through.
    """
    meta = doc.get("meta", {}) or doc.get("run", {})
    cand = meta.get("build_type")
    if cand is not None and cand.lower() != "release":
        print(
            f"WARNING: {path}: candidate built as '{cand}' (not "
            f"Release) — cycles/sec is not comparable to a Release "
            f"baseline",
            file=sys.stderr,
        )
    if base_doc is None:
        return
    ctx = base_doc.get("context", {})
    base = ctx.get("library_build_type")
    if base is not None and base.lower() != "release":
        print(
            f"WARNING: {base_path}: baseline recorded from a '{base}' "
            f"build — re-pin it from a Release build",
            file=sys.stderr,
        )


def micro_group(name: str) -> str:
    """Config group of a result row: 'sat16/dor@t4' -> 'sat16/dor'."""
    return name.split("@", 1)[0]


def check_thread_determinism(path: str, doc: dict) -> None:
    """Fail if any thread count's checksum diverges within a config.

    Rows sharing a base name (modulo the '@tN' suffix) are the same
    simulation run under different step modes / thread counts, so
    their checksums must be identical: parallel sharded stepping is
    required to be bit-identical to serial stepping.
    """
    groups: dict[str, list[dict]] = {}
    for entry in doc["results"]:
        groups.setdefault(micro_group(entry["name"]), []).append(entry)
    divergent = []
    for group, entries in sorted(groups.items()):
        sums = {e["checksum"] for e in entries}
        if len(sums) > 1:
            detail = ", ".join(
                f"{e['name']}={e['checksum']}" for e in entries
            )
            divergent.append(f"{group}: {detail}")
    if divergent:
        for msg in divergent:
            print(f"FAIL: {path}: checksum divergence across thread "
                  f"counts in {msg}", file=sys.stderr)
        sys.exit(1)
    multi = sum(1 for entries in groups.values() if len(entries) > 1)
    print(
        f"OK: {path}: checksums identical across step modes and "
        f"thread counts ({multi} configs with a thread axis)"
    )


def print_thread_scaling(doc: dict) -> None:
    """Summarize sharded cycles/sec against the serial row per config."""
    serial = {
        e["name"]: e for e in doc["results"] if e["mode"] != "sharded"
    }
    rows = [e for e in doc["results"] if e["mode"] == "sharded"]
    if not rows:
        return
    print(f"\n{'config':>22} {'threads':>7} {'c/s':>10} {'vs serial':>9}")
    for e in rows:
        ref = serial.get(micro_group(e["name"]))
        ref_cps = ref["cycles_per_sec"] if ref else 0.0
        scale = e["cycles_per_sec"] / ref_cps if ref_cps else 0.0
        print(
            f"{micro_group(e['name']):>22} {e['threads']:>7} "
            f"{e['cycles_per_sec']:>10.0f} {scale:>8.2f}x"
        )


def doc_num_cpus(doc: dict) -> int | None:
    """CPU count the artifact was measured on (meta.num_cpus)."""
    cpus = (doc.get("meta") or {}).get("num_cpus")
    return cpus if isinstance(cpus, int) and cpus > 0 else None


def parse_min_speedup(spec: str) -> tuple[int, float]:
    """Parse a --min-speedup 'THREADS:X' spec, e.g. '4:2.0'."""
    threads, sep, floor = spec.partition(":")
    try:
        if not sep:
            raise ValueError
        parsed = (int(threads), float(floor))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--min-speedup wants THREADS:X (e.g. 4:2.0), got {spec!r}"
        ) from None
    if parsed[0] < 2 or parsed[1] <= 0.0:
        raise argparse.ArgumentTypeError(
            f"--min-speedup wants THREADS >= 2 and X > 0, got {spec!r}"
        )
    return parsed


def thread_efficiency(doc: dict,
                      min_speedup: dict[int, float]) -> list[str]:
    """Report parallel efficiency of sharded rows against their @t1 row.

    For every sharded row with threads > 1 (skip-ahead rows excluded —
    their wall clock measures the fast path, not the worker crew), the
    reference is the same config's single-thread sharded row ('@t1'):
    speedup = cycles/sec over the @t1 row, efficiency = speedup /
    threads. Efficiency below 0.5 earns a stderr warning; a row whose
    thread count has a --min-speedup floor and falls short of it is a
    returned failure. Rows with more threads than the artifact's
    meta.num_cpus are never gated — there are not enough cores to
    measure that parallelism.
    """
    t1 = {
        micro_group(e["name"]): e
        for e in doc["results"]
        if e["mode"] == "sharded"
        and e["threads"] == 1
        and not e["name"].endswith("skip")
    }
    rows = [
        e for e in doc["results"]
        if e["mode"] == "sharded"
        and e["threads"] > 1
        and not e["name"].endswith("skip")
    ]
    failures: list[str] = []
    if not rows:
        return failures
    cpus = doc_num_cpus(doc)
    print(
        f"\n{'config':>22} {'topology':>8} {'threads':>7} "
        f"{'c/s':>10} {'vs @t1':>7} {'eff':>6}"
    )
    for e in rows:
        group = micro_group(e["name"])
        ref = t1.get(group)
        ref_cps = ref["cycles_per_sec"] if ref else 0.0
        speedup = e["cycles_per_sec"] / ref_cps if ref_cps else 0.0
        eff = speedup / e["threads"]
        print(
            f"{group:>22} {e.get('topology', '-'):>8} "
            f"{e['threads']:>7} {e['cycles_per_sec']:>10.0f} "
            f"{speedup:>6.2f}x {eff:>6.2f}"
        )
        if ref_cps and eff < 0.5:
            print(
                f"WARNING: {e['name']}: parallel efficiency "
                f"{eff:.2f} below 0.5 ({speedup:.2f}x on "
                f"{e['threads']} threads)",
                file=sys.stderr,
            )
        floor = min_speedup.get(e["threads"])
        if floor is None or not ref_cps:
            continue
        if cpus is not None and e["threads"] > cpus:
            print(
                f"WARNING: {e['name']}: not gated by --min-speedup "
                f"({e['threads']} threads > num_cpus {cpus})",
                file=sys.stderr,
            )
        elif speedup < floor:
            failures.append(
                f"{e['name']}: speedup {speedup:.2f}x over @t1 is "
                f"below --min-speedup {e['threads']}:{floor:.2f}"
            )
    return failures


def validate_micro(path: str, doc: dict) -> None:
    """Validate a micro_cycle document (kind=micro_cycle)."""
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want '{SCHEMA}'")
    if doc.get("kind") != "micro_cycle":
        fail(f"{path}: kind is {doc.get('kind')!r}, want 'micro_cycle'")
    for key in ("run", "results"):
        if key not in doc:
            fail(f"{path}: missing top-level key '{key}'")
    for key in ("mesh", "seed", "cycles"):
        if key not in doc["run"]:
            fail(f"{path}: run missing field '{key}'")
    if not doc["results"]:
        fail(f"{path}: results is empty")
    for i, entry in enumerate(doc["results"]):
        check_fields(path, f"results[{i}]", entry, MICRO_RESULT_FIELDS)
        present = {
            k: t for k, t in MICRO_OPTIONAL_FIELDS.items() if k in entry
        }
        check_fields(path, f"results[{i}]", entry, present)
    names = [e["name"] for e in doc["results"]]
    if len(set(names)) != len(names):
        fail(f"{path}: result names are not unique")
    print(
        f"OK: {path}: valid {SCHEMA} micro_cycle document "
        f"({len(doc['results'])} configs)"
    )


def micro_mode(args: argparse.Namespace) -> None:
    doc = load(args.micro)
    validate_micro(args.micro, doc)
    check_thread_determinism(args.micro, doc)
    print_thread_scaling(doc)
    scaling_failures = thread_efficiency(doc, dict(args.min_speedup))
    if args.baseline is None:
        warn_build_type(args.micro, doc, None, None)
        if scaling_failures:
            for msg in scaling_failures:
                print(f"FAIL: {msg}", file=sys.stderr)
            sys.exit(1)
        return

    base_doc = load(args.baseline)
    warn_build_type(args.micro, doc, args.baseline, base_doc)
    baseline = base_doc.get("micro_cycle_baseline")
    if baseline is None:
        fail(f"{args.baseline}: missing key 'micro_cycle_baseline'")

    base = {e["name"]: e for e in baseline.get("results", [])}
    cur = {e["name"]: e for e in doc["results"]}
    if set(base) != set(cur):
        missing = set(base) - set(cur)
        extra = set(cur) - set(base)
        fail(
            f"micro_cycle configs differ from baseline "
            f"(missing={sorted(missing)}, extra={sorted(extra)}) — "
            f"re-record the baseline if the config grid changed"
        )

    print(
        f"\n{'config':>18} {'baseline c/s':>13} {'current c/s':>12} "
        f"{'change':>8}  checksum"
    )
    failures = list(scaling_failures)
    cpus = doc_num_cpus(doc)
    for name in sorted(base):
        ref = base[name]
        now = cur[name]
        mark = "ok"
        if now["checksum"] != ref["checksum"]:
            mark = "MISMATCH"
            failures.append(
                f"{name}: checksum {ref['checksum']} -> "
                f"{now['checksum']} (simulation results changed)"
            )
        ref_cps = ref.get("cycles_per_sec", 0.0)
        now_cps = now["cycles_per_sec"]
        change = (
            100.0 * (now_cps - ref_cps) / ref_cps if ref_cps else 0.0
        )
        # An oversubscribed row measures the runner's core count, not
        # the code: report it, gate only its checksum.
        speed_gated = cpus is None or now["threads"] <= cpus
        if not speed_gated and mark == "ok":
            mark = "ok (speed not gated)"
        if speed_gated and ref_cps and -change > args.max_speed_regress:
            failures.append(
                f"{name}: cycles/sec regressed {-change:.1f}% "
                f"({ref_cps:.0f} -> {now_cps:.0f}, "
                f"> {args.max_speed_regress:.1f}%)"
            )
        print(
            f"{name:>18} {ref_cps:>13.0f} {now_cps:>12.0f} "
            f"{change:>+7.1f}%  {mark}"
        )

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        sys.exit(1)
    print("OK: checksums match baseline; speed within threshold")


def cell_key(entry: dict) -> tuple:
    return (entry["mesh"], entry["routing"], entry["traffic"])


def baseline_mode(args: argparse.Namespace) -> None:
    doc = load(args.results)
    validate(args.results, doc)
    if args.baseline is None:
        return

    base_doc = load(args.baseline)
    baseline = base_doc.get(args.baseline_key)
    if baseline is None:
        fail(f"{args.baseline}: missing key '{args.baseline_key}'")

    base_cells = {cell_key(e): e for e in baseline.get("saturation", [])}
    new_cells = {cell_key(e): e for e in doc["saturation"]}
    if set(base_cells) != set(new_cells):
        missing = set(base_cells) - set(new_cells)
        extra = set(new_cells) - set(base_cells)
        fail(
            f"saturation cells differ from baseline "
            f"(missing={sorted(missing)}, extra={sorted(extra)}) — "
            f"re-record the baseline if the pinned sweep changed"
        )

    print(
        f"\n{'mesh':>8} {'routing':>12} {'traffic':>10} "
        f"{'baseline':>10} {'current':>10} {'drift':>8}"
    )
    worst = 0.0
    failures = []
    for key in sorted(base_cells):
        ref = base_cells[key]["throughput"]
        cur = new_cells[key]["throughput"]
        drift = 100.0 * (cur - ref) / ref if ref else float("inf")
        worst = max(worst, abs(drift))
        mark = ""
        if abs(drift) > args.max_sat_drift:
            mark = "  <-- FAIL"
            failures.append(
                f"{'/'.join(key)}: saturation {ref:.4f} -> {cur:.4f} "
                f"({drift:+.1f}% > {args.max_sat_drift:.1f}%)"
            )
        print(
            f"{key[0]:>8} {key[1]:>12} {key[2]:>10} "
            f"{ref:>10.4f} {cur:>10.4f} {drift:>+7.1f}%{mark}"
        )
    print(
        f"\nworst saturation drift: {worst:.2f}% "
        f"(threshold {args.max_sat_drift:.1f}%)"
    )

    base_speed = baseline.get("jobs_per_sec")
    cur_speed = doc.get("timing", {}).get("jobs_per_sec")
    if base_speed and cur_speed:
        regress = 100.0 * (base_speed - cur_speed) / base_speed
        print(
            f"throughput: baseline {base_speed:.2f} jobs/s, current "
            f"{cur_speed:.2f} jobs/s ({-regress:+.1f}%)"
        )
        if regress > args.max_speed_regress:
            failures.append(
                f"jobs/sec regressed {regress:.1f}% "
                f"(> {args.max_speed_regress:.1f}%)"
            )
    elif base_speed:
        print(
            "note: results lack timing.jobs_per_sec; skipping speed "
            "gate"
        )

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        sys.exit(1)
    print("OK: within baseline thresholds")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "results",
        nargs="?",
        help="bench_results.json to validate and gate",
    )
    parser.add_argument(
        "--baseline",
        help="baseline JSON file (e.g. bench/micro_baseline.json); "
        "omit to only validate the schema",
    )
    parser.add_argument(
        "--baseline-key",
        default="sweep_baseline",
        help="key holding the sweep baseline inside the baseline file",
    )
    parser.add_argument(
        "--max-sat-drift",
        type=float,
        default=5.0,
        help="max allowed saturation drift in percent, either "
        "direction (default 5)",
    )
    parser.add_argument(
        "--max-speed-regress",
        type=float,
        default=20.0,
        help="max allowed jobs/sec regression in percent (default 20)",
    )
    parser.add_argument(
        "--min-speedup",
        type=parse_min_speedup,
        action="append",
        default=[],
        metavar="THREADS:X",
        help="micro mode: fail when a THREADS-thread sharded row's "
        "speedup over its single-thread sharded row falls below X "
        "(repeatable); rows with more threads than the artifact's "
        "meta.num_cpus are not gated",
    )
    parser.add_argument(
        "--compare",
        nargs="+",
        metavar="FILE",
        help="determinism mode: require all FILEs to be identical "
        "after stripping the 'timing' object",
    )
    parser.add_argument(
        "--micro",
        metavar="FILE",
        help="micro-cycle mode: validate a bench/micro_cycle artifact "
        "and gate its checksums (exact) and cycles/sec (regression "
        "only) against the 'micro_cycle_baseline' key of --baseline",
    )
    args = parser.parse_args()

    if args.compare:
        if args.results:
            args.compare.insert(0, args.results)
        if len(args.compare) < 2:
            parser.error("--compare needs at least two files")
        compare_mode(args.compare)
    elif args.micro:
        micro_mode(args)
    elif args.results:
        baseline_mode(args)
    else:
        parser.error(
            "give a results file, --micro FILE, or --compare FILE "
            "FILE..."
        )


if __name__ == "__main__":
    main()
