#!/usr/bin/env python3
"""Gate footprint.bench/1 benchmark artifacts.

Every mode first validates its artifacts through tools/check_artifact.py
(the one artifact contract), then applies its gates:

1. Baseline gate (default) — compare the per-cell saturation throughput
   and jobs/sec of a bench_results.json produced by the sweep runner
   against a recorded baseline:

       check_bench_regression.py bench_results.json \
           --baseline bench/micro_baseline.json

   The baseline file holds the reference under a "sweep_baseline" key
   (the same file carries mode 3's micro_cycle pins). Saturation
   throughput drifting more than --max-sat-drift percent from the
   baseline in either direction fails the gate: simulation results are
   deterministic, so any drift is a behavioural change, not noise.
   jobs/sec is machine-dependent and only gates on *regression* beyond
   --max-speed-regress percent. When the document carries a
   timing.schedule, the sweep's makespan over ideal is printed (never
   gated).

2. Determinism compare (--compare) — require two or more artifacts to
   be byte-identical after removing the "timing" object (the only
   section allowed to depend on thread count, schedule, or wall
   clock):

       check_bench_regression.py --compare j1.json j4.json j8.json

3. Micro-cycle gate (--micro) — compare a micro_cycle.json produced
   by bench/micro_cycle against the baseline recorded
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

import check_artifact


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


def load_checked(path: str, kind: str) -> dict:
    """Validate @path through check_artifact.py; it must be @kind."""
    doc, results = check_artifact.load_artifact(path, kind)
    print(f"OK: {path}: valid {kind} document ({len(results)} results)")
    if "schedule" in doc.get("timing", {}):
        print_makespan(doc["timing"])
    return doc


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
    docs = [load_checked(p, check_artifact.BENCH_SCHEMA) for p in paths]
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


def warn_build_type(path: str, build_type: str, what: str) -> None:
    """Warn when @what (candidate or baseline) was built non-Release.

    Checksums are build-type independent, so the gate itself still
    runs; but cycles/sec from a Debug/RelWithDebInfo build is not
    comparable to a Release one, so flag it loudly instead of letting
    a bogus speed regression (or a masked real one) through.
    """
    if build_type.lower() != "release":
        print(
            f"WARNING: {path}: {what} built as '{build_type}' (not "
            f"Release) — cycles/sec is not comparable across build "
            f"types",
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
    cpus = doc["meta"]["num_cpus"]
    return cpus if cpus > 0 else None


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


def micro_mode(args: argparse.Namespace) -> None:
    doc = load_checked(args.micro, check_artifact.MICRO_CYCLE)
    check_thread_determinism(args.micro, doc)
    print_thread_scaling(doc)
    scaling_failures = thread_efficiency(doc, dict(args.min_speedup))
    warn_build_type(args.micro, doc["meta"]["build_type"], "candidate")
    if args.baseline is None:
        if scaling_failures:
            for msg in scaling_failures:
                print(f"FAIL: {msg}", file=sys.stderr)
            sys.exit(1)
        return

    baseline = load(args.baseline).get("micro_cycle_baseline")
    if baseline is None:
        fail(f"{args.baseline}: missing key 'micro_cycle_baseline'")
    warn_build_type(args.baseline, baseline.get("build_type", "Release"),
                    "baseline")

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
    doc = load_checked(args.results, check_artifact.BENCH_SCHEMA)
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
