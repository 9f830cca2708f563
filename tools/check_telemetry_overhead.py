#!/usr/bin/env python3
"""Gate the overhead of compiled-in-but-disabled observability.

Runs the micro_router google-benchmark binary and compares the bare
whole-network-cycle benchmark (``BM_NetworkCycle/30``) against the same
loop carrying what runExperiment runs every cycle with every observer
off (``BM_NetworkCycleObsIdle``, DESIGN.md §9): the invariant auditor
and watchdog built with interval 0 as with ``audit`` off, their ticks,
the deadlock test and the flight-recorder null check, with no profiler
attached. The gate fails when the idle-observability variant's median
is more than ``--threshold`` (default 2%) above the bare loop's.

The two benchmarks run in one process with
``--benchmark_enable_random_interleaving``, so their repetitions are
shuffled together and host drift during the run lands on both sides
alike; the gate compares medians over at least 20 repetitions each,
so a single stalled repetition cannot decide the verdict. Both warm
the network up untimed and then time the same fixed number of cycles
of the same trajectory (google-benchmark names them with an
``/iterations:N`` suffix, which the gate strips).

A recorded baseline (``bench/micro_baseline.json``, written with
``--record``) provides a second, advisory comparison of absolute
timings against the checked-in reference machine; it warns by default
and only fails under ``--enforce-baseline``.

Usage:
  tools/check_telemetry_overhead.py --bench build/bench/micro_router
  tools/check_telemetry_overhead.py --bench ... --record  # new baseline
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

BARE = "BM_NetworkCycle/30"
IDLE = "BM_NetworkCycleObsIdle"
MIN_REPETITIONS = 20
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "micro_baseline.json")


def run_benchmarks(bench, repetitions):
    """Run the two gated benchmarks interleaved.

    Returns (report, {name: median real_time ns}, {name: repetitions}).
    """
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as f:
        out_path = f.name
    try:
        cmd = [
            bench,
            "--benchmark_filter=^(%s|%s)(/iterations:[0-9]+)?$"
            % (BARE, IDLE),
            "--benchmark_repetitions=%d" % repetitions,
            "--benchmark_enable_random_interleaving=true",
            "--benchmark_report_aggregates_only=false",
            "--benchmark_out_format=json",
            "--benchmark_out=%s" % out_path,
        ]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        with open(out_path) as f:
            report = json.load(f)
    finally:
        os.unlink(out_path)

    samples = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["run_name"] if "run_name" in b else b["name"]
        name = re.sub(r"/iterations:[0-9]+$", "", name)
        samples.setdefault(name, []).append(float(b["real_time"]))
    medians = {n: statistics.median(v) for n, v in samples.items()}
    counts = {n: len(v) for n, v in samples.items()}
    return report, medians, counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True,
                    help="path to the micro_router binary")
    ap.add_argument("--threshold", type=float, default=2.0,
                    help="max idle-observability overhead in percent")
    ap.add_argument("--repetitions", type=int, default=MIN_REPETITIONS,
                    help="benchmark repetitions (medians are compared; "
                         "at least %d)" % MIN_REPETITIONS)
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="recorded-baseline JSON path")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the baseline file from this run")
    ap.add_argument("--enforce-baseline", action="store_true",
                    help="fail (not warn) on recorded-baseline drift")
    ap.add_argument("--baseline-tolerance", type=float, default=25.0,
                    help="allowed drift vs recorded baseline, percent")
    args = ap.parse_args()
    if args.repetitions < MIN_REPETITIONS:
        ap.error("--repetitions must be at least %d" % MIN_REPETITIONS)

    report, times, counts = run_benchmarks(args.bench, args.repetitions)
    missing = [n for n in (BARE, IDLE)
               if counts.get(n, 0) < args.repetitions]
    if missing:
        print("error: benchmarks missing repetitions in report: %s"
              % missing)
        return 2

    bare, idle = times[BARE], times[IDLE]
    overhead = 100.0 * (idle - bare) / bare
    print("%-32s %12.0f ns (median of %d)" % (BARE, bare, counts[BARE]))
    print("%-32s %12.0f ns (median of %d)" % (IDLE, idle, counts[IDLE]))
    print("idle-observability overhead: %+.2f%% (threshold %.1f%%)"
          % (overhead, args.threshold))

    if args.record:
        # Preserve unrelated sections (e.g. the sweep_baseline used by
        # check_bench_regression.py) when re-recording the micro times.
        payload = {}
        if os.path.exists(args.baseline):
            with open(args.baseline) as f:
                payload = json.load(f)
        payload["context"] = report.get("context", {})
        payload.setdefault("times_ns", {})
        payload["times_ns"][BARE] = bare
        payload["times_ns"][IDLE] = idle
        with open(args.baseline, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print("recorded baseline -> %s" % args.baseline)

    status = 0
    if overhead > args.threshold:
        print("FAIL: disabled observability costs more than %.1f%%"
              % args.threshold)
        status = 1

    # Advisory absolute comparison against the recorded reference run.
    if not args.record and os.path.exists(args.baseline):
        with open(args.baseline) as f:
            recorded = json.load(f).get("times_ns", {})
        for name in (BARE, IDLE):
            if name not in recorded:
                continue
            drift = 100.0 * (times[name] - recorded[name]) \
                / recorded[name]
            print("baseline drift %-28s %+.1f%%" % (name, drift))
            if drift > args.baseline_tolerance:
                msg = ("recorded-baseline regression on %s "
                       "(%.1f%% > %.1f%%)"
                       % (name, drift, args.baseline_tolerance))
                if args.enforce_baseline:
                    print("FAIL: " + msg)
                    status = 1
                else:
                    print("warn: " + msg
                          + " (advisory; different machines differ)")

    if status == 0:
        print("OK")
    return status


if __name__ == "__main__":
    sys.exit(main())
