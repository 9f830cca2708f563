#!/usr/bin/env python3
"""Gate the overhead of compiled-in-but-disabled observability.

Runs the micro_router google-benchmark binary and compares the bare
whole-network-cycle benchmark (``BM_NetworkCycle/30``) against the same
loop carrying what runExperiment runs every cycle with every observer
off (``BM_NetworkCycleObsIdle``, DESIGN.md §9): the invariant auditor
and watchdog built with interval 0 as with ``audit`` off, their ticks,
the deadlock test and the flight-recorder null check, with no profiler
attached. The gate fails when the median idle/bare time ratio is more
than ``--threshold`` (default 2%) above 1.

The samples are paired: each pair runs the two benchmarks back to
back, one single-repetition process each, and alternates which goes
first, so host drift lands on both halves of a pair alike and the
ratio cancels it. (One google-benchmark process cannot pair them: its
JSON groups repetitions by benchmark, losing the run order.) The gate
takes the median over at least 20 pairs, so a single stalled run
cannot decide the verdict. Both benchmarks warm the network up untimed
and then time the same fixed number of cycles of the same trajectory
(google-benchmark names them with an ``/iterations:N`` suffix, which
the gate strips).

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

BARE = "BM_NetworkCycle/30"
IDLE = "BM_NetworkCycleObsIdle"
MIN_REPETITIONS = 20
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "micro_baseline.json")


def run_one(bench, name):
    """Run benchmark @name once; returns (report, real_time ns)."""
    cmd = [
        bench,
        "--benchmark_filter=^%s(/iterations:[0-9]+)?$" % name,
        "--benchmark_repetitions=1",
        "--benchmark_format=json",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True,
                         text=True).stdout
    report = json.loads(out)
    runs = [b for b in report.get("benchmarks", [])
            if b.get("run_type") != "aggregate"
            and re.sub(r"/iterations:[0-9]+$", "",
                       b.get("run_name", b["name"])) == name]
    if len(runs) != 1:
        raise SystemExit("error: expected one %s run, got %d"
                         % (name, len(runs)))
    return report, float(runs[0]["real_time"])


def run_pairs(bench, pairs):
    """Time BARE and IDLE back to back @pairs times, alternating order.

    Returns (report of the first run, {name: [ns per pair]}).
    """
    report = None
    times = {BARE: [], IDLE: []}
    for i in range(pairs):
        for name in (BARE, IDLE) if i % 2 == 0 else (IDLE, BARE):
            rep, ns = run_one(bench, name)
            report = report or rep
            times[name].append(ns)
    return report, times


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True,
                    help="path to the micro_router binary")
    ap.add_argument("--threshold", type=float, default=2.0,
                    help="max idle-observability overhead in percent")
    ap.add_argument("--repetitions", type=int, default=MIN_REPETITIONS,
                    help="bare/idle pairs (the median of the per-pair "
                         "ratios is gated; at least %d)"
                         % MIN_REPETITIONS)
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

    report, samples = run_pairs(args.bench, args.repetitions)
    times = {n: statistics.median(v) for n, v in samples.items()}
    ratios = sorted(i / b for b, i in zip(samples[BARE], samples[IDLE]))
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    overhead = 100.0 * (statistics.median(ratios) - 1.0)
    for name in (BARE, IDLE):
        print("%-32s %12.0f ns (median of %d)"
              % (name, times[name], args.repetitions))
    print("idle/bare ratio per pair: median %.4f, quartiles %.4f-%.4f"
          % (statistics.median(ratios), q1, q3))
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
        payload["times_ns"][BARE] = times[BARE]
        payload["times_ns"][IDLE] = times[IDLE]
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
