#!/usr/bin/env python3
"""Repo benchmark: build the harness, run one workload, print metrics.

    python3 perfbench/run.py --workload fig5_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

The harness (perfbench/harness.cpp) is built from the sources in src/
in Release under .bench_build/perfbench. It prints raw measurements;
this script turns them into the metrics named in BENCHMARK.json,
checks every job's result digest, and prints as its last line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench_harness"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("fig5_sweep", "sat16", "trace_light")
# Seed whose job digests are pinned in digests.json.
PINNED_SEED = 1
# Routings every workload runs; per-layer metrics carry them as suffix.
ROUTINGS = ("dbar", "footprint")
HARNESS_TIMEOUT_S = 170
# Profiler phases recorded only under serial stepping.
SERIAL_ONLY_PHASES = ("network.drain_ns_per_cycle",
                      "network.transmit_ns_per_cycle",
                      "router.compute_ns_per_router_cycle")



def units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def build():
    """Configure and build the harness; raise on failure."""
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j4", "--target",
         "perfbench_harness"],
        check=True, stdout=sys.stderr)


def run_harness(workload, seed, seconds, trace, short=False):
    """Run the harness once and return its raw JSON document."""
    workdir = BUILD / f"work-{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    if short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout)


def job_digests(rep):
    return [job["digest"] for job in rep["jobs"]]


def reference(raw):
    """Expected job digests (and sweep digest) for this run's seed."""
    if raw["seed"] == PINNED_SEED and not raw["short"]:
        pinned = json.loads(DIGESTS.read_text())[raw["workload"]]
        return pinned["jobs"], pinned.get("sweep")
    # Any other seed: every repetition, traced or not, must reproduce
    # the first untraced one.
    first = next(r for r in raw["reps"]
                 if not r["traced"] and "error" not in r)
    return job_digests(first), first.get("sweep_digest")


def count_failures(raw):
    """(attempted, failed) jobs over every repetition of the run."""
    attempted = failed = 0
    try:
        ref_jobs, ref_sweep = reference(raw)
    except StopIteration:
        ref_jobs, ref_sweep = None, None
    for rep in raw["reps"]:
        attempted += rep["job_count"]
        if "error" in rep or ref_jobs is None:
            failed += rep["job_count"]
            continue
        got = job_digests(rep)
        bad = sum(1 for a, b in zip(got, ref_jobs) if a != b)
        bad += abs(len(got) - len(ref_jobs))
        if "sweep_digest" in rep and rep["sweep_digest"] != ref_sweep:
            bad = rep["job_count"]
        failed += min(bad, rep["job_count"])
    return attempted, failed


def timed_reps(raw, traced):
    return [r for r in raw["reps"]
            if r["traced"] == traced and not r["warmup"]
            and not r["phase_split"] and "error" not in r]


def best_tenth(values, higher=False):
    """Mean of the best tenth of values (at least one value).

    Contention on a shared host only ever slows a repetition down, and
    it comes in episodes of seconds, so a median over one run follows
    the episodes. The best tenth estimates what the program costs
    when the host lets it run; see README.md.
    """
    xs = sorted(values, reverse=higher)
    return statistics.fmean(xs[:max(1, len(xs) // 10)])


def end_to_end(raw):
    reps = timed_reps(raw, traced=False)
    values = {
        "wall_s": best_tenth(r["wall_s"] for r in reps),
        "sim_cycles_per_s": best_tenth(
            (sum(j["cycles_run"] for j in r["jobs"]) / r["wall_s"]
             for r in reps), higher=True),
        "cpu_s": best_tenth(r["cpu_s"] for r in reps),
        "setup_s": best_tenth(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    unit = units()
    return {name: {"value": v, "unit": unit[name]}
            for name, v in values.items()}


def ratio(a, b):
    return a / b if b else 0.0


def routing_layers(jobs, routing, probe):
    """Per-layer metrics of one routing, summed over its jobs."""
    jobs = [j for j in jobs if j["routing"] == routing]
    phase_s = {}
    for j in jobs:
        for ph in j["profile"]["rows"][0]["phases"]:
            phase_s[ph["name"]] = phase_s.get(ph["name"], 0.0) + ph["seconds"]
    run = sum(j["cycles_run"] for j in jobs)
    ticked = sum(j["cycles_run"] - j["cycles_skipped"] for j in jobs)
    router_cycles = sum((j["cycles_run"] - j["cycles_skipped"])
                        * j["routers"] for j in jobs)
    # RunStats counters cover the measurement window only.
    window_router_cycles = sum(j["measure_cycles"] * j["routers"]
                               for j in jobs)
    success = sum(j["va_success"] for j in jobs)
    attempts = success + sum(j["va_fail"] for j in jobs)

    def per_cycle(phase):
        return ratio(phase_s.get(phase, 0.0) * 1e9, ticked)

    m = {
        "network.drain_ns_per_cycle": per_cycle("drain"),
        "network.transmit_ns_per_cycle": per_cycle("transmit"),
        "network.epilogue_ns_per_cycle": per_cycle("epilogue"),
        "network.link_ns_per_cycle": per_cycle("link"),
        "network.skip_ns_per_cycle": per_cycle("skip"),
        "network.skipped_share": ratio(run - ticked, run),
        "router.compute_ns_per_router_cycle":
            ratio(phase_s.get("compute", 0.0) * 1e9, router_cycles),
        "router.va_attempts_per_router_cycle":
            ratio(attempts, window_router_cycles),
        "router.va_useful_ratio": ratio(success, attempts),
        "router.flits_per_router_cycle":
            ratio(sum(j["flits_traversed"] for j in jobs),
                  window_router_cycles),
        "driver.inject_ns_per_cycle": per_cycle("inject"),
        "driver.collect_ns_per_cycle": per_cycle("collect"),
    }

    # Sharded stepping (0 when the workload steps serially).
    sharded = [j["profile"]["rows"][0] for j in jobs
               if j["profile"]["rows"][0]["sharded"]]
    def shard_mean(fn):
        return statistics.fmean(fn(r) for r in sharded) if sharded else 0.0
    m["shard.barrier_wait_ns_p50"] = shard_mean(
        lambda r: r["sharded"]["barrier_wait"]["p50_ns"])
    m["shard.barrier_wait_ns_p99"] = shard_mean(
        lambda r: r["sharded"]["barrier_wait"]["p99_ns"])
    m["shard.imbalance"] = shard_mean(
        lambda r: r["sharded"]["imbalance_ratio"])
    m["shard.busy_ratio"] = shard_mean(
        lambda r: ratio(sum(r["sharded"]["shard_busy_seconds"]),
                        r["wall_seconds"] * r["sharded"]["threads"]))

    # Routing probe (0 on workloads that do not run it).
    p = probe.get(routing, {})
    m["routing.route_ns_p50"] = p.get("p50_ns", 0.0)
    m["routing.route_ns_p99"] = p.get("p99_ns", 0.0)
    m["routing.route_share_est"] = ratio(
        m["router.va_attempts_per_router_cycle"] * m["routing.route_ns_p50"],
        m["router.compute_ns_per_router_cycle"])
    return m


def exec_layer(rep, workers):
    """Job scheduling metrics of one traced sweep repetition."""
    spans = [j["seconds"] for j in rep["jobs"]]
    busy = sum(spans)
    longest = max(spans)
    return {
        "exec.job_s_p50": statistics.median(spans),
        "exec.job_s_max": longest,
        "exec.pool_busy_ratio": ratio(busy, rep["wall_s"] * workers),
        "exec.makespan_over_ideal":
            ratio(rep["wall_s"], max(busy / workers, longest)),
    }


def per_layer(raw):
    traced = timed_reps(raw, traced=True)
    untraced = timed_reps(raw, traced=False)
    split = [r for r in raw["reps"] if r["phase_split"]]
    per_rep = []
    for rep in traced:
        m = {}
        for routing in ROUTINGS:
            layers = routing_layers(rep["jobs"], routing, raw["probe"])
            if split:
                # Sharded stepping: phase split from the serial re-run.
                serial = routing_layers(split[0]["jobs"], routing,
                                        raw["probe"])
                for name in SERIAL_ONLY_PHASES:
                    layers[name] = serial[name]
                layers["routing.route_share_est"] = \
                    serial["routing.route_share_est"]
            for name, v in layers.items():
                m[f"{name}.{routing}"] = v
        if raw["workload"] == "fig5_sweep":
            m.update(exec_layer(rep, raw["context"]["workers"]))
        else:
            m.update(dict.fromkeys(
                ("exec.job_s_p50", "exec.job_s_max",
                 "exec.pool_busy_ratio", "exec.makespan_over_ideal"), 0.0))
        per_rep.append(m)
    values = {name: statistics.median(m[name] for m in per_rep)
              for name in per_rep[0]}
    for routing, ms in raw["network_build_ms"].items():
        if routing in ROUTINGS:
            values[f"network.build_ms.{routing}"] = statistics.median(ms)
    values["traffic.trace_gen_s"] = statistics.median(raw["trace_gen_s"])
    values["obs.trace_overhead"] = ratio(
        best_tenth(r["wall_s"] for r in traced),
        best_tenth(r["wall_s"] for r in untraced)) - 1.0
    unit = units()
    return {name: {"value": v, "unit": unit[name]}
            for name, v in sorted(values.items())}


def context(raw):
    ctx = dict(raw["context"], workload=raw["workload"])
    ctx["timing_valid"] = ctx["build_type"] == "Release"
    ctx["timed_reps"] = len(timed_reps(raw, traced=False))
    return ctx


def measure(workload, seed, seconds, trace, short=False):
    """Run one workload; return (context, result object)."""
    raw = run_harness(workload, seed, seconds, trace, short)
    attempted, failed = count_failures(raw)
    metrics = per_layer(raw) if trace else end_to_end(raw)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return context(raw), result


def pin():
    """Rewrite digests.json from untraced runs of PINNED_SEED."""
    pinned = {}
    for workload in WORKLOADS:
        raw = run_harness(workload, PINNED_SEED, 0, False)
        rep = raw["reps"][0]
        pinned[workload] = {"jobs": job_digests(rep)}
        if "sweep_digest" in rep:
            pinned[workload]["sweep"] = rep["sweep_digest"]
    DIGESTS.write_text(json.dumps(pinned, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--pin", action="store_true",
                    help=f"re-pin digests.json for seed {PINNED_SEED}")
    args = ap.parse_args()

    try:
        build()
        if args.pin:
            pin()
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            ctx, res = measure(workload, args.seed, args.seconds,
                               args.trace == 1, args.short)
            if not ctx["timing_valid"]:
                print(f"warning: {ctx['build_type']} build; timings are "
                      "not valid", file=sys.stderr)
            print("context " + json.dumps(ctx))
            for name, m in res["metrics"].items():
                print(f"{workload:12s} {name:44s} {m['value']:14.6g} "
                      f"{m['unit']}")
            results[workload] = res
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError, TypeError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
