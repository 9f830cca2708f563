#!/usr/bin/env python3
"""Render footprint.timeseries/1 streams as ASCII sparklines or PNG.

Reads the windowed flight-recorder stream written by
``simulate --timeseries`` (DESIGN.md §15) and renders the run's
trajectory: accepted/offered throughput, windowed latency percentiles,
in-flight backlog, and the per-regime VC-allocation grant mix that
makes Footprint's Algorithm-1 regime transitions visible over time.
ASCII sparklines on stdout by default; a multi-panel PNG when --png is
given and matplotlib is installed (the import is gated, so the ASCII
path has no dependencies beyond the standard library). The file is
validated through tools/check_artifact.py first: anything but a valid
footprint.timeseries/1 artifact exits 1.

Usage:
  tools/render_timeseries.py timeseries.jsonl
  tools/render_timeseries.py timeseries.jsonl --metric p99
  tools/render_timeseries.py timeseries.jsonl --regimes
  tools/render_timeseries.py timeseries.jsonl --png run.png

Metrics: accepted (default), offered, p50, p99, p999, mean, in_flight,
active_nodes, packets, va_fails, watchdog_events.
"""

import argparse
import sys

import check_artifact

SPARKS = "▁▂▃▄▅▆▇█"
VA_REGIMES = ["escape", "busy", "footprint", "idle", "reclaim"]

METRICS = {
    "accepted": lambda w: w["accepted_rate"],
    "offered": lambda w: w["offered_rate"],
    "p50": lambda w: w["latency"]["p50"],
    "p99": lambda w: w["latency"]["p99"],
    "p999": lambda w: w["latency"]["p999"],
    "mean": lambda w: w["latency"]["mean"],
    "in_flight": lambda w: w["in_flight"],
    "active_nodes": lambda w: w["active_nodes"],
    "packets": lambda w: w["packets"],
    "va_fails": lambda w: w["va_fails"],
    "watchdog_events": lambda w: w["watchdog_events"],
}


def sparkline(values):
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        return SPARKS[0] * len(values)
    out = []
    for v in values:
        idx = int((v - lo) / (hi - lo) * (len(SPARKS) - 1))
        out.append(SPARKS[max(0, min(len(SPARKS) - 1, idx))])
    return "".join(out)


def render_metric(windows, metric):
    values = [METRICS[metric](w) for w in windows]
    span = "cycles %d..%d" % (windows[0]["start"], windows[-1]["end"])
    print("%-12s %s" % (metric, sparkline(values)))
    print("%-12s min %.4g  max %.4g  last %.4g  (%d windows, %s)"
          % ("", min(values), max(values), values[-1], len(values),
             span))


def render_regimes(windows):
    """Stacked per-regime share of VC-allocation grants per window."""
    print("va regime mix (share of grants per window)")
    for regime in VA_REGIMES:
        shares = []
        for w in windows:
            total = sum(w["va_grants"][r] for r in VA_REGIMES)
            shares.append(w["va_grants"][regime] / total
                          if total > 0 else 0.0)
        print("  %-10s %s  mean %.3f"
              % (regime, sparkline(shares),
                 sum(shares) / len(shares)))


def render_png(header, windows, path):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise SystemExit("error: --png needs matplotlib (not "
                         "installed); the ASCII output has no "
                         "dependencies")

    x = [w["end"] for w in windows]
    fig, axes = plt.subplots(3, 1, figsize=(10, 9), sharex=True)

    ax = axes[0]
    ax.plot(x, [w["offered_rate"] for w in windows], label="offered")
    ax.plot(x, [w["accepted_rate"] for w in windows], label="accepted")
    ax.set_ylabel("flits/node/cycle")
    ax.legend(loc="best")
    ax.set_title("throughput")

    ax = axes[1]
    for key in ("p50", "p99", "p999"):
        ax.plot(x, [w["latency"][key] for w in windows], label=key)
    ax.set_ylabel("cycles")
    ax.legend(loc="best")
    ax.set_title("windowed latency percentiles")

    ax = axes[2]
    shares = {r: [] for r in VA_REGIMES}
    for w in windows:
        total = sum(w["va_grants"][r] for r in VA_REGIMES)
        for r in VA_REGIMES:
            shares[r].append(w["va_grants"][r] / total
                             if total > 0 else 0.0)
    ax.stackplot(x, [shares[r] for r in VA_REGIMES],
                 labels=VA_REGIMES)
    ax.set_ylabel("grant share")
    ax.set_xlabel("cycle")
    ax.legend(loc="best", fontsize="small")
    ax.set_title("VC-allocation regime mix")

    mesh = header.get("mesh", {})
    fig.suptitle("footprint.timeseries/1  %sx%s mesh"
                 % (mesh.get("width", "?"), mesh.get("height", "?")))
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    print("wrote %s" % path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("stream", help="footprint.timeseries/1 JSONL file")
    ap.add_argument("--metric", default=None,
                    choices=sorted(METRICS),
                    help="render one metric (default: throughput + "
                         "p99 summary)")
    ap.add_argument("--regimes", action="store_true",
                    help="render the per-regime VA grant mix")
    ap.add_argument("--png", metavar="FILE",
                    help="write a multi-panel PNG (needs matplotlib)")
    args = ap.parse_args()

    header, windows = check_artifact.load_artifact(
        args.stream, "footprint.timeseries/1")
    if args.png:
        render_png(header, windows, args.png)
        return 0

    meta = header.get("meta", {})
    mesh = header.get("mesh", {})
    print("%s  %sx%s mesh  interval %s  seed %s"
          % (args.stream, mesh.get("width", "?"),
             mesh.get("height", "?"), header.get("interval", "?"),
             meta.get("seed", "?")))
    if args.metric:
        render_metric(windows, args.metric)
    else:
        for metric in ("offered", "accepted", "p99", "in_flight"):
            render_metric(windows, metric)
    if args.regimes or not args.metric:
        render_regimes(windows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
