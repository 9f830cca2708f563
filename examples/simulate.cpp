/**
 * @file
 * Full command-line simulator front end (the BookSim-equivalent entry
 * point): load an optional config file, apply key=value overrides, run
 * one experiment, and print a complete statistics report including the
 * latency distribution.
 *
 * Usage: simulate [config=<file>] [key=value ...] [--key value ...]
 *   e.g. simulate config=examples/configs/hotspot.cfg routing=dbar
 *        simulate traffic=shuffle injection_rate=0.42 num_vcs=8
 *
 * Packet-trace flags (sugar over the trace_* config keys):
 *   --trace-packets N       JSONL lifecycle trace of packets 1..N
 *   --trace-out FILE        trace path (default trace.jsonl)
 *
 * Observability flags (take no value; see DESIGN.md):
 *   --audit                 periodic invariant audits + watchdog
 *   --dump-on-abort         forensic state dump on abort/violation
 *   --chrome-trace          chrome://tracing timeline (trace.json)
 *   --profile               per-phase wall-time self-profile
 *                           (profile.json, footprint.profile/1)
 *   --heatmap               windowed spatial heatmaps (heatmap.json,
 *                           footprint.heatmap/1; render with
 *                           tools/render_heatmap.py)
 *   --timeseries            windowed flight-recorder JSONL stream
 *                           (timeseries.jsonl, footprint.timeseries/1;
 *                           render with tools/render_timeseries.py);
 *                           with --chrome-trace its window aggregates
 *                           also land as counter tracks
 *   --console               live rate-limited status line on stderr
 *
 * Both windowed artifacts share one window length,
 * timeseries_interval (default 1000 cycles).
 *
 * Steady state (DESIGN.md §15): the flight recorder's online detector
 * reports the convergence cycle and flags measurement windows that
 * opened too early; warmup=auto ends warmup at convergence (capped by
 * warmup_max_cycles).
 *
 * Sweep mode (a grid of runs instead of one; see DESIGN.md §11):
 *   --sweep RATES           offered rates, "0.05,0.1,0.2" or lo:hi:n
 *   sweep_routings=dor,dbar sweep_meshes=8x8,16x16 ("8" is 8x8)
 *   sweep_traffics=uniform,shuffle sweep_seeds=2
 *                           the other axes; each defaults to the
 *                           single-run routing / mesh / traffic
 *   --jobs N                worker threads (default: all hardware
 *                           threads); results are identical for any N
 *   --bench-out FILE        write a footprint.bench/1 JSON artifact
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "exec/exec_context.hpp"
#include "exec/sweep_runner.hpp"
#include "network/traffic_manager.hpp"
#include "obs/console.hpp"
#include "obs/sink.hpp"
#include "obs/timeseries.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"

namespace {

/** Map "--some-flag" to its config key, e.g. "some_flag". */
std::string
flagToKey(const std::string& flag)
{
    std::string key = flag.substr(2);
    for (char& c : key) {
        if (c == '-')
            c = '_';
    }
    return key;
}

/** Boolean switches that take no value argument. */
bool
isBareFlag(const std::string& key)
{
    return key == "audit" || key == "dump_on_abort"
        || key == "chrome_trace" || key == "profile"
        || key == "heatmap" || key == "timeseries"
        || key == "console";
}

/**
 * Sweep mode: run the grid of --sweep rates x sweep_routings x
 * sweep_meshes x sweep_traffics x sweep_seeds as parallel jobs, each
 * axis defaulting to the single-run value, print the curves and
 * saturation, and optionally export the footprint.bench/1 artifact.
 */
int
runSweepMode(const footprint::SimConfig& cfg)
{
    using namespace footprint;

    auto axis = [&](const char* key, const std::string& single) {
        return splitList(cfg.contains(key) ? cfg.getStr(key) : single);
    };
    SweepSpec spec;
    spec.rates = parseRateSpec(cfg.getStr("sweep_rates"));
    spec.routings = axis("sweep_routings", cfg.getStr("routing"));
    for (const std::string& m :
         axis("sweep_meshes", cfg.getStr("mesh_width") + "x"
                                  + cfg.getStr("mesh_height")))
        spec.meshes.push_back(parseMeshSize(m));
    spec.traffics = axis("sweep_traffics", cfg.getStr("traffic"));
    spec.seeds = static_cast<int>(cfg.getInt("sweep_seeds"));
    spec.base = cfg;
    // Open the artifact before the first job runs, not after the sweep.
    const std::string out = cfg.getStr("bench_out");
    std::unique_ptr<std::ofstream> bench_os;
    if (!out.empty())
        bench_os = openArtifact(out, "bench results");

    ExecContext ctx(cfg.getInt("jobs"));
    SweepRunner runner(ctx);
    std::unique_ptr<RunConsole> progress;
    if (cfg.getBool("console")) {
        progress = std::make_unique<RunConsole>(
            static_cast<int>(cfg.getInt("console_interval_ms")));
        runner.attachConsole(progress.get());
    }
    const SweepResult result = runner.run(spec);
    if (progress)
        progress->close();

    std::printf("--- sweep results ---\n");
    for (const SweepCell& cell : result.cells) {
        const std::string label = (spec.meshes.size() > 1
                                       ? cell.mesh.label() + " "
                                       : "")
            + cell.routing + "/" + cell.traffic;
        std::printf("%s", formatCurve(label, cell.curve).c_str());
    }
    if (result.cells.size() == 1) {
        std::printf("saturation throughput    : %.3f "
                    "(zero-load latency %.2f)\n",
                    result.cells[0].saturation, result.cells[0].zeroLoad);
    } else {
        std::printf("%-8s %-16s %-12s %12s %16s\n", "mesh", "routing",
                    "traffic", "saturation", "zero-load lat");
        for (const SweepCell& cell : result.cells) {
            std::printf("%-8s %-16s %-12s %12.3f %16.2f\n",
                        cell.mesh.label().c_str(), cell.routing.c_str(),
                        cell.traffic.c_str(), cell.saturation,
                        cell.zeroLoad);
        }
    }
    std::printf("wall clock               : %.2f s (%zu jobs, "
                "%.2f jobs/s, --jobs %u)\n",
                result.wallSeconds, result.jobs.size(),
                result.jobsPerSec, ctx.jobs());
    if (bench_os) {
        if (!(*bench_os << benchResultsJson(spec, result) << std::flush))
            fatal("failed writing bench results file: " + out);
        std::printf("bench results            : %s "
                    "(schema footprint.bench/1)\n",
                    out.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace footprint;

    SimConfig cfg = defaultConfig();
    // A config= argument loads a file first; later key=value overrides
    // win, matching BookSim's "config file then overrides" convention.
    // "--key value" flags are equivalent to "key=value" with dashes
    // mapped to underscores; "--sweep" is sugar for "sweep_rates".
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg.rfind("config=", 0) == 0) {
            cfg.loadFile(arg.substr(7));
        } else if (arg.rfind("--", 0) == 0) {
            std::string key = flagToKey(arg);
            if (key == "sweep")
                key = "sweep_rates";
            if (isBareFlag(key)) {
                cfg.set(key, "true");
                continue;
            }
            if (key.empty() || i + 1 >= argc)
                fatal("flag " + arg + " needs a value");
            cfg.set(key, argv[++i]);
        } else if (!cfg.parseAssignment(arg)) {
            fatal("arguments must be key=value or --key value, got: "
                  + arg);
        }
    }
    cfg.warnUnknownKeys();

    std::printf("== footprint-noc simulator ==\n%s\n",
                cfg.toString().c_str());

    if (!cfg.getStr("sweep_rates").empty())
        return runSweepMode(cfg);

    RunStats stats;
    try {
        stats = runExperiment(cfg);
    } catch (const InvariantError& e) {
        std::fprintf(stderr,
                     "simulate: aborted on violated invariant: %s "
                     "(%s:%d)\n",
                     e.what(), e.file(), e.line());
        if (cfg.getBool("dump_on_abort")) {
            std::fprintf(stderr, "simulate: forensic state dump: %s\n",
                         cfg.getStr("dump_path").c_str());
        }
        return 2;
    }

    std::printf("--- results ---\n");
    std::printf("cycles run               : %lld (%lld skipped)\n",
                static_cast<long long>(stats.cyclesRun),
                static_cast<long long>(stats.cyclesSkipped));
    std::printf("measured packets         : %llu created, %llu "
                "ejected\n",
                static_cast<unsigned long long>(stats.measuredCreated),
                static_cast<unsigned long long>(stats.measuredEjected));
    std::printf("status                   : %s\n",
                stats.drained ? "drained" : "SATURATED (not drained)");
    std::printf("offered / accepted load  : %.3f / %.3f "
                "flits/node/cycle\n",
                stats.offeredFlitsPerNodeCycle,
                stats.acceptedFlitsPerNodeCycle);
    std::printf("packet latency           : avg %.2f  min %.0f  "
                "max %.0f  stddev %.2f\n",
                stats.latency.mean(), stats.latency.min(),
                stats.latency.max(), stats.latency.stddev());
    std::printf("latency percentiles      : p50 %.0f  p90 %.0f  "
                "p99 %.0f  p999 %.0f  max %llu\n",
                stats.latencyHdr.percentile(0.50),
                stats.latencyHdr.percentile(0.90),
                stats.latencyHdr.percentile(0.99),
                stats.latencyHdr.percentile(0.999),
                static_cast<unsigned long long>(
                    stats.latencyHdr.max()));
    std::printf("hops                     : avg %.2f  max %.0f\n",
                stats.hops.mean(), stats.hops.max());
    if (stats.hotspotLatency.count() > 0) {
        std::printf("hotspot-class latency    : avg %.2f over %llu "
                    "packets (p99 %llu, p999 %llu)\n",
                    stats.hotspotLatency.mean(),
                    static_cast<unsigned long long>(
                        stats.hotspotLatency.count()),
                    static_cast<unsigned long long>(
                        stats.hotspotLatencyHdr.percentile(0.99)),
                    static_cast<unsigned long long>(
                        stats.hotspotLatencyHdr.percentile(0.999)));
    }
    std::printf("VC allocation            : %llu grants, %llu "
                "blocking events\n",
                static_cast<unsigned long long>(
                    stats.counters.vcAllocSuccess),
                static_cast<unsigned long long>(
                    stats.counters.vcAllocFail));
    std::printf("purity of blocking       : %.3f (HoL degree %.0f)\n",
                stats.counters.purity(), stats.counters.holDegree());
    if (cfg.getInt("trace_packets") > 0) {
        std::printf("packet lifecycle trace   : %s (packets 1..%lld)\n",
                    cfg.getStr("trace_out").c_str(),
                    static_cast<long long>(
                        cfg.getInt("trace_packets")));
    }
    if (cfg.getBool("chrome_trace")) {
        std::printf("chrome trace timeline    : %s (load in "
                    "chrome://tracing or ui.perfetto.dev)\n",
                    cfg.getStr("chrome_trace_out").c_str());
    }
    if (cfg.getBool("audit")) {
        std::printf("invariant audit          : %llu violations, "
                    "%llu watchdog events\n",
                    static_cast<unsigned long long>(
                        stats.auditViolations),
                    static_cast<unsigned long long>(
                        stats.watchdogEvents));
    }
    if (!stats.drained) {
        std::printf("stall classification     : %s\n",
                    stats.stallClass.c_str());
    }
    // The run asked for the recorder's verdict (timeseries stream
    // and/or warmup=auto): report the detector verdict and any
    // tree-saturation onset it saw.
    if (TimeseriesConfig::fromSim(cfg).active()) {
        if (stats.steadyStateCycle >= 0) {
            std::printf("steady state             : detected at cycle "
                        "%lld (warmup used %lld%s)\n",
                        static_cast<long long>(stats.steadyStateCycle),
                        static_cast<long long>(stats.warmupUsed),
                        stats.measuredBeforeSteady
                            ? ", MEASURED BEFORE STEADY"
                            : "");
        } else {
            std::printf("steady state             : NOT reached "
                        "(warmup used %lld)\n",
                        static_cast<long long>(stats.warmupUsed));
        }
        if (stats.saturationOnsetCycle >= 0) {
            std::printf("saturation onset         : cycle %lld "
                        "(accepted lagged offered with growing "
                        "backlog)\n",
                        static_cast<long long>(
                            stats.saturationOnsetCycle));
        }
    }
    if (!stats.timeseriesPath.empty()) {
        std::printf("timeseries stream        : %s (schema "
                    "footprint.timeseries/1; "
                    "tools/render_timeseries.py)\n",
                    stats.timeseriesPath.c_str());
    }
    if (!stats.stateDumpPath.empty()) {
        std::printf("forensic state dump      : %s\n",
                    stats.stateDumpPath.c_str());
    }
    if (!stats.profilePath.empty()) {
        std::printf("self-profile             : %s (schema "
                    "footprint.profile/1)\n",
                    stats.profilePath.c_str());
    }
    if (!stats.heatmapPath.empty()) {
        std::printf("spatial heatmap          : %s (schema "
                    "footprint.heatmap/1; tools/render_heatmap.py)\n",
                    stats.heatmapPath.c_str());
    }
    // A run that violated its own invariants must not exit 0, even
    // though it completed enough to print statistics.
    return stats.auditViolations > 0 ? 3 : 0;
}
