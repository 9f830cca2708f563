/**
 * @file
 * Figure 10 — application traces. The paper replays PARSEC 2.0
 * Netrace traces, two co-running workloads at a time, and reports
 * (a) Footprint's average-latency gain over DBAR per pair, (b) the
 * purity of blocking per application, and (c) the degree of HoL
 * blocking (impurity x blocking events). PARSEC traces are not
 * redistributable, so this harness uses the synthetic per-application
 * profiles of traffic/trace_gen (see DESIGN.md for the substitution
 * rationale); traces are written to and replayed from real trace
 * files, exercising the same code path Netrace would.
 */

#include <cstdio>
#include <filesystem>
#include <utility>

#include "bench_common.hpp"
#include "traffic/trace_gen.hpp"

namespace {

using namespace footprint;
using namespace footprint::bench;

std::string
buildPairTrace(const Mesh& mesh, const std::string& a,
               const std::string& b, std::int64_t length)
{
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path =
        (dir / ("fp_fig10_" + a + "_" + b + ".trace")).string();
    const auto ta = generateTrace(mesh, parsecProfile(a), length, 11);
    const auto tb = generateTrace(mesh, parsecProfile(b), length, 23);
    const auto merged = mergeTraces(ta, tb);
    TraceWriter writer(path);
    writer.comment("co-running " + a + " + " + b);
    for (const auto& ev : merged)
        writer.append(ev);
    return path;
}

RunStats
replay(const std::string& trace_path, const std::string& algo,
       std::int64_t length)
{
    SimConfig cfg = benchBaseline();
    cfg.set("traffic", "trace");
    cfg.set("trace_file", trace_path);
    cfg.set("routing", algo);
    cfg.setInt("warmup_cycles", 0);
    cfg.setInt("measure_cycles", length);
    return runExperiment(cfg);
}

} // namespace

int
main(int argc, char** argv)
{
    setQuiet(true);
    ExecContext ctx(benchJobs(argc, argv));
    const Mesh mesh(8, 8);
    const auto length =
        static_cast<std::int64_t>(4000 * benchScale());
    const std::pair<const char*, const char*> pairs[] = {
        {"fluidanimate", "ferret"},  {"fluidanimate", "canneal"},
        {"bodytrack", "freqmine"},   {"x264", "canneal"},
        {"dedup", "vips"},           {"blackscholes", "swaptions"},
    };
    const std::vector<AppProfile> apps = parsecProfiles();

    // Every pair and every application is an independent job writing
    // its own trace file: one parallel batch, printed in order below.
    // A pair job returns its DBAR then its Footprint replay; an
    // application job returns its DBAR replay (the blocking the paper
    // attributes to VC-oblivious allocation).
    std::vector<std::function<std::vector<RunStats>()>> tasks;
    for (const auto& [a, b] : pairs) {
        tasks.push_back([&mesh, a, b, length]() {
            const std::string path = buildPairTrace(mesh, a, b, length);
            std::vector<RunStats> out{replay(path, "dbar", length),
                                      replay(path, "footprint", length)};
            std::remove(path.c_str());
            return out;
        });
    }
    for (const AppProfile& prof : apps) {
        tasks.push_back([&mesh, &prof, length]() {
            const auto dir = std::filesystem::temp_directory_path();
            const std::string path =
                (dir / ("fp_fig10_" + prof.name + ".trace")).string();
            writeTraceFile(path, mesh, prof, length, 7);
            std::vector<RunStats> out{replay(path, "dbar", length)};
            std::remove(path.c_str());
            return out;
        });
    }
    const std::vector<std::vector<RunStats>> runs =
        ctx.map(std::move(tasks));

    // (a) latency difference per co-running pair.
    header("Figure 10(a): Footprint vs DBAR latency on co-running "
           "PARSEC-like trace pairs");
    std::printf("%-28s %12s %12s %10s\n", "pair", "dbar_lat",
                "fp_lat", "fp_gain");
    std::size_t job = 0;
    for (const auto& [a, b] : pairs) {
        const RunStats& dbar = runs[job][0];
        const RunStats& fp = runs[job][1];
        ++job;
        std::printf("%-28s %12.2f %12.2f %+9.1f%%\n",
                    (std::string(a) + "+" + b).c_str(),
                    dbar.avgLatency(), fp.avgLatency(),
                    pctGain(dbar.avgLatency(), fp.avgLatency()));
    }

    // (b, c) purity of blocking and HoL degree per application.
    header("Figure 10(b,c): purity of blocking and HoL degree per "
           "application (DBAR replay)");
    std::printf("%-16s %10s %14s %14s\n", "app", "purity",
                "blocking_evts", "hol_degree");
    for (const AppProfile& prof : apps) {
        const RunStats& stats = runs[job++][0];
        std::printf("%-16s %10.3f %14llu %14.0f\n", prof.name.c_str(),
                    stats.counters.purity(),
                    static_cast<unsigned long long>(
                        stats.counters.vcAllocFail),
                    stats.counters.holDegree());
    }
    std::printf("\nExpectation (paper): the heavy, destination-diverse"
                " workloads (fluidanimate)\nshow low purity, many"
                " blocking events, and the largest Footprint gain;\n"
                "light workloads (blackscholes, swaptions) show"
                " little of either.\n");
    return 0;
}
