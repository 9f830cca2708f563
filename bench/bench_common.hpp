/**
 * @file
 * Shared helpers for the per-figure/table benchmark harnesses.
 *
 * Every harness prints the rows/series of one table or figure of the
 * paper. Simulation length is controlled by FP_BENCH_SCALE (a
 * multiplier on warmup/measure/drain cycles, default 1.0; use >= 4 for
 * paper-quality statistics, < 1 for a quick smoke pass).
 */

#ifndef FOOTPRINT_BENCH_COMMON_HPP
#define FOOTPRINT_BENCH_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exec/exec_context.hpp"
#include "exec/sweep_runner.hpp"
#include "network/sweep.hpp"
#include "network/traffic_manager.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"

namespace footprint::bench {

/**
 * Worker-thread count for a bench harness, parsed like simulate's
 * "jobs" key: "--jobs N", else FP_BENCH_JOBS, else 0 (all hardware
 * threads). Every harness is built on the deterministic sweep engine,
 * so the thread count changes wall-clock only, never the numbers.
 */
inline std::int64_t
benchJobs(int argc, char** argv)
{
    const char* env = std::getenv("FP_BENCH_JOBS");
    SimConfig jobs;
    jobs.set("jobs", env ? env : "0");
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--jobs")
            jobs.set("jobs", argv[i + 1]);
    }
    return jobs.getInt("jobs");
}

/** Cycle-count multiplier from the FP_BENCH_SCALE environment var. */
inline double
benchScale()
{
    const char* env = std::getenv("FP_BENCH_SCALE");
    if (!env)
        return 1.0;
    const double s = std::atof(env);
    return s > 0.0 ? s : 1.0;
}

/**
 * The evaluation baseline (Table 2) with bench-sized phases: 8x8 mesh,
 * 10 VCs, buffer 4, speedup 2, single-flit packets.
 */
inline SimConfig
benchBaseline()
{
    SimConfig cfg = defaultConfig();
    const double s = benchScale();
    cfg.setInt("warmup_cycles", static_cast<std::int64_t>(2000 * s));
    cfg.setInt("measure_cycles", static_cast<std::int64_t>(4000 * s));
    cfg.setInt("drain_cycles", static_cast<std::int64_t>(8000 * s));
    return cfg;
}

/** Print a section header. */
inline void
header(const std::string& title)
{
    std::printf("\n== %s ==\n", title.c_str());
}

/** Percentage improvement of @p ours over @p base. */
inline double
pctGain(double ours, double base)
{
    return base > 0.0 ? (ours / base - 1.0) * 100.0 : 0.0;
}

/** The seven algorithms of the paper's evaluation (Table 2). */
inline std::vector<std::string>
evaluatedAlgorithms()
{
    return {"dor",        "oddeven",        "dbar",
            "footprint",  "dor+xordet",     "oddeven+xordet",
            "dbar+xordet"};
}

/** The synthetic traffic patterns of Figs. 5-8. */
inline const std::vector<std::string> kSyntheticPatterns{
    "uniform", "transpose", "shuffle"};

/**
 * Figs. 5 and 6: sweep the seven evaluated algorithms over the
 * synthetic patterns with @p base on an 8x8 mesh, then print each
 * pattern's curves and saturation throughputs, then @p gains of those.
 */
inline void
curveFigure(ExecContext& ctx, const SimConfig& base,
            const std::function<void(std::map<std::string, double>&)>&
                gains)
{
    const MeshSize mesh{8, 8};
    const SweepResult result = SweepRunner(ctx).run(
        {.base = base,
         .rates = {0.10, 0.20, 0.30, 0.36, 0.40, 0.44, 0.48, 0.52},
         .routings = evaluatedAlgorithms(),
         .meshes = {mesh},
         .traffics = kSyntheticPatterns,
         .seeds = 1});
    for (const std::string& pattern : kSyntheticPatterns) {
        std::printf("\n-- %s --\n", pattern.c_str());
        std::map<std::string, double> saturation;
        for (const std::string& algo : evaluatedAlgorithms()) {
            const SweepCell& cell = result.cell(mesh, algo, pattern);
            std::printf("%s", formatCurve(algo, cell.curve).c_str());
            saturation[algo] = cell.saturation;
        }
        std::printf("saturation throughput:");
        for (const auto& [algo, sat] : saturation)
            std::printf("  %s=%.3f", algo.c_str(), sat);
        std::printf("\n");
        gains(saturation);
    }
}

} // namespace footprint::bench

#endif // FOOTPRINT_BENCH_COMMON_HPP
