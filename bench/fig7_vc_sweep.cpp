/**
 * @file
 * Figure 7 — impact of the number of VCs per physical channel
 * ({2, 4, 8, 16}) on DBAR vs Footprint, for uniform, transpose, and
 * shuffle traffic (8x8 mesh, single-flit packets). The paper reports
 * Footprint's saturation-throughput gain growing with VC count for
 * uniform/shuffle (12.5% at 2 VCs to 23.1% at 16 under uniform) and
 * shrinking for transpose (33% at 2 VCs to 22% at 16).
 *
 * Alongside the saturation ladder, each (algorithm, VC count) cell
 * runs once near its saturation point with the flight recorder keeping
 * 50-cycle windows in memory and reports the measured per-router VC
 * occupancy (mean buffered flits at the window closes of the
 * measurement phase) — the queueing-state view the ladder alone cannot
 * show.
 */

#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace footprint;

/**
 * Mean flits buffered per router over the measurement phase at
 * @p rate, read from the flight recorder's in-memory windows (an empty
 * timeseries_out keeps them off disk).
 */
double
meanRouterOccupancy(SimConfig cfg, double rate)
{
    cfg.setDouble("injection_rate", rate);
    cfg.setBool("timeseries", true);
    cfg.set("timeseries_out", "");
    cfg.setInt("timeseries_interval", 50);
    const std::int64_t begin = cfg.getInt("warmup_cycles");
    const std::int64_t end = begin + cfg.getInt("measure_cycles");
    const int nodes = static_cast<int>(cfg.getInt("mesh_width")
                                       * cfg.getInt("mesh_height"));
    double sum = 0.0;
    std::size_t n = 0;
    for (const WindowRecord& w : runExperiment(cfg).windows) {
        if (w.startCycle >= begin && w.endCycle <= end) {
            sum += static_cast<double>(w.vcOcc);
            ++n;
        }
    }
    return n == 0 ? 0.0
                  : sum / static_cast<double>(n)
            / static_cast<double>(nodes);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace footprint::bench;
    setQuiet(true);
    ExecContext ctx(benchJobs(argc, argv));

    header("Figure 7: VC-count sweep, DBAR vs Footprint (8x8)");
    const std::vector<double> rates{0.10, 0.20, 0.28, 0.34, 0.40,
                                    0.46, 0.52};

    for (const char* pattern : {"uniform", "transpose", "shuffle"}) {
        std::printf("\n-- %s --\n", pattern);
        std::printf("%6s %14s %14s %10s %10s %10s\n", "VCs",
                    "dbar_sat", "footprint_sat", "gain", "dbar_occ",
                    "fp_occ");
        for (int vcs : {2, 4, 8, 16}) {
            double sat[2] = {0.0, 0.0};
            double occ[2] = {0.0, 0.0};
            int i = 0;
            for (const char* algo : {"dbar", "footprint"}) {
                SimConfig cfg = benchBaseline();
                cfg.set("traffic", pattern);
                cfg.set("routing", algo);
                cfg.setInt("num_vcs", vcs);
                sat[i] = saturationFromLadder(
                    latencyThroughputCurve(cfg, rates, ctx));
                // Queueing state just below this cell's saturation.
                occ[i] = meanRouterOccupancy(cfg, 0.9 * sat[i]);
                ++i;
            }
            std::printf("%6d %14.3f %14.3f %+9.1f%% %10.2f %10.2f\n",
                        vcs, sat[0], sat[1], pctGain(sat[1], sat[0]),
                        occ[0], occ[1]);
        }
    }
    return 0;
}
