/**
 * @file
 * Figure 7 — impact of the number of VCs per physical channel
 * ({2, 4, 8, 16}) on DBAR vs Footprint, for uniform, transpose, and
 * shuffle traffic (8x8 mesh, single-flit packets). The paper reports
 * Footprint's saturation-throughput gain growing with VC count for
 * uniform/shuffle (12.5% at 2 VCs to 23.1% at 16 under uniform) and
 * shrinking for transpose (33% at 2 VCs to 22% at 16).
 *
 * Each VC count is one sweep. Then each (algorithm, VC count) cell runs
 * once near its saturation point (all in one batch) with the flight
 * recorder keeping 50-cycle windows in memory and reports the measured
 * per-router VC occupancy (mean buffered flits at the window closes of
 * the measurement phase) — the queueing state the ladder cannot show.
 */

#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace footprint;

/**
 * Mean flits buffered per router over the measurement phase of @p cfg
 * under @p traffic and @p routing at @p rate, read from the flight
 * recorder's in-memory windows (an empty timeseries_out keeps them off
 * disk).
 */
double
meanRouterOccupancy(SimConfig cfg, const std::string& traffic,
                    const std::string& routing, double rate)
{
    cfg.set("traffic", traffic);
    cfg.set("routing", routing);
    cfg.setDouble("injection_rate", rate);
    cfg.setBool("timeseries", true);
    cfg.set("timeseries_out", "");
    cfg.setInt("timeseries_interval", 50);
    const std::int64_t begin = cfg.getInt("warmup_cycles");
    const std::int64_t end = begin + cfg.getInt("measure_cycles");
    StatAccumulator occ;
    for (const WindowRecord& w : runExperiment(cfg).windows) {
        if (w.startCycle >= begin && w.endCycle <= end)
            occ.add(static_cast<double>(w.vcOcc));
    }
    return occ.mean()
        / static_cast<double>(cfg.getInt("mesh_width")
                              * cfg.getInt("mesh_height"));
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace footprint::bench;
    setQuiet(true);
    ExecContext ctx(benchJobs(argc, argv));

    header("Figure 7: VC-count sweep, DBAR vs Footprint (8x8)");
    const std::vector<int> vc_counts{2, 4, 8, 16};
    const MeshSize mesh{8, 8};
    std::vector<SimConfig> bases;
    std::vector<SweepResult> sweeps;
    for (int vcs : vc_counts) {
        bases.push_back(benchBaseline());
        bases.back().setInt("num_vcs", vcs);
        sweeps.push_back(SweepRunner(ctx).run(
            {.base = bases.back(),
             .rates = {0.10, 0.20, 0.28, 0.34, 0.40, 0.46, 0.52},
             .routings = {"dbar", "footprint"},
             .meshes = {mesh},
             .traffics = kSyntheticPatterns,
             .seeds = 1}));
    }

    // Saturation and, as one batch, the queueing state just below it,
    // both in print order: pattern, VC count, dbar then footprint.
    std::vector<double> sat;
    std::vector<std::function<double()>> tasks;
    for (const std::string& pattern : kSyntheticPatterns) {
        for (std::size_t v = 0; v < vc_counts.size(); ++v) {
            for (const char* algo : {"dbar", "footprint"}) {
                sat.push_back(
                    sweeps[v].cell(mesh, algo, pattern).saturation);
                tasks.push_back([&bases, v, pattern, algo,
                                 rate = 0.9 * sat.back()]() {
                    return meanRouterOccupancy(bases[v], pattern, algo,
                                               rate);
                });
            }
        }
    }
    const std::vector<double> occ = ctx.map(std::move(tasks));

    std::size_t row = 0;
    for (const std::string& pattern : kSyntheticPatterns) {
        std::printf("\n-- %s --\n", pattern.c_str());
        std::printf("%6s %14s %14s %10s %10s %10s\n", "VCs",
                    "dbar_sat", "footprint_sat", "gain", "dbar_occ",
                    "fp_occ");
        for (std::size_t v = 0; v < vc_counts.size(); ++v, row += 2) {
            std::printf("%6d %14.3f %14.3f %+9.1f%% %10.2f %10.2f\n",
                        vc_counts[v], sat[row], sat[row + 1],
                        pctGain(sat[row + 1], sat[row]), occ[row],
                        occ[row + 1]);
        }
    }
    return 0;
}
