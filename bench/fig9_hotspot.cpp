/**
 * @file
 * Figure 9 — hotspot experiment: the Table-3 persistent flows
 * oversubscribe four endpoints while all other nodes inject uniform
 * background traffic at a constant 0.30 flits/node/cycle. The x-axis
 * sweeps the hotspot injection rate; the y-axis is the average latency
 * of the *background* traffic only. The paper reports DBAR's
 * background collapsing at ~0.39 hotspot load while Footprint survives
 * to ~0.56 (over 40% improvement).
 */

#include <cstdio>

#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace footprint;
    using namespace footprint::bench;
    setQuiet(true);
    ExecContext ctx(benchJobs(argc, argv));

    header("Figure 9: background latency vs hotspot injection rate "
           "(8x8, 10 VCs, background at 0.30)");
    const std::vector<double> hotspot_rates{0.10, 0.20, 0.30, 0.36,
                                            0.42, 0.48, 0.54, 0.60};
    const std::vector<const char*> algos{"dbar", "footprint"};

    std::printf("%12s", "hotspot_rate");
    for (const char* algo : algos)
        std::printf(" %18s", algo);
    std::printf("\n");

    // The whole (rate x algorithm) grid is independent runs: execute
    // it as one parallel batch, then print in grid order.
    std::vector<std::function<RunStats()>> tasks;
    for (double rate : hotspot_rates) {
        for (const char* algo : algos) {
            SimConfig cfg = benchBaseline();
            cfg.set("traffic", "hotspot");
            cfg.set("routing", algo);
            cfg.setDouble("injection_rate", rate);
            cfg.setDouble("background_rate", 0.30);
            tasks.push_back(
                [cfg]() { return runExperiment(cfg); });
        }
    }
    const std::vector<RunStats> grid = ctx.map(std::move(tasks));

    for (std::size_t r = 0; r < hotspot_rates.size(); ++r) {
        std::printf("%12.2f", hotspot_rates[r]);
        for (std::size_t i = 0; i < algos.size(); ++i) {
            const RunStats& stats = grid[r * algos.size() + i];
            std::printf(" %12.1f%s", stats.avgLatency(),
                        stats.saturated ? " [sat]" : "      ");
        }
        std::printf("\n");
    }

    // Collapse point: the first hotspot rate whose run saturated (its
    // background did not drain), the verdict the table marks [sat].
    // A routing whose runs all drained has none in the swept range.
    double collapse[2] = {-1.0, -1.0};
    std::printf("\nbackground collapse point:");
    for (std::size_t i = 0; i < algos.size(); ++i) {
        for (std::size_t r = 0; r < hotspot_rates.size(); ++r) {
            if (grid[r * algos.size() + i].saturated) {
                collapse[i] = hotspot_rates[r];
                break;
            }
        }
        if (collapse[i] < 0.0)
            std::printf(" %s=none through %.2f", algos[i],
                        hotspot_rates.back());
        else
            std::printf(" %s=%.2f", algos[i], collapse[i]);
    }
    if (collapse[0] >= 0.0 && collapse[1] >= 0.0)
        std::printf(" (footprint %+.0f%%)",
                    pctGain(collapse[1], collapse[0]));
    std::printf("\n");
    return 0;
}
