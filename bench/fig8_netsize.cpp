/**
 * @file
 * Figure 8 — scalability with network size: DBAR's saturation
 * throughput normalized to Footprint's on 4x4 through 32x32 meshes
 * (10 VCs, single-flit). The paper reports Footprint's edge growing
 * with network size (uniform: 11% -> 13%, shuffle: 25% -> 46% between
 * 4x4 and 16x16); the 32x32 extension runs under sharded stepping
 * (bit-identical to serial, see DESIGN.md §13) to keep the 1024-node
 * sweeps tractable.
 *
 * Each mesh size is one sweep, so 32x32 keeps its sharded base config.
 * Each size also reports the simulator's own speed (cycles/sec at a
 * mid-ladder load, the one wall-clock column) so the bench doubles as
 * a size-scaling record of the engine itself.
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

    header("Figure 8: DBAR throughput normalized to Footprint, by "
           "mesh size");
    const std::vector<double> rates{0.08, 0.16, 0.24, 0.32, 0.40,
                                    0.48};

    // Meshes of 1024+ nodes run with sharded stepping; thread count
    // changes wall-clock only, never the printed numbers.
    auto sizeConfig = [](int k) {
        SimConfig cfg = benchBaseline();
        cfg.setInt("mesh_width", k);
        cfg.setInt("mesh_height", k);
        if (k >= 32) {
            cfg.set("step_mode", "sharded");
            cfg.setInt("threads", 4);
        }
        return cfg;
    };

    std::printf("%10s %-12s %12s %14s %18s %14s\n", "mesh", "pattern",
                "dbar_sat", "footprint_sat", "dbar/footprint",
                "cycles/sec");
    for (int k : {4, 8, 16, 32}) {
        // Engine speed at this size: one timed footprint-routing run
        // at a mid-ladder load (printed on the size's first row).
        SimConfig speed_cfg = sizeConfig(k);
        speed_cfg.set("traffic", "uniform");
        speed_cfg.set("routing", "footprint");
        const double cps = measureCyclesPerSec(speed_cfg, rates[1]);
        const MeshSize mesh{k, k};
        const SweepResult result = SweepRunner(ctx).run(
            {.base = sizeConfig(k),
             .rates = rates,
             .routings = {"dbar", "footprint"},
             .meshes = {mesh},
             .traffics = kSyntheticPatterns,
             .seeds = 1});
        for (const std::string& pattern : kSyntheticPatterns) {
            const double dbar =
                result.cell(mesh, "dbar", pattern).saturation;
            const double fp =
                result.cell(mesh, "footprint", pattern).saturation;
            std::printf("%7dx%-2d %-12s %12.3f %14.3f %17.3f", k, k,
                        pattern.c_str(), dbar, fp,
                        fp > 0.0 ? dbar / fp : 0.0);
            if (pattern == kSyntheticPatterns.front())
                std::printf(" %14.0f", cps);
            std::printf("\n");
        }
    }
    return 0;
}
