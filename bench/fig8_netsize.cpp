/**
 * @file
 * Figure 8 — scalability with network size: DBAR's saturation
 * throughput normalized to Footprint's on 4x4 through 32x32 meshes
 * (10 VCs, single-flit). The paper reports Footprint's edge growing
 * with network size (uniform: 11% -> 13%, shuffle: 25% -> 46% between
 * 4x4 and 16x16); the 32x32 rows extend the trend.
 *
 * Each mesh size is one sweep. Every job steps serially: the sweep's
 * workers already keep the cores busy, so sharding a job would only
 * oversubscribe them. Each size also reports the simulator's own
 * speed (the one wall-clock column): cycles/sec of the sweep's
 * footprint/uniform job at a mid-ladder load, over that job's own
 * span of the sweep schedule.
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

    std::printf("%10s %-12s %12s %14s %18s %14s\n", "mesh", "pattern",
                "dbar_sat", "footprint_sat", "dbar/footprint",
                "cycles/sec");
    for (int k : {4, 8, 16, 32}) {
        const MeshSize mesh{k, k};
        const SweepResult result = SweepRunner(ctx).run(
            {.base = benchBaseline(),
             .rates = rates,
             .routings = {"dbar", "footprint"},
             .meshes = {mesh},
             .traffics = kSyntheticPatterns,
             .seeds = 1});
        double cps = 0.0;
        for (const JobResult& job : result.jobs) {
            if (job.probe || job.routing != "footprint"
                || job.traffic != "uniform" || job.point.offered != rates[1])
                continue;
            const auto& [start, end] = result.schedule[job.index];
            if (end > start)
                cps = static_cast<double>(job.cycles) / (end - start);
        }
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
