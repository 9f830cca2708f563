/**
 * @file
 * Figure 5 — latency-throughput curves of all seven evaluated routing
 * algorithms under uniform random, transpose, and shuffle traffic with
 * single-flit packets (8x8 mesh, 10 VCs). For each (pattern,
 * algorithm) the harness prints the latency at each offered load and
 * the estimated saturation throughput, plus Footprint's gain over
 * DBAR (the paper reports up to 43%, average 27%).
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

    header("Figure 5: latency-throughput, single-flit packets "
           "(8x8, 10 VCs)");
    curveFigure(ctx, benchBaseline(), [](auto& saturation) {
        std::printf("footprint vs dbar: %+.1f%%   vs oddeven: "
                    "%+.1f%%   vs dor: %+.1f%%\n",
                    pctGain(saturation["footprint"], saturation["dbar"]),
                    pctGain(saturation["footprint"],
                            saturation["oddeven"]),
                    pctGain(saturation["footprint"], saturation["dor"]));
    });
    return 0;
}
