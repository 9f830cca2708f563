/**
 * @file
 * Figure 6 — latency-throughput curves with variable packet sizes
 * (uniformly distributed 1..6 flits), 8x8 mesh, 10 VCs. Larger
 * packets amortize the atomic VC-reallocation cost of Duato-based
 * algorithms, so DBAR/Footprint close the gap on DOR for uniform
 * traffic, and XORDET's static VC restriction hurts across the board.
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

    header("Figure 6: latency-throughput, uniform 1-6 flit packets "
           "(8x8, 10 VCs)");
    SimConfig base = benchBaseline();
    base.set("packet_size", "uniform1-6");
    curveFigure(ctx, base, [](auto& saturation) {
        std::printf("footprint vs dbar: %+.1f%%   xordet effect on "
                    "dbar: %+.1f%%\n",
                    pctGain(saturation["footprint"], saturation["dbar"]),
                    pctGain(saturation["dbar+xordet"],
                            saturation["dbar"]));
    });
    return 0;
}
