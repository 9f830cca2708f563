/**
 * @file
 * Ablation study of the Footprint design choices called out in
 * DESIGN.md:
 *  - Step-3 variant: literal Algorithm-1 vs always-wait vs the
 *    convergence-gated default (Sec. 3.2's prose vs pseudo-code);
 *  - congestion threshold (paper fixes it at V/2);
 *  - footprint-VC cap (the paper's Sec. 4.2.5 future-work isolation
 *    knob, 0 = unlimited as evaluated).
 * Each row reports background latency under the Fig. 9 hotspot load
 * and average latency under transpose (network congestion), the two
 * regimes the design must balance.
 */

#include <cstdio>
#include <utility>

#include "bench_common.hpp"

namespace {

using namespace footprint;
using namespace footprint::bench;

double
hotspotLatency(SimConfig cfg)
{
    cfg.set("traffic", "hotspot");
    cfg.setDouble("injection_rate", 0.44);
    cfg.setDouble("background_rate", 0.30);
    return runExperiment(cfg).avgLatency();
}

double
transposeLatency(SimConfig cfg)
{
    cfg.set("traffic", "transpose");
    cfg.setDouble("injection_rate", 0.40);
    return runExperiment(cfg).avgLatency();
}

} // namespace

int
main(int argc, char** argv)
{
    setQuiet(true);
    ExecContext ctx(benchJobs(argc, argv));
    header("Footprint ablations (8x8, 10 VCs; hotspot bg latency @ "
           "0.44, transpose latency @ 0.40)");
    std::printf("%-32s %14s %16s\n", "configuration", "hotspot_lat",
                "transpose_lat");

    SimConfig base = benchBaseline();
    base.set("routing", "footprint");

    std::vector<std::pair<std::string, SimConfig>> rows;
    rows.emplace_back("default (converge, thr=V/2)", base);
    for (const char* variant : {"literal", "wait"}) {
        SimConfig cfg = base;
        cfg.set("fp_variant", variant);
        rows.emplace_back(std::string("variant=") + variant, cfg);
    }
    for (int thr : {2, 3, 7}) {
        SimConfig cfg = base;
        cfg.setInt("congestion_threshold", thr);
        rows.emplace_back("threshold=" + std::to_string(thr), cfg);
    }
    for (int cap : {1, 2, 4}) {
        SimConfig cfg = base;
        cfg.setInt("fp_vc_cap", cap);
        rows.emplace_back("fp_vc_cap=" + std::to_string(cap), cfg);
    }
    for (int ct : {3, 4}) {
        SimConfig cfg = base;
        cfg.setInt("fp_converge_threshold", ct);
        rows.emplace_back("converge_threshold=" + std::to_string(ct),
                          cfg);
    }
    {
        SimConfig cfg = base;
        cfg.set("routing", "dbar");
        rows.emplace_back("dbar (reference)", cfg);
    }

    // Every (row, workload) run is independent: execute them as one
    // parallel batch, then print in row order.
    std::vector<std::function<double()>> tasks;
    for (const auto& [label, cfg] : rows) {
        tasks.push_back([cfg]() { return hotspotLatency(cfg); });
        tasks.push_back([cfg]() { return transposeLatency(cfg); });
    }
    const std::vector<double> lat = ctx.map(std::move(tasks));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("%-32s %14.1f %16.1f\n", rows[i].first.c_str(),
                    lat[2 * i], lat[2 * i + 1]);
    }
    return 0;
}
