/**
 * @file
 * Endpoint-congestion isolation demo (the paper's Sec. 3.3 / Fig. 4
 * story): drive the Table-3 hotspot flows plus uniform background
 * traffic, then compare DBAR and Footprint on
 *  - background packet latency (who suffers from the hotspot),
 *  - the congestion tree of each hotspot endpoint (branches and
 *    thickness in VCs),
 *  - purity of blocking.
 *
 * Usage: hotspot_isolation [key=value ...]
 *   e.g. hotspot_isolation injection_rate=0.5 num_vcs=8
 */

#include <cstdio>
#include <set>

#include "metrics/congestion_tree.hpp"
#include "network/network.hpp"
#include "network/traffic_manager.hpp"
#include "sim/log.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "traffic/pattern.hpp"

namespace {

using namespace footprint;

/** Run the hotspot scenario on a live network and snapshot trees. */
void
inspectTrees(const SimConfig& base)
{
    Network net(base);
    const Mesh& mesh = net.mesh();
    const auto flows = defaultHotspotFlows(mesh);
    Rng gen(42);
    const double rate = base.getDouble("injection_rate");

    std::uint64_t id = 0;
    std::vector<EjectedPacket> drained;
    for (std::int64_t cycle = 0; cycle < 3000; ++cycle) {
        for (const auto& [src, dest] : flows) {
            if (gen.nextBool(rate)) {
                Packet p;
                p.id = ++id;
                p.src = src;
                p.dest = dest;
                p.size = 1;
                p.createTime = cycle;
                p.flowClass = FlowClass::Hotspot;
                net.endpoint(src).enqueue(p);
            }
        }
        net.step(cycle);
        drained.clear();
        for (int n = 0; n < mesh.numNodes(); ++n)
            net.endpoint(n).drainEjectedInto(drained);
    }

    std::set<int> seen;
    for (const auto& [src, dest] : flows) {
        (void)src;
        if (!seen.insert(dest).second)
            continue;
        const CongestionTree tree = extractCongestionTree(net, dest);
        std::printf("    %s\n", tree.toString().c_str());
    }
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace footprint;
    setQuiet(true);

    SimConfig cfg = defaultConfig();
    cfg.set("traffic", "hotspot");
    cfg.setDouble("injection_rate", 0.45);
    cfg.setDouble("background_rate", 0.30);
    cfg.setInt("warmup_cycles", 2000);
    cfg.setInt("measure_cycles", 4000);
    cfg.setInt("drain_cycles", 8000);
    cfg.parseArgs(argc, argv);

    std::printf("== Hotspot isolation: DBAR vs Footprint ==\n");
    std::printf("hotspot rate %.2f, background rate %.2f\n\n",
                cfg.getDouble("injection_rate"),
                cfg.getDouble("background_rate"));

    for (const char* algo : {"dbar", "footprint"}) {
        SimConfig run_cfg = cfg;
        run_cfg.set("routing", algo);
        const RunStats stats = runExperiment(run_cfg);
        std::printf("%s:\n", algo);
        std::printf("  background latency : %.1f cycles%s\n",
                    stats.avgLatency(),
                    stats.saturated ? "  (collapsed)" : "");
        std::printf("  purity of blocking : %.3f  (blocking events: "
                    "%llu)\n",
                    stats.counters.purity(),
                    static_cast<unsigned long long>(
                        stats.counters.vcAllocFail));
        std::printf("  hotspot endpoint congestion trees:\n");
        inspectTrees(run_cfg);
        std::printf("\n");
    }
    std::printf("Footprint confines each hotspot's tree to few VCs "
                "per channel, so the\nbackground traffic keeps "
                "flowing where DBAR's spreads and collapses.\n");
    return 0;
}
