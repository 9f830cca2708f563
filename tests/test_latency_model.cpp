/**
 * @file
 * Closed-form latency oracle. An isolated packet in an idle network
 * spends exactly one link traversal of ℓ cycles per link it crosses —
 * the injection link, hops - 1 router-to-router links and the
 * ejection link — and its tail trails its head by L - 1 cycles, so
 *
 *     latency = ℓ · (hops + 1) + L - 1
 *
 * where hops counts the routers visited and L is the packet length in
 * flits. The router itself adds no cycle beyond the link (DESIGN.md
 * §7's single-stage router). The test pins that per-hop timing for
 * every (topology, routing) pair config validation accepts.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "network/network.hpp"
#include "sim/config.hpp"

namespace footprint {
namespace {

/**
 * Every (topology, routing) pair the Network constructor accepts:
 * mesh and cmesh take every algorithm with or without +xordet, while
 * the wrapped shapes take plain DOR only (dateline VCs).
 */
std::vector<std::pair<std::string, std::string>>
acceptedPairs()
{
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const char* topology : {"mesh", "cmesh"}) {
        for (const char* base : {"dor", "oddeven", "dbar", "footprint"}) {
            pairs.emplace_back(topology, base);
            pairs.emplace_back(topology, std::string(base) + "+xordet");
        }
    }
    pairs.emplace_back("torus", "dor");
    pairs.emplace_back("ring", "dor");
    return pairs;
}

SimConfig
oracleConfig(const std::string& topology, const std::string& routing,
             int link_latency)
{
    SimConfig cfg = defaultConfig();
    cfg.set("topology", topology);
    // Sixteen routers on every shape: a 4x4 grid, or a 16-node ring.
    cfg.setInt("mesh_width", topology == "ring" ? 16 : 4);
    cfg.setInt("mesh_height", topology == "ring" ? 1 : 4);
    if (topology == "cmesh")
        cfg.setInt("concentration", 2);
    cfg.set("routing", routing);
    cfg.setInt("link_latency", link_latency);
    return cfg;
}

/** Source/destination pairs: self, one hop, rows, columns, corners. */
constexpr std::pair<int, int> kRoutes[] = {
    {0, 0},  {5, 6},  {9, 5},  {0, 3},  {3, 0},  {0, 12}, {12, 0},
    {0, 15}, {15, 0}, {3, 12}, {12, 3}, {6, 9},  {10, 4}, {1, 14},
};

TEST(LatencyModel, IsolatedPacketLatencyIsClosedForm)
{
    for (const auto& [topology, routing] : acceptedPairs()) {
        for (const int link_latency : {1, 3}) {
            Network net(oracleConfig(topology, routing, link_latency));
            std::int64_t cycle = 0;
            std::uint64_t next_id = 1;
            std::vector<EjectedPacket> out;
            for (const int size : {1, 4}) {
                for (const auto& [src, dest] : kRoutes) {
                    SCOPED_TRACE(topology + "/" + routing + " link_latency="
                                 + std::to_string(link_latency) + " L="
                                 + std::to_string(size) + " "
                                 + std::to_string(src) + "->"
                                 + std::to_string(dest));
                    ASSERT_TRUE(net.idle());
                    Packet p;
                    p.id = next_id++;
                    p.src = src;
                    p.dest = dest;
                    p.size = size;
                    p.createTime = cycle;
                    p.measured = true;
                    net.endpoint(src).enqueue(p);
                    // Step until delivered and every credit is home,
                    // so the next packet also meets an idle network.
                    out.clear();
                    for (const std::int64_t limit = cycle + 200;
                         cycle < limit
                         && (out.empty() || !net.idle());) {
                        net.step(cycle++);
                        net.endpoint(dest).drainEjectedInto(out);
                    }
                    ASSERT_EQ(out.size(), 1u) << "packet not delivered";
                    const EjectedPacket& got = out.front();
                    // Every accepted algorithm routes minimally.
                    EXPECT_EQ(got.hops,
                              net.topology().hopDistance(src, dest) + 1);
                    EXPECT_EQ(got.latency(),
                              link_latency * (got.hops + 1) + size - 1);
                }
            }
        }
    }
}

} // namespace
} // namespace footprint
