/**
 * @file
 * Randomized property tests over seeds and configurations: deadlock
 * freedom (every packet eventually delivered), flit conservation,
 * minimal routing, and quiescence — the invariants the simulator must
 * hold under any admissible traffic.
 */

#include <gtest/gtest.h>

#include <map>

#include "network/network.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"

namespace footprint {
namespace {

struct PropertyCase
{
    std::string algo;
    std::uint64_t seed;
    int numVcs;
    int maxPacketSize;
};

std::vector<PropertyCase>
propertyCases()
{
    std::vector<PropertyCase> cases;
    for (const auto& algo : allRoutingAlgorithmNames()) {
        for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
            cases.push_back({algo, seed, 4, 3});
            cases.push_back({algo, seed, 2, 1});
        }
    }
    return cases;
}

class RandomTrafficProperty
    : public testing::TestWithParam<PropertyCase>
{};

TEST_P(RandomTrafficProperty, AllPacketsDeliveredMinimallyAndDrained)
{
    const PropertyCase& pc = GetParam();
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", pc.numVcs);
    cfg.set("routing", pc.algo);
    Network net(cfg);
    const Mesh& mesh = net.mesh();

    Rng gen(pc.seed);
    std::map<std::uint64_t, std::pair<int, int>> outstanding;
    std::uint64_t id = 0;
    std::int64_t flits_in = 0;
    std::vector<EjectedPacket> done;

    // 600 cycles of random moderate-load traffic, then drain.
    std::int64_t cycle = 0;
    for (; cycle < 600; ++cycle) {
        for (int src = 0; src < 16; ++src) {
            if (!gen.nextBool(0.25))
                continue;
            Packet p;
            p.id = ++id;
            p.src = src;
            p.dest = static_cast<int>(gen.nextBounded(16));
            if (p.dest == src)
                continue;
            p.size = static_cast<int>(
                gen.nextRange(1, pc.maxPacketSize));
            p.createTime = cycle;
            net.endpoint(src).enqueue(p);
            outstanding[p.id] = {p.src, p.dest};
            flits_in += p.size;
        }
        net.step(cycle);
        for (int n = 0; n < 16; ++n) {
            done.clear();
            net.endpoint(n).drainEjectedInto(done);
            for (const EjectedPacket& e : done) {
                auto it = outstanding.find(e.packetId);
                ASSERT_NE(it, outstanding.end()) << "duplicate eject";
                EXPECT_EQ(it->second.second, e.dest);
                EXPECT_EQ(n, e.dest);
                // Minimal routing: hops == distance + 1.
                EXPECT_EQ(e.hops, mesh.hopDistance(e.src, e.dest) + 1);
                outstanding.erase(it);
            }
        }
    }
    // Drain phase: everything must complete (deadlock freedom).
    for (; cycle < 20000 && !outstanding.empty(); ++cycle) {
        net.step(cycle);
        done.clear();
        for (int n = 0; n < 16; ++n)
            net.endpoint(n).drainEjectedInto(done);
        for (const EjectedPacket& e : done)
            outstanding.erase(e.packetId);
    }
    EXPECT_TRUE(outstanding.empty())
        << outstanding.size() << " packets stuck (deadlock?) with "
        << pc.algo;

    // Conservation and quiescence.
    std::int64_t flits_out = 0;
    for (int n = 0; n < 16; ++n) {
        flits_out += static_cast<std::int64_t>(
            net.endpoint(n).flitsEjected());
    }
    EXPECT_EQ(flits_out, flits_in);
    for (std::int64_t c = cycle; c < cycle + 30; ++c)
        net.step(c);
    EXPECT_EQ(net.totalFlitsInFlight(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomTrafficProperty, testing::ValuesIn(propertyCases()),
    [](const testing::TestParamInfo<PropertyCase>& info) {
        std::string name = info.param.algo + "_s"
            + std::to_string(info.param.seed) + "_v"
            + std::to_string(info.param.numVcs);
        for (char& c : name) {
            if (c == '+')
                c = 'X';
        }
        return name;
    });

TEST(StressProperty, HotspotBurstEventuallyDrains)
{
    // Oversubscribe one endpoint hard, stop, and verify the tree
    // drains completely for the Duato-based algorithms.
    for (const char* algo : {"dbar", "footprint"}) {
        SimConfig cfg = defaultConfig();
        cfg.setInt("mesh_width", 4);
        cfg.setInt("mesh_height", 4);
        cfg.setInt("num_vcs", 4);
        cfg.set("routing", algo);
        Network net(cfg);
        std::uint64_t id = 0;
        std::int64_t ejected = 0;
        std::int64_t created = 0;
        for (std::int64_t cycle = 0; cycle < 400; ++cycle) {
            if (cycle < 200) {
                for (int src : {0, 3, 12}) {
                    Packet p;
                    p.id = ++id;
                    p.src = src;
                    p.dest = 15;
                    p.size = 1;
                    p.createTime = cycle;
                    net.endpoint(src).enqueue(p);
                    ++created;
                }
            }
            net.step(cycle);
        }
        std::int64_t cycle = 400;
        for (; cycle < 10000 && ejected < created; ++cycle) {
            net.step(cycle);
            ejected = static_cast<std::int64_t>(
                net.endpoint(15).flitsEjected());
        }
        EXPECT_EQ(ejected, created) << algo;
    }
}

} // namespace
} // namespace footprint
