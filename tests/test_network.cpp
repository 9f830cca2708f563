/**
 * @file
 * Integration tests at the Network level: packet delivery, latency and
 * hop bounds at zero load, flit conservation, credit restoration, and
 * multi-packet wormhole integrity — parameterized over every routing
 * algorithm.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "network/network.hpp"
#include "sim/config.hpp"

namespace footprint {
namespace {

SimConfig
smallConfig(const std::string& routing)
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", 4);
    cfg.set("routing", routing);
    return cfg;
}

Packet
packet(std::uint64_t id, int src, int dest, int size,
       std::int64_t cycle)
{
    Packet p;
    p.id = id;
    p.src = src;
    p.dest = dest;
    p.size = size;
    p.createTime = cycle;
    p.measured = true;
    return p;
}

/** Run until @p count packets eject anywhere, or cycle limit. */
std::vector<EjectedPacket>
runUntilEjected(Network& net, std::size_t count, std::int64_t limit)
{
    std::vector<EjectedPacket> done;
    for (std::int64_t cycle = 0; cycle < limit; ++cycle) {
        net.step(cycle);
        for (int n = 0; n < net.mesh().numNodes(); ++n)
            net.endpoint(n).drainEjectedInto(done);
        if (done.size() >= count)
            break;
    }
    return done;
}

class NetworkAlgoTest : public testing::TestWithParam<std::string>
{};

TEST_P(NetworkAlgoTest, SinglePacketIsDelivered)
{
    SimConfig cfg = smallConfig(GetParam());
    Network net(cfg);
    net.endpoint(0).enqueue(packet(1, 0, 15, 1, 0));
    const auto done = runUntilEjected(net, 1, 200);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].packetId, 1u);
    EXPECT_EQ(done[0].src, 0);
    EXPECT_EQ(done[0].dest, 15);
}

TEST_P(NetworkAlgoTest, ZeroLoadHopsAreMinimal)
{
    SimConfig cfg = smallConfig(GetParam());
    Network net(cfg);
    net.endpoint(1).enqueue(packet(1, 1, 14, 1, 0));
    const auto done = runUntilEjected(net, 1, 200);
    ASSERT_EQ(done.size(), 1u);
    // Hops counts router traversals: distance + 1 (the source router).
    EXPECT_EQ(done[0].hops, net.mesh().hopDistance(1, 14) + 1);
}

TEST_P(NetworkAlgoTest, ZeroLoadLatencyIsBounded)
{
    SimConfig cfg = smallConfig(GetParam());
    Network net(cfg);
    net.endpoint(0).enqueue(packet(1, 0, 5, 1, 0));
    const auto done = runUntilEjected(net, 1, 200);
    ASSERT_EQ(done.size(), 1u);
    // 2 mesh hops: a handful of cycles through injection, three
    // routers, and ejection; generous upper bound.
    EXPECT_GE(done[0].latency(), 3);
    EXPECT_LE(done[0].latency(), 20);
}

TEST_P(NetworkAlgoTest, MultiFlitPacketArrivesIntact)
{
    SimConfig cfg = smallConfig(GetParam());
    Network net(cfg);
    net.endpoint(0).enqueue(packet(1, 0, 15, 6, 0));
    const auto done = runUntilEjected(net, 1, 300);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].size, 6);
    EXPECT_EQ(net.endpoint(15).flitsEjected(), 6u);
}

TEST_P(NetworkAlgoTest, ManyPacketsAllDeliveredToRightPlaces)
{
    SimConfig cfg = smallConfig(GetParam());
    Network net(cfg);
    std::uint64_t id = 0;
    // Every node sends one packet to every other node, staggered.
    for (int s = 0; s < 16; ++s) {
        for (int d = 0; d < 16; ++d) {
            if (s != d)
                net.endpoint(s).enqueue(packet(++id, s, d, 2, 0));
        }
    }
    const auto done = runUntilEjected(net, 240, 5000);
    ASSERT_EQ(done.size(), 240u);
    std::map<int, int> per_dest;
    for (const auto& p : done) {
        EXPECT_NE(p.src, p.dest);
        ++per_dest[p.dest];
    }
    for (const auto& [dest, count] : per_dest)
        EXPECT_EQ(count, 15) << "dest " << dest;
}

TEST_P(NetworkAlgoTest, NetworkFullyDrainsAfterBurst)
{
    SimConfig cfg = smallConfig(GetParam());
    Network net(cfg);
    std::uint64_t id = 0;
    for (int s = 0; s < 16; ++s)
        net.endpoint(s).enqueue(packet(++id, s, 15 - s, 4, 0));
    // 15 -> 0 etc.; node 7 -> 8 valid; 8->7 etc. Node (15-s)==s never
    // happens on 16 nodes.
    const auto done = runUntilEjected(net, 16, 3000);
    EXPECT_EQ(done.size(), 16u);
    // Let credits propagate back, then everything must be quiescent.
    for (std::int64_t c = 3000; c < 3050; ++c)
        net.step(c);
    EXPECT_EQ(net.totalFlitsInFlight(), 0);
}

TEST_P(NetworkAlgoTest, FlitConservation)
{
    SimConfig cfg = smallConfig(GetParam());
    Network net(cfg);
    std::uint64_t id = 0;
    std::int64_t flits_in = 0;
    for (int s = 0; s < 16; ++s) {
        for (int k = 1; k <= 4; ++k) {
            const int d = (s + 3 * k) % 16;
            if (d == s)
                continue;
            net.endpoint(s).enqueue(packet(++id, s, d, k, 0));
            flits_in += k;
        }
    }
    (void)runUntilEjected(net, id, 5000);
    std::int64_t flits_out = 0;
    for (int n = 0; n < 16; ++n)
        flits_out +=
            static_cast<std::int64_t>(net.endpoint(n).flitsEjected());
    EXPECT_EQ(flits_out, flits_in);
    EXPECT_EQ(net.totalFlitsInFlight(), 0);
}

TEST_P(NetworkAlgoTest, WormholeFlitsStayContiguousPerPacket)
{
    SimConfig cfg = smallConfig(GetParam());
    Network net(cfg);
    // Two long packets from different sources to the same dest.
    net.endpoint(0).enqueue(packet(1, 0, 10, 6, 0));
    net.endpoint(3).enqueue(packet(2, 3, 10, 6, 0));
    const auto done = runUntilEjected(net, 2, 500);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(net.endpoint(10).flitsEjected(), 12u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, NetworkAlgoTest,
    testing::ValuesIn(allRoutingAlgorithmNames()),
    [](const testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (c == '+')
                c = '_';
        }
        return name;
    });

TEST(Network, StatusBoardPublishesDirectly)
{
    // The board is written only in the transmit phase, after every
    // compute-phase read of the cycle, so a single direct-write array
    // gives readers exactly last cycle's values — the one-cycle status
    // delay — without double buffering.
    StatusBoard board;
    board.init(2);
    EXPECT_EQ(board.idleCount(1, 0), 0);
    board.publish(1, 0, 7);
    EXPECT_EQ(board.idleCount(1, 0), 7);
    board.publish(1, 0, 3);
    EXPECT_EQ(board.idleCount(1, 0), 3);
    // Other slots are untouched.
    EXPECT_EQ(board.idleCount(0, 0), 0);
}

TEST(Network, TooFewVcsForDuatoIsFatal)
{
    SimConfig cfg = smallConfig("footprint");
    cfg.setInt("num_vcs", 1);
    EXPECT_EXIT(Network{cfg}, testing::ExitedWithCode(1), "more VCs");
}

TEST(Network, OutOfRangeRouterParametersAreFatal)
{
    // User input the router and link fabric would otherwise trip an
    // internal assert on: each must end in fatal(), not a panic.
    const std::pair<const char*, int> bad[] = {
        {"num_vcs", 65},
        {"vc_buf_size", 0},
        {"output_fifo_size", 0},
        {"internal_speedup", 0},
        {"ejection_rate", 0}};
    for (const auto& [key, value] : bad) {
        SimConfig cfg = defaultConfig();
        cfg.setInt(key, value);
        EXPECT_EXIT(Network{cfg}, testing::ExitedWithCode(1),
                    std::string("fatal: ") + key)
            << key << "=" << value;
    }
}

TEST(Network, MoreThan4096NodesIsFatal)
{
    // Packet descriptors hold one pool segment per node in 12 bits.
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 65);
    cfg.setInt("mesh_height", 65);
    EXPECT_EXIT(Network{cfg}, testing::ExitedWithCode(1),
                "fatal: the network has 4225 nodes; at most 4096");
    cfg.setInt("mesh_width", 64);
    cfg.setInt("mesh_height", 64);
    const Network net(cfg);
    EXPECT_EQ(net.mesh().numNodes(), 4096);
}

TEST(Network, RoutersSeeNeighborStatus)
{
    SimConfig cfg = smallConfig("dbar");
    Network net(cfg);
    // After one step, every router's published idle counts (all VCs
    // idle) must be visible to its neighbors.
    net.step(0);
    const Router& r = net.router(5);
    EXPECT_EQ(r.remoteIdleCount(portOf(Dir::East),
                                portOf(Dir::East)),
              4);
}

TEST(Network, AggregateCountersSumAndReset)
{
    SimConfig cfg = smallConfig("footprint");
    Network net(cfg);
    net.endpoint(0).enqueue(packet(1, 0, 15, 1, 0));
    for (std::int64_t c = 0; c < 50; ++c)
        net.step(c);
    EXPECT_GT(net.aggregateCounters().vcAllocSuccess, 0u);
    net.resetCounters();
    EXPECT_EQ(net.aggregateCounters().vcAllocSuccess, 0u);
}

} // namespace
} // namespace footprint
