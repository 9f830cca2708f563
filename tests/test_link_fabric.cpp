/**
 * @file
 * Directed tests for the flat link/credit fabric (DESIGN.md §17):
 * credit round-trips through fabric pipes, in-flight timestamp
 * ordering, and the identity-value padding contract of the sent lane.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "network/link_fabric.hpp"
#include "network/network.hpp"
#include "router/channel.hpp"
#include "sim/config.hpp"

namespace footprint {
namespace {

SimConfig
meshConfig(const std::string& routing)
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
    return p;
}

TEST(LinkFabric, CreditRoundTripThroughBoundPipes)
{
    LinkFabric fab;
    // One flit channel written by node 0, its credit return written by
    // node 1 (the flit receiver), both latency 2.
    fab.build({{0, 2, 1}}, {{1, 2, 1}});
    FlitChannel& flit = fab.flit(0);
    CreditChannel& credit = fab.credit(0);

    Flit f;
    f.vc = 3;
    flit.send(f, 0);  // sent at cycle 0, arrives at 0 + 2
    EXPECT_EQ(flit.inFlightReadyCycle(0), 2);
    EXPECT_FALSE(flit.receive(1).has_value());
    auto got = flit.receive(2);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->vc, 3);
    EXPECT_TRUE(flit.empty());

    // Receiver returns the credit; it lands latency cycles later.
    credit.send(Credit{got->vc}, 2);
    EXPECT_EQ(credit.inFlightReadyCycle(0), 4);
    EXPECT_FALSE(credit.receive(3).has_value());
    auto back = credit.receive(4);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->vc, 3);
    EXPECT_TRUE(credit.empty());
    EXPECT_EQ(fab.flitSent(0), 1u);
    EXPECT_EQ(credit.sentCount(), 1u);
}

TEST(LinkFabric, InFlightTimestampsStayOrdered)
{
    LinkFabric fab;
    // maxRate 2 at latency 3 -> ring holds up to 8 concurrent flits.
    fab.build({{0, 3, 2}}, {{1, 1, 1}});
    FlitChannel& ch = fab.flit(0);

    for (int cycle = 0; cycle < 3; ++cycle) {
        for (int k = 0; k < 2; ++k) {
            Flit f;
            f.vc = cycle * 2 + k;
            ch.send(f, cycle);
        }
    }
    ASSERT_EQ(ch.inFlightCount(), 6u);
    // Arrival timestamps are FIFO-ordered and nondecreasing.
    for (std::size_t i = 1; i < ch.inFlightCount(); ++i)
        EXPECT_LE(ch.inFlightReadyCycle(i - 1),
                  ch.inFlightReadyCycle(i));
    EXPECT_EQ(ch.inFlightReadyCycle(0), 3);

    // Draining pops in send order; the next head is the next arrival.
    int expect_vc = 0;
    for (std::int64_t cycle = 3; cycle <= 5; ++cycle) {
        for (int k = 0; k < 2; ++k) {
            auto f = ch.receive(cycle);
            ASSERT_TRUE(f.has_value()) << "cycle " << cycle;
            EXPECT_EQ(f->vc, expect_vc++);
        }
        EXPECT_FALSE(ch.receive(cycle).has_value());
        if (cycle < 5) {
            EXPECT_EQ(ch.inFlightReadyCycle(0), cycle + 1);
        }
    }
    EXPECT_TRUE(ch.empty());
}

TEST(LinkFabric, FabricAgreesWithLinkRecords)
{
    Network net(meshConfig("oddeven"));
    const LinkFabric& fab = net.linkFabric();
    ASSERT_EQ(fab.flitCount(), net.links().size());
    ASSERT_EQ(fab.creditCount(), net.links().size());
    for (const auto& l : net.links()) {
        // The record's pipe pointers are the fabric's own channels.
        EXPECT_EQ(l.flit, &fab.flit(l.flitId));
        EXPECT_EQ(l.credit, &fab.credit(l.creditId));
        // Writer-node layout: the flit writer is the link source, the
        // credit writer is the flit receiver returning credits.
        EXPECT_EQ(fab.flitWriter(l.flitId), l.srcNode);
        EXPECT_EQ(fab.creditWriter(l.creditId), l.dstNode);
        EXPECT_EQ(fab.flitSent(l.flitId), l.flit->sentCount());
    }
}

TEST(LinkFabric, LanePaddingHoldsIdentityValues)
{
    Network net(meshConfig("dor"));
    const LinkFabric& fab = net.linkFabric();

    // Quiescent network: every real slot and every padding slot holds
    // the identity of +, and no pipe holds anything.
    EXPECT_EQ(fab.totalFlitsSent(), 0u);
    for (const std::uint64_t v : fab.sentLane())
        EXPECT_EQ(v, 0u);
    EXPECT_LE(fab.flitLaneEnd(), fab.sentLane().size());
    for (const auto& l : net.links())
        EXPECT_TRUE(l.flit->empty() && l.credit->empty());

    // After traffic, the batched sums still equal the per-channel
    // sums: padding slots stayed at their identities.
    net.endpoint(0).enqueue(packet(1, 0, 5, 3, 0));
    std::vector<EjectedPacket> done;
    for (std::int64_t cycle = 0; cycle < 40; ++cycle) {
        net.step(cycle);
        std::uint64_t flits = 0;
        std::uint64_t credits = 0;
        for (const auto& l : net.links()) {
            flits += l.flit->sentCount();
            credits += l.credit->sentCount();
        }
        std::uint64_t lane = 0;
        for (const std::uint64_t v : fab.sentLane())
            lane += v;
        EXPECT_EQ(fab.totalFlitsSent(), flits) << "cycle " << cycle;
        EXPECT_EQ(lane, flits + credits) << "cycle " << cycle;
        for (int n = 0; n < net.mesh().numNodes(); ++n)
            net.endpoint(n).drainEjectedInto(done);
    }
    EXPECT_GT(fab.totalFlitsSent(), 0u);
}

} // namespace
} // namespace footprint
