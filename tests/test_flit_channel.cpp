/**
 * @file
 * Unit tests for flit construction and the fixed-latency channels.
 */

#include <gtest/gtest.h>

#include "expect_panic.hpp"
#include "router/channel.hpp"
#include "router/flit.hpp"
#include "router/packet_pool.hpp"
#include "test_pipes.hpp"

namespace footprint {
namespace {

Packet
makePacket(int size)
{
    Packet p;
    p.id = 7;
    p.src = 1;
    p.dest = 2;
    p.size = size;
    p.createTime = 100;
    p.measured = true;
    return p;
}

TEST(Flit, SingleFlitPacketIsHeadAndTail)
{
    const Flit f = makeFlit(makePacket(1), 0);
    EXPECT_TRUE(f.head);
    EXPECT_TRUE(f.tail);
}

TEST(Flit, MultiFlitPacketStructure)
{
    const Packet p = makePacket(4);
    for (int i = 0; i < 4; ++i) {
        const Flit f = makeFlit(p, i, /*desc=*/42);
        EXPECT_EQ(f.head, i == 0);
        EXPECT_EQ(f.tail, i == 3);
        EXPECT_EQ(f.packetId, p.id);
        EXPECT_EQ(f.src, p.src);
        EXPECT_EQ(f.dest, p.dest);
        EXPECT_EQ(f.desc, 42u);
    }
}

TEST(Flit, DescriptorPoolCarriesPerPacketConstants)
{
    // Per-packet constants live in the pooled descriptor, not in the
    // per-hop-copied flit.
    PacketPool pool;
    const Packet p = makePacket(4);
    const std::uint32_t d = pool.alloc(p);
    EXPECT_NE(d, 0u);
    EXPECT_EQ(pool.get(d).packetSize, 4);
    EXPECT_EQ(pool.get(d).createTime, 100);
    EXPECT_TRUE(pool.get(d).measured);
    EXPECT_EQ(pool.get(d).injectTime, -1);
    EXPECT_EQ(pool.liveCount(), 1u);

    // Released slots are recycled LIFO.
    pool.release(d);
    EXPECT_EQ(pool.liveCount(), 0u);
    EXPECT_EQ(pool.alloc(makePacket(1)), d);
}

TEST(Flit, StaysSmallEnoughToCopyPerHop)
{
    EXPECT_LE(sizeof(Flit), 32u);
}

TEST(Flit, ToStringMentionsEndpoints)
{
    const Flit f = makeFlit(makePacket(1), 0);
    const std::string s = f.toString();
    EXPECT_NE(s.find("1->2"), std::string::npos);
}

TEST(FlitChannel, DeliversAfterLatency)
{
    TestPipes pipes(1, 0);
    FlitChannel& ch = pipes.flit(0);
    Flit f = makeFlit(makePacket(1), 0);
    ch.send(f, 10);
    EXPECT_FALSE(ch.receive(10).has_value());
    const auto got = ch.receive(11);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->packetId, f.packetId);
    EXPECT_FALSE(ch.receive(12).has_value());
}

TEST(FlitChannel, MultiCycleLatency)
{
    TestPipes pipes(1, 0, /*latency=*/3);
    FlitChannel& ch = pipes.flit(0);
    ch.send(makeFlit(makePacket(1), 0), 5);
    EXPECT_FALSE(ch.receive(7).has_value());
    EXPECT_TRUE(ch.receive(8).has_value());
}

TEST(FlitChannel, PreservesOrder)
{
    TestPipes pipes(1, 0, /*latency=*/2);
    FlitChannel& ch = pipes.flit(0);
    Packet p = makePacket(3);
    for (int i = 0; i < 3; ++i) {
        Flit f = makeFlit(p, i);
        ch.send(f, 10 + i);
    }
    for (int i = 0; i < 3; ++i) {
        const auto got = ch.receive(12 + i);
        ASSERT_TRUE(got.has_value()) << "flit " << i;
        EXPECT_EQ(got->head, i == 0);
        EXPECT_EQ(got->tail, i == 2);
    }
}

TEST(FlitChannel, LateReceiveStillDelivers)
{
    TestPipes pipes(1, 0);
    FlitChannel& ch = pipes.flit(0);
    ch.send(makeFlit(makePacket(1), 0), 0);
    // Receiver polls late; delivery happens at the first poll after
    // readiness.
    EXPECT_TRUE(ch.receive(100).has_value());
}

TEST(FlitChannel, InFlightCount)
{
    TestPipes pipes(1, 0, /*latency=*/5);
    FlitChannel& ch = pipes.flit(0);
    EXPECT_TRUE(ch.empty());
    ch.send(makeFlit(makePacket(1), 0), 0);
    ch.send(makeFlit(makePacket(1), 0), 1);
    EXPECT_EQ(ch.inFlightCount(), 2u);
    (void)ch.receive(5);
    EXPECT_EQ(ch.inFlightCount(), 1u);
}

TEST(CreditChannel, CarriesVcIndex)
{
    TestPipes pipes(0, 1, /*latency=*/1, /*max_rate=*/2);
    CreditChannel& ch = pipes.credit(0);
    ch.send(Credit{3}, 0);
    ch.send(Credit{7}, 0);
    const auto a = ch.receive(1);
    const auto b = ch.receive(1);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->vc, 3);
    EXPECT_EQ(b->vc, 7);
    EXPECT_FALSE(ch.receive(1).has_value());
}

TEST(FlitChannelDeath, OverflowPanics)
{
    // Latency 1 at one send per cycle: capacity 2, the most a
    // flow-controlled link can hold. A third item in flight is a bug.
    TestPipes pipes(1, 0, /*latency=*/1, /*max_rate=*/1);
    FlitChannel& ch = pipes.flit(0);
    ch.send(makeFlit(makePacket(1), 0), 0);
    ch.send(makeFlit(makePacket(1), 0), 1);
    EXPECT_EQ(ch.inFlightCount(), 2u);
    EXPECT_PANIC(ch.send(makeFlit(makePacket(1), 0), 1),
                 "pipe overflow");
}

} // namespace
} // namespace footprint
