/**
 * @file
 * Unit tests for the endpoint model: source-side injection (credit
 * respect, VC rotation, one flit per cycle) and sink-side ejection
 * (drain rate, credit return, completion records, deferred descriptor
 * release).
 */

#include <gtest/gtest.h>

#include <memory>

#include "expect_panic.hpp"
#include "network/endpoint.hpp"
#include "test_pipes.hpp"

namespace footprint {
namespace {

/**
 * One endpoint (node 3) wired to four pipes the test drives directly.
 * Pipes take 2 sends per cycle: tests deliver two flits at once.
 */
class EndpointHarness
{
  public:
    explicit EndpointHarness(int num_vcs = 4, int buf_size = 4,
                             int ejection_rate = 1,
                             bool atomic = true)
        : pipes(2, 2, /*latency=*/1, /*max_rate=*/2),
          toRouter(&pipes.flit(0)), creditFromRouter(&pipes.credit(0)),
          fromRouter(&pipes.flit(1)), creditToRouter(&pipes.credit(1))
    {
        EndpointParams params;
        params.numVcs = num_vcs;
        params.vcBufSize = buf_size;
        params.ejectionRate = ejection_rate;
        params.atomicVcAlloc = atomic;
        ep = std::make_unique<Endpoint>(3, params, 1, &pool);
        ep->connect(toRouter, creditFromRouter, fromRouter,
                    creditToRouter);
    }

    /**
     * One endpoint cycle, then the release flush the Network's
     * epilogue runs; @return flits the source emitted.
     */
    std::vector<Flit>
    step()
    {
        ep->receivePhase(cycle);
        ep->computePhase(cycle);
        ep->flushReleases();
        ++cycle;
        std::vector<Flit> sent;
        while (auto f = toRouter->receive(cycle))
            sent.push_back(*f);
        return sent;
    }

    Packet
    packet(std::uint64_t id, int dest, int size)
    {
        Packet p;
        p.id = id;
        p.src = 3;
        p.dest = dest;
        p.size = size;
        p.createTime = cycle;
        p.measured = true;
        return p;
    }

    PacketPool pool;
    TestPipes pipes;
    FlitChannel* toRouter;
    CreditChannel* creditFromRouter;
    FlitChannel* fromRouter;
    CreditChannel* creditToRouter;
    std::unique_ptr<Endpoint> ep;
    std::int64_t cycle = 0;
};

TEST(EndpointSource, InjectsOneFlitPerCycle)
{
    EndpointHarness h;
    h.ep->enqueue(h.packet(1, 7, 3));
    for (int i = 0; i < 3; ++i) {
        const auto sent = h.step();
        ASSERT_EQ(sent.size(), 1u) << "cycle " << i;
        EXPECT_EQ(sent[0].head, i == 0);
        EXPECT_EQ(sent[0].tail, i == 2);
        EXPECT_GE(h.pool.get(sent[0].desc).injectTime, 0);
    }
    EXPECT_TRUE(h.step().empty());
    EXPECT_EQ(h.ep->flitsInjected(), 3u);
}

TEST(EndpointSource, PacketFlitsShareOneVc)
{
    EndpointHarness h;
    h.ep->enqueue(h.packet(1, 7, 4));
    int vc = -1;
    for (int i = 0; i < 4; ++i) {
        const auto sent = h.step();
        ASSERT_EQ(sent.size(), 1u);
        if (vc < 0)
            vc = sent[0].vc;
        EXPECT_EQ(sent[0].vc, vc);
    }
}

TEST(EndpointSource, RespectsBufferCredits)
{
    // 2 VCs x 2 slots = 4 flits may be outstanding; atomic policy
    // pins each VC to one packet until its credits return.
    EndpointHarness h(2, 2);
    h.ep->enqueue(h.packet(1, 7, 2));
    h.ep->enqueue(h.packet(2, 9, 2));
    h.ep->enqueue(h.packet(3, 10, 2));
    int sent_total = 0;
    for (int i = 0; i < 10; ++i)
        sent_total += static_cast<int>(h.step().size());
    EXPECT_EQ(sent_total, 4); // packet 3 blocked on credits
    EXPECT_EQ(h.ep->sourceBacklogFlits(), 2);
    // Return packet 1's credits; packet 3 proceeds.
    h.creditFromRouter->send(Credit{0}, h.cycle - 1);
    h.creditFromRouter->send(Credit{0}, h.cycle - 1);
    for (int i = 0; i < 5; ++i)
        sent_total += static_cast<int>(h.step().size());
    EXPECT_EQ(sent_total, 6);
    EXPECT_EQ(h.ep->sourceBacklogFlits(), 0);
}

TEST(EndpointSource, RotatesAcrossInjectionVcs)
{
    EndpointHarness h(4, 4);
    for (int i = 0; i < 4; ++i)
        h.ep->enqueue(h.packet(static_cast<std::uint64_t>(i + 1),
                               7 + i, 1));
    std::set<int> vcs;
    for (int i = 0; i < 4; ++i) {
        const auto sent = h.step();
        ASSERT_EQ(sent.size(), 1u);
        vcs.insert(sent[0].vc);
    }
    // Round-robin spreads consecutive packets over distinct VCs.
    EXPECT_EQ(vcs.size(), 4u);
}

TEST(EndpointSink, DrainsAtConfiguredRate)
{
    EndpointHarness h(4, 4, /*ejection_rate=*/1);
    // Two flits arrive in the same cycle on different VCs.
    Flit a;
    a.dest = 3;
    a.vc = 0;
    a.head = a.tail = true;
    a.packetId = 1;
    Flit b = a;
    b.vc = 1;
    b.packetId = 2;
    h.fromRouter->send(a, h.cycle - 1);
    h.fromRouter->send(b, h.cycle - 1);
    h.step();
    EXPECT_EQ(h.ep->flitsEjected(), 1u); // rate 1: one per cycle
    h.step();
    EXPECT_EQ(h.ep->flitsEjected(), 2u);
}

TEST(EndpointSink, HigherEjectionRateDrainsFaster)
{
    EndpointHarness h(4, 4, /*ejection_rate=*/2);
    for (int v = 0; v < 2; ++v) {
        Flit f;
        f.dest = 3;
        f.vc = v;
        f.head = f.tail = true;
        f.packetId = static_cast<std::uint64_t>(v + 1);
        h.fromRouter->send(f, h.cycle - 1);
    }
    h.step();
    EXPECT_EQ(h.ep->flitsEjected(), 2u);
}

TEST(EndpointSink, ReturnsCreditPerDrainedFlit)
{
    EndpointHarness h;
    Flit f;
    f.dest = 3;
    f.vc = 2;
    f.head = f.tail = true;
    f.packetId = 9;
    h.fromRouter->send(f, h.cycle - 1);
    h.step();
    ++h.cycle; // allow the credit channel latency to elapse
    const auto credit = h.creditToRouter->receive(h.cycle);
    ASSERT_TRUE(credit.has_value());
    EXPECT_EQ(credit->vc, 2);
}

TEST(EndpointSink, RecordsCompletionOnTailWithLatency)
{
    EndpointHarness h;
    // Per-packet constants (size, createTime) ride in a pooled
    // descriptor rather than the flit itself.
    Packet p;
    p.id = 4;
    p.src = 0;
    p.dest = 3;
    p.size = 2;
    p.createTime = 0;
    p.measured = true;
    const std::uint32_t d = h.pool.alloc(p);
    Flit head;
    head.dest = 3;
    head.vc = 0;
    head.head = true;
    head.tail = false;
    head.packetId = 4;
    head.desc = d;
    head.hops = 5;
    Flit tail = head;
    tail.head = false;
    tail.tail = true;
    h.fromRouter->send(head, h.cycle - 1);
    h.step();
    std::vector<EjectedPacket> done;
    h.ep->drainEjectedInto(done);
    EXPECT_TRUE(done.empty()); // only the head so far
    h.fromRouter->send(tail, h.cycle - 1);
    h.step();
    h.ep->drainEjectedInto(done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].packetId, 4u);
    EXPECT_EQ(done[0].size, 2);
    EXPECT_EQ(done[0].hops, 5);
    EXPECT_GT(done[0].latency(), 0);
    // Draining consumes the records.
    done.clear();
    h.ep->drainEjectedInto(done);
    EXPECT_TRUE(done.empty());
}

TEST(EndpointSink, DescriptorReturnsAtFlushNotAtEjection)
{
    // Drive the phases by hand, without the harness's per-step flush:
    // ejecting the tail only queues its descriptor, because the slot
    // belongs to the source's pool segment; flushReleases() returns it.
    EndpointHarness h;
    Packet p = h.packet(5, 3, 1);
    p.src = 0;
    Flit f = makeFlit(p, 0, h.pool.alloc(p));
    f.vc = 1;
    ASSERT_EQ(h.pool.liveCount(), 1u);
    h.fromRouter->send(f, 0);
    h.ep->receivePhase(1);
    h.ep->computePhase(1);
    ASSERT_EQ(h.ep->ejectedCount(), 1u);
    EXPECT_EQ(h.pool.liveCount(), 1u);
    h.ep->flushReleases();
    EXPECT_EQ(h.pool.liveCount(), 0u);
}

TEST(EndpointDeath, ConnectRequiresAllFourPipes)
{
    EndpointHarness h;
    Endpoint ep(3, EndpointParams{}, 1, &h.pool);
    EXPECT_PANIC(ep.connect(h.toRouter, h.creditFromRouter, h.fromRouter,
                            nullptr),
                 "needs all four local pipes");
}

TEST(EndpointDeath, MisroutedFlitPanics)
{
    EndpointHarness h;
    Flit f;
    f.dest = 11; // endpoint is node 3
    f.vc = 0;
    f.head = f.tail = true;
    h.fromRouter->send(f, h.cycle - 1);
    EXPECT_PANIC(h.step(), "misrouted");
}

TEST(EndpointDeath, WrongSourcePanics)
{
    EndpointHarness h;
    Packet p;
    p.src = 9; // endpoint is node 3
    p.dest = 7;
    EXPECT_PANIC(h.ep->enqueue(p), "wrong endpoint");
}

} // namespace
} // namespace footprint
