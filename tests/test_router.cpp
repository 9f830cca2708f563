/**
 * @file
 * Router-level microarchitecture tests: a single Router instance with
 * hand-wired channels, checking the credit protocol, wormhole flit
 * ordering, VC allocation semantics (priorities, atomic reallocation,
 * footprint owner tracking), switch-allocation speedup, and escape-VC
 * usage — behaviours that network-level tests can only observe
 * indirectly.
 */

#include <gtest/gtest.h>

#include <memory>

#include "router/router.hpp"
#include "routing/dor.hpp"
#include "routing/footprint.hpp"
#include "sim/config.hpp"
#include "test_pipes.hpp"

namespace footprint {
namespace {

/**
 * Harness: one router at node 5 of a 4x4 mesh (an interior node with
 * all four mesh neighbors), with every port wired to channels we can
 * drive and observe directly. Pipes are sized for 8 sends per cycle
 * (16 in flight): tests return a burst of credits in one cycle and
 * leave up to 12 upstream credits undrained.
 */
class RouterHarness
{
  public:
    RouterHarness(const RoutingAlgorithm* routing, int num_vcs = 4,
                  int buf_size = 4, int speedup = 2)
        : mesh(4, 4),
          pipes(2 * kNumPorts, 2 * kNumPorts, /*latency=*/1,
                /*max_rate=*/8)
    {
        RouterParams params;
        params.numVcs = num_vcs;
        params.vcBufSize = buf_size;
        params.internalSpeedup = speedup;
        router = std::make_unique<Router>(mesh, 5, params, routing,
                                          1, nullptr);
        for (int p = 0; p < kNumPorts; ++p) {
            in[p] = &pipes.flit(p);
            inCredit[p] = &pipes.credit(p);
            out[p] = &pipes.flit(kNumPorts + p);
            outCredit[p] = &pipes.credit(kNumPorts + p);
            router->connectInput(p, in[p], inCredit[p]);
            router->connectOutput(p, out[p], outCredit[p]);
        }
    }

    /** Send a flit into input @p port on @p vc at the current cycle. */
    void
    inject(int port, int vc, const Flit& f)
    {
        Flit copy = f;
        copy.vc = vc;
        in[port]->send(copy, cycle - 1); // arrives this cycle
    }

    /** Advance one router cycle; @return flits emitted per port. */
    std::array<std::vector<Flit>, kNumPorts>
    step()
    {
        router->receivePhase(cycle);
        router->computePhase(cycle);
        router->transmitPhase(cycle);
        ++cycle;
        std::array<std::vector<Flit>, kNumPorts> emitted;
        for (int p = 0; p < kNumPorts; ++p) {
            while (auto f = out[p]->receive(cycle))
                emitted[static_cast<std::size_t>(p)].push_back(*f);
        }
        return emitted;
    }

    /** Return a credit to output (port, vc), visible next cycle. */
    void
    returnCredit(int port, int vc)
    {
        outCredit[port]->send(Credit{vc}, cycle - 1);
    }

    /** Credits the router sent upstream on input @p port this cycle. */
    std::vector<Credit>
    drainUpstreamCredits(int port)
    {
        std::vector<Credit> credits;
        while (auto c = inCredit[port]->receive(cycle))
            credits.push_back(*c);
        return credits;
    }

    Mesh mesh;
    TestPipes pipes;
    std::unique_ptr<Router> router;
    FlitChannel* in[kNumPorts];
    CreditChannel* inCredit[kNumPorts];
    FlitChannel* out[kNumPorts];
    CreditChannel* outCredit[kNumPorts];
    std::int64_t cycle = 0;
};

Flit
flitTo(int dest, std::uint64_t pkt = 1, bool head = true,
       bool tail = true, int src = 5)
{
    Flit f;
    f.packetId = pkt;
    f.src = src;
    f.dest = dest;
    f.head = head;
    f.tail = tail;
    return f;
}

TEST(RouterMicro, ForwardsFlitTowardDestination)
{
    DorRouting dor;
    RouterHarness h(&dor);
    // Node 5 is (1,1); dest 7 is (3,1): East.
    h.inject(portOf(Dir::West), 0, flitTo(7));
    bool seen = false;
    for (int i = 0; i < 5 && !seen; ++i) {
        auto emitted = h.step();
        if (!emitted[portOf(Dir::East)].empty()) {
            seen = true;
            EXPECT_EQ(emitted[portOf(Dir::East)][0].dest, 7);
        }
    }
    EXPECT_TRUE(seen);
}

TEST(RouterMicro, EjectsAtOwnNode)
{
    DorRouting dor;
    RouterHarness h(&dor);
    h.inject(portOf(Dir::West), 1, flitTo(5));
    bool seen = false;
    for (int i = 0; i < 5 && !seen; ++i) {
        auto emitted = h.step();
        seen = !emitted[portOf(Dir::Local)].empty();
    }
    EXPECT_TRUE(seen);
}

TEST(RouterMicro, ReturnsCreditWhenFlitLeavesBuffer)
{
    DorRouting dor;
    RouterHarness h(&dor);
    h.inject(portOf(Dir::West), 2, flitTo(7));
    int credits = 0;
    for (int i = 0; i < 5 && credits == 0; ++i) {
        h.step();
        for (const Credit& c :
             h.drainUpstreamCredits(portOf(Dir::West))) {
            EXPECT_EQ(c.vc, 2);
            ++credits;
        }
    }
    EXPECT_EQ(credits, 1);
}

TEST(RouterMicro, StallsWithoutDownstreamCredits)
{
    DorRouting dor;
    RouterHarness h(&dor, 4, 2); // 2-flit buffers
    // Keep the west input backlogged (respecting its buffer space, as
    // a credit-honouring upstream would) and never return east
    // credits: at most 4 VCs x 2 credits = 8 flits can ever leave.
    std::uint64_t id = 0;
    int sent = 12;
    std::array<int, 4> consumed{};
    for (int i = 0; i < 30; ++i) {
        for (int v = 0; v < 4 && sent > 0; ++v) {
            if (h.router->inputOccupancy(portOf(Dir::West), v) < 2) {
                h.inject(portOf(Dir::West), v, flitTo(7, ++id));
                --sent;
                break; // one flit per cycle on the link
            }
        }
        const auto out = h.step();
        for (const Flit& f : out[portOf(Dir::East)])
            ++consumed[static_cast<std::size_t>(f.vc)];
    }
    // Stalled: all east credits consumed, nothing more comes out.
    auto emitted = h.step();
    EXPECT_TRUE(emitted[portOf(Dir::East)].empty());
    EXPECT_GT(h.router->totalBufferedFlits(), 0);
    // Returning the consumed credits un-stalls it.
    for (int v = 0; v < 4; ++v) {
        for (int c = 0; c < consumed[static_cast<std::size_t>(v)]; ++c)
            h.returnCredit(portOf(Dir::East), v);
    }
    bool resumed = false;
    for (int i = 0; i < 5 && !resumed; ++i)
        resumed = !h.step()[portOf(Dir::East)].empty();
    EXPECT_TRUE(resumed);
}

TEST(RouterMicro, WormholeKeepsPacketOnOneVcInOrder)
{
    DorRouting dor;
    RouterHarness h(&dor);
    // 4-flit packet arriving over 4 cycles.
    for (int i = 0; i < 4; ++i) {
        h.inject(portOf(Dir::West), 1,
                 flitTo(7, 1, i == 0, i == 3));
        h.step();
    }
    std::vector<Flit> got;
    for (int i = 0; i < 8; ++i) {
        auto emitted = h.step();
        for (const Flit& f : emitted[portOf(Dir::East)])
            got.push_back(f);
    }
    // Drain anything emitted during injection too.
    // (flits may have been forwarded while later ones arrived)
    ASSERT_LE(got.size(), 4u);
    int vc = -1;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (vc < 0)
            vc = got[i].vc;
        EXPECT_EQ(got[i].vc, vc) << "packet switched output VC";
    }
}

TEST(RouterMicro, SpeedupMovesTwoFlitsPerCycleThroughCrossbar)
{
    DorRouting dor;
    RouterHarness h(&dor, 4, 4, /*speedup=*/2);
    // Two flits to different outputs, from different input ports,
    // injected the same cycle: with speedup 2 both traverse at once,
    // but each output link still emits one flit per cycle.
    h.inject(portOf(Dir::West), 0, flitTo(7, 1));  // -> East
    h.inject(portOf(Dir::East), 0, flitTo(4, 2));  // -> West
    auto e1 = h.step();
    auto e2 = h.step();
    const std::size_t first =
        e1[portOf(Dir::East)].size() + e1[portOf(Dir::West)].size();
    const std::size_t second =
        e2[portOf(Dir::East)].size() + e2[portOf(Dir::West)].size();
    EXPECT_EQ(first + second, 2u);
}

TEST(RouterMicro, SpeedupAllowsTwoFlitsFromOneInputPort)
{
    DorRouting dor;
    RouterHarness h(&dor, 4, 4, 2);
    // Two packets on different VCs of the same input port, to
    // different outputs.
    h.inject(portOf(Dir::West), 0, flitTo(7, 1));   // East
    h.inject(portOf(Dir::West), 1, flitTo(13, 2));  // North (1,3)
    // With speedup 2 the same input port sends both flits in the very
    // first cycle (one per switch-allocation pass).
    auto e = h.step();
    const int total = static_cast<int>(e[portOf(Dir::East)].size()
                                       + e[portOf(Dir::North)].size());
    EXPECT_EQ(total, 2);
}

TEST(RouterMicro, FootprintOwnerIsTrackedOnOutputVc)
{
    FootprintRouting fp;
    RouterHarness h(&fp);
    h.inject(portOf(Dir::West), 1, flitTo(7, 1));
    h.step();
    h.step();
    // Some east output VC must now be owned by destination 7.
    bool found = false;
    for (int v = 0; v < 4; ++v) {
        if (h.router->outVcOwner(portOf(Dir::East), v) == 7)
            found = true;
    }
    EXPECT_TRUE(found);
    EXPECT_NE(popcount(h.router->footprintVcMask(portOf(Dir::East), 7)),
              0);
    EXPECT_EQ(h.router->footprintVcMask(portOf(Dir::East), 9), 0u);
}

TEST(RouterMicro, AtomicVcNotReusedUntilCreditReturns)
{
    FootprintRouting fp;
    RouterHarness h(&fp, 4, 4);
    // First packet to dest 7 leaves on some east VC.
    h.inject(portOf(Dir::West), 0, flitTo(7, 1));
    h.step();
    h.step();
    VcMask occupied = h.router->occupiedVcMask(portOf(Dir::East));
    EXPECT_NE(occupied, 0u);
    // Without credit return the VC stays occupied (atomic policy).
    for (int i = 0; i < 5; ++i)
        h.step();
    EXPECT_EQ(h.router->occupiedVcMask(portOf(Dir::East)), occupied);
    // Credit return frees it.
    for (int v = 0; v < 4; ++v) {
        if ((occupied >> v) & 1)
            h.returnCredit(portOf(Dir::East), v);
    }
    h.step();
    EXPECT_EQ(h.router->occupiedVcMask(portOf(Dir::East)), 0u);
}

TEST(RouterMicro, ConvergenceCounterSeesMultipleInputVcs)
{
    FootprintRouting fp;
    RouterHarness h(&fp, 4, 4);
    // Two heads to the same dest on different input VCs. The counter
    // is live, so read it once they land, before compute sends them on.
    h.inject(portOf(Dir::West), 0, flitTo(7, 1, true, true, 4));
    h.inject(portOf(Dir::South), 0, flitTo(7, 2, true, true, 1));
    h.router->receivePhase(h.cycle);
    EXPECT_EQ(h.router->convergingInputs(7), 2);
    EXPECT_EQ(h.router->convergingInputs(9), 0);

    // Non-atomic reallocation (DOR) queues packet B's head behind
    // packet A's tail in one input VC. The counters follow the VC's
    // front flit: once A's tail leaves, A's destination loses the VC
    // and B's gains it.
    DorRouting dor;
    RouterHarness d(&dor, 4, 4, /*speedup=*/1);
    const int west = portOf(Dir::West);
    d.inject(west, 0, flitTo(7, 1, true, false, 4));   // A head, East
    d.inject(west, 0, flitTo(7, 1, false, true, 4));   // A tail
    d.inject(west, 0, flitTo(13, 2, true, true, 4));   // B, North
    d.step();  // A's head leaves
    EXPECT_EQ(d.router->convergingInputs(7), 1);
    EXPECT_EQ(d.router->convergingInputs(13), 0);
    d.step();  // A's tail leaves
    EXPECT_EQ(d.router->convergingInputs(7), 0);
    EXPECT_EQ(d.router->convergingInputs(13), 1);

    // Every input VC of a 64-VC router fronts one destination: 320
    // inputs, past what an 8-bit counter holds. The pipes take 8
    // sends per cycle, so the heads land over 8 receive phases.
    RouterHarness wide(&fp, 64, 4);
    for (int first = 0; first < 64; first += 8, ++wide.cycle) {
        for (int port = 0; port < kNumPorts; ++port) {
            for (int vc = first; vc < first + 8; ++vc)
                wide.inject(port, vc, flitTo(7, 3, true, true, 1));
        }
        wide.router->receivePhase(wide.cycle);
    }
    EXPECT_EQ(wide.router->convergingInputs(7), 320);
}

TEST(RouterMicro, EscapeVcZeroIsUsedWhenAdaptiveVcsAreBlocked)
{
    // 2 VCs: VC 0 escape, VC 1 the only adaptive VC. Occupy VC 1 with
    // a packet to 7 (never return its credit), then a packet to a
    // different destination must fall through to the escape VC.
    FootprintRouting fp;
    RouterHarness h(&fp, 2, 4);
    h.inject(portOf(Dir::West), 0, flitTo(7, 1));
    for (int i = 0; i < 4; ++i)
        h.step();
    h.inject(portOf(Dir::West), 1, flitTo(6, 2));
    bool used_escape = false;
    for (int i = 0; i < 10 && !used_escape; ++i) {
        auto e = h.step();
        for (const Flit& f : e[portOf(Dir::East)])
            used_escape = used_escape || f.vc == 0;
    }
    EXPECT_TRUE(used_escape);
}

TEST(RouterMicro, BlockingCountersIncrementWhenNothingAllocatable)
{
    DorRouting dor;
    RouterHarness h(&dor, 2, 2);
    // Fill both east VCs, then a third packet must block.
    h.inject(portOf(Dir::West), 0, flitTo(7, 1));
    h.inject(portOf(Dir::West), 1, flitTo(7, 2));
    for (int i = 0; i < 4; ++i)
        h.step();
    h.inject(portOf(Dir::North), 0, flitTo(7, 3));
    for (int i = 0; i < 4; ++i)
        h.step();
    EXPECT_GT(h.router->counters().vcAllocFail, 0u);
}

TEST(RouterMicro, InputOccupancyAndFrontDestAccessors)
{
    DorRouting dor;
    RouterHarness h(&dor, 4, 4);
    h.inject(portOf(Dir::West), 2, flitTo(7, 1));
    h.router->receivePhase(h.cycle);
    EXPECT_EQ(h.router->inputOccupancy(portOf(Dir::West), 2), 1);
    EXPECT_EQ(h.router->inputFrontDest(portOf(Dir::West), 2), 7);
    EXPECT_TRUE(h.router->inputHoldsDest(portOf(Dir::West), 2, 7));
    EXPECT_FALSE(h.router->inputHoldsDest(portOf(Dir::West), 2, 9));
    EXPECT_EQ(h.router->inputFrontDest(portOf(Dir::West), 0), -1);
}

} // namespace
} // namespace footprint
