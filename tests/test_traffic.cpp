/**
 * @file
 * Unit tests for traffic patterns, packet-size distributions, and the
 * Bernoulli injection schedule.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "sim/rng.hpp"
#include "traffic/injection.hpp"
#include "traffic/pattern.hpp"

namespace footprint {
namespace {

TEST(UniformPattern, NeverSelectsSelf)
{
    const Mesh mesh(8, 8);
    UniformPattern p(mesh);
    Rng rng(1);
    for (int src = 0; src < 64; ++src) {
        for (int i = 0; i < 200; ++i) {
            const int d = p.dest(src, rng);
            EXPECT_NE(d, src);
            EXPECT_GE(d, 0);
            EXPECT_LT(d, 64);
        }
    }
}

TEST(UniformPattern, CoversAllDestinations)
{
    const Mesh mesh(4, 4);
    UniformPattern p(mesh);
    Rng rng(2);
    std::set<int> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(p.dest(0, rng));
    EXPECT_EQ(seen.size(), 15u); // everything but the source
}

TEST(TransposePattern, MapsCoordinates)
{
    const Mesh mesh(4, 4);
    TransposePattern p(mesh);
    Rng rng(1);
    // (1, 0) -> (0, 1): node 1 -> node 4.
    EXPECT_EQ(p.dest(1, rng), 4);
    // (3, 2) -> (2, 3): node 11 -> node 14.
    EXPECT_EQ(p.dest(11, rng), 14);
}

TEST(TransposePattern, DiagonalSendsNothing)
{
    const Mesh mesh(4, 4);
    TransposePattern p(mesh);
    Rng rng(1);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(p.dest(mesh.nodeId(Coord{i, i}), rng), -1);
}

TEST(TransposePattern, IsAnInvolution)
{
    const Mesh mesh(8, 8);
    TransposePattern p(mesh);
    Rng rng(1);
    for (int src = 0; src < 64; ++src) {
        const int d = p.dest(src, rng);
        if (d < 0)
            continue;
        EXPECT_EQ(p.dest(d, rng), src);
    }
}

TEST(TransposePattern, RequiresSquareMesh)
{
    const Mesh mesh(4, 2);
    EXPECT_EXIT(TransposePattern{mesh}, testing::ExitedWithCode(1),
                "square");
}

TEST(ShufflePattern, RotatesBits)
{
    const Mesh mesh(8, 8); // 64 nodes, 6 bits
    ShufflePattern p(mesh);
    Rng rng(1);
    // 0b000001 -> 0b000010.
    EXPECT_EQ(p.dest(1, rng), 2);
    // 0b100000 -> 0b000001.
    EXPECT_EQ(p.dest(32, rng), 1);
    // 0b101010 -> 0b010101.
    EXPECT_EQ(p.dest(42, rng), 21);
}

TEST(ShufflePattern, FixedPointsSendNothing)
{
    const Mesh mesh(8, 8);
    ShufflePattern p(mesh);
    Rng rng(1);
    EXPECT_EQ(p.dest(0, rng), -1);
    EXPECT_EQ(p.dest(63, rng), -1);
    // 0b010101 -> 0b101010 != self.
    EXPECT_EQ(p.dest(21, rng), 42);
}

TEST(ShufflePattern, IsAPermutation)
{
    const Mesh mesh(8, 8);
    ShufflePattern p(mesh);
    Rng rng(1);
    std::set<int> dests;
    for (int src = 0; src < 64; ++src) {
        const int d = p.dest(src, rng);
        if (d >= 0) {
            EXPECT_TRUE(dests.insert(d).second)
                << "duplicate destination " << d;
        }
    }
}

TEST(ShufflePattern, RequiresPowerOfTwo)
{
    const Mesh mesh(3, 4);
    EXPECT_EXIT(ShufflePattern{mesh}, testing::ExitedWithCode(1),
                "power-of-two");
}

TEST(HotspotFlows, MatchesTable3On8x8)
{
    // Table 3 (8x8): f1 n0->n63, f2 n32->n63, f3 n7->n56, f4 n39->n56,
    // f5 n63->n0, f6 n31->n0, f7 n56->n7, f8 n24->n7.
    const Mesh mesh(8, 8);
    const auto flows = defaultHotspotFlows(mesh);
    ASSERT_EQ(flows.size(), 8u);
    EXPECT_EQ(flows[0], (std::pair{0, 63}));
    EXPECT_EQ(flows[1], (std::pair{32, 63}));
    EXPECT_EQ(flows[2], (std::pair{7, 56}));
    EXPECT_EQ(flows[3], (std::pair{39, 56}));
    EXPECT_EQ(flows[4], (std::pair{63, 0}));
    EXPECT_EQ(flows[5], (std::pair{31, 0}));
    EXPECT_EQ(flows[6], (std::pair{56, 7}));
    EXPECT_EQ(flows[7], (std::pair{24, 7}));
}

TEST(HotspotFlows, EveryHotspotHasTwoFlows)
{
    for (int k : {4, 8, 16}) {
        const Mesh mesh(k, k);
        const auto flows = defaultHotspotFlows(mesh);
        std::map<int, int> per_dest;
        for (const auto& f : flows) {
            EXPECT_NE(f.first, f.second);
            ++per_dest[f.second];
        }
        EXPECT_EQ(per_dest.size(), 4u);
        for (const auto& [dest, count] : per_dest)
            EXPECT_EQ(count, 2) << "hotspot " << dest;
    }
}

TEST(PatternFactory, BuildsKnownPatterns)
{
    const Mesh mesh(8, 8);
    EXPECT_EQ(makeTrafficPattern("uniform", mesh)->name(), "uniform");
    EXPECT_EQ(makeTrafficPattern("transpose", mesh)->name(),
              "transpose");
    EXPECT_EQ(makeTrafficPattern("shuffle", mesh)->name(), "shuffle");
    EXPECT_EXIT((void)makeTrafficPattern("tornado", mesh),
                testing::ExitedWithCode(1), "unknown traffic");
}

TEST(PacketSizeDist, FixedParse)
{
    const auto d = PacketSizeDist::parse("1");
    EXPECT_DOUBLE_EQ(d.mean(), 1.0);
    EXPECT_EQ(d.minSize(), 1);
    EXPECT_EQ(d.maxSize(), 1);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(d.sample(rng), 1);
}

TEST(PacketSizeDist, UniformParse)
{
    const auto d = PacketSizeDist::parse("uniform1-6");
    EXPECT_DOUBLE_EQ(d.mean(), 3.5);
    Rng rng(1);
    std::set<int> seen;
    for (int i = 0; i < 1000; ++i) {
        const int s = d.sample(rng);
        EXPECT_GE(s, 1);
        EXPECT_LE(s, 6);
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 6u);
}

TEST(PacketSizeDist, ToStringRoundTrips)
{
    EXPECT_EQ(PacketSizeDist::parse("4").toString(), "4");
    EXPECT_EQ(PacketSizeDist::parse("uniform1-6").toString(),
              "uniform1-6");
}

TEST(PacketSizeDist, RejectsGarbage)
{
    EXPECT_EXIT((void)PacketSizeDist::parse("banana"),
                testing::ExitedWithCode(1), "cannot parse");
    EXPECT_EXIT((void)PacketSizeDist::parse("0"),
                testing::ExitedWithCode(1), "at least 1");
    EXPECT_EXIT((void)PacketSizeDist::parse("uniform6-1"),
                testing::ExitedWithCode(1), "invalid uniform");
}

/** Fires per slot of @p sched over cycles [0, @p cycles). */
std::vector<int>
countFires(InjectionSchedule& sched, std::int64_t cycles, Rng& rng)
{
    std::vector<int> fires(static_cast<std::size_t>(sched.slots()), 0);
    for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
        for (int slot; (slot = sched.popDue(cycle)) >= 0;) {
            ++fires[static_cast<std::size_t>(slot)];
            sched.scheduleNext(slot, cycle, rng);
        }
    }
    return fires;
}

TEST(InjectionSchedule, FireRateMatchesPacketProbability)
{
    // At packet size 4 and flit rate 0.4, packets fire at rate 0.1.
    Rng rng(5);
    InjectionSchedule sched(4, 0.4 / 4.0, rng);
    const std::int64_t cycles = 25000;
    const std::vector<int> fires = countFires(sched, cycles, rng);
    int total = 0;
    for (const int f : fires)
        total += f;
    EXPECT_NEAR(static_cast<double>(total) / (4.0 * cycles), 0.1, 0.005);
}

TEST(InjectionSchedule, ZeroProbabilityNeverFires)
{
    Rng rng(5);
    InjectionSchedule sched(8, 0.0, rng);
    EXPECT_EQ(sched.nextFireCycle(), InjectionSchedule::kNever);
    EXPECT_EQ(sched.popDue(0), -1);
}

TEST(InjectionSchedule, ProbabilityAboveOneFiresOncePerSlotPerCycle)
{
    // Flit rate 2.0 with single-flit packets: probability clamps to 1.
    Rng rng(5);
    InjectionSchedule sched(3, 2.0, rng);
    EXPECT_EQ(sched.nextFireCycle(), 0);
    for (const int f : countFires(sched, 100, rng))
        EXPECT_EQ(f, 100);
}

} // namespace
} // namespace footprint
