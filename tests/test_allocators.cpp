/**
 * @file
 * Unit tests for the round-robin arbiter, through the bitmask form the
 * router's switch allocator calls.
 */

#include <gtest/gtest.h>

#include <vector>

#include "router/allocators.hpp"

namespace footprint {
namespace {

TEST(RoundRobinArbiter, NoRequestsNoGrant)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(0b0000), -1);
}

TEST(RoundRobinArbiter, SingleRequesterWins)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(0b0100), 2);
}

TEST(RoundRobinArbiter, RotatesAmongContenders)
{
    RoundRobinArbiter arb(3);
    const std::uint64_t all = 0b111;
    EXPECT_EQ(arb.arbitrate(all), 0);
    EXPECT_EQ(arb.arbitrate(all), 1);
    EXPECT_EQ(arb.arbitrate(all), 2);
    EXPECT_EQ(arb.arbitrate(all), 0);
}

TEST(RoundRobinArbiter, PointerSkipsNonRequesters)
{
    RoundRobinArbiter arb(4);
    const std::uint64_t ends = 0b1001;
    EXPECT_EQ(arb.arbitrate(ends), 0);
    // Pointer now at 1; requester 3 is next among the requesting.
    EXPECT_EQ(arb.arbitrate(ends), 3);
    EXPECT_EQ(arb.arbitrate(ends), 0);
}

TEST(RoundRobinArbiter, FairnessOverManyRounds)
{
    RoundRobinArbiter arb(4);
    std::vector<int> grants(4, 0);
    for (int i = 0; i < 400; ++i)
        ++grants[static_cast<std::size_t>(arb.arbitrate(0b1111))];
    for (int g : grants)
        EXPECT_EQ(g, 100);
}

TEST(RoundRobinArbiter, ResizeResetsPointer)
{
    RoundRobinArbiter arb(2);
    (void)arb.arbitrate(0b11);
    arb.resize(3);
    EXPECT_EQ(arb.pointer(), 0);
    EXPECT_EQ(arb.arbitrate(0b111), 0);
}

} // namespace
} // namespace footprint
