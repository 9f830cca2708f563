/**
 * @file
 * Pipes for unit tests, taken from a LinkFabric the way the Network
 * takes them, so a test drives the same fixed-capacity lane storage
 * the simulator runs.
 */

#ifndef FOOTPRINT_TESTS_TEST_PIPES_HPP
#define FOOTPRINT_TESTS_TEST_PIPES_HPP

#include <cstddef>
#include <vector>

#include "network/link_fabric.hpp"

namespace footprint {

/**
 * A LinkFabric holding @p flits flit pipes and @p credits credit
 * pipes, each of @p latency cycles and sized for @p max_rate sends
 * per cycle: the ring holds the power of two >= max_rate *
 * (latency + 1) items, and one more send panics.
 */
class TestPipes
{
  public:
    TestPipes(int flits, int credits, int latency = 1, int max_rate = 1)
    {
        const LinkFabric::Spec spec{0, latency, max_rate};
        fabric_.build(
            std::vector<LinkFabric::Spec>(static_cast<std::size_t>(flits),
                                          spec),
            std::vector<LinkFabric::Spec>(
                static_cast<std::size_t>(credits), spec));
    }

    FlitChannel& flit(int i) { return fabric_.flit(idx(i)); }
    CreditChannel& credit(int i) { return fabric_.credit(idx(i)); }

  private:
    static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

    LinkFabric fabric_;
};

} // namespace footprint

#endif // FOOTPRINT_TESTS_TEST_PIPES_HPP
