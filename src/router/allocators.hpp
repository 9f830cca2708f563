/**
 * @file
 * The round-robin arbiter of switch allocation, over a bitmask of
 * requesters. The priority-based VC allocator Algorithm 1 drives makes
 * its priority and round-robin choice inline in Router.
 */

#ifndef FOOTPRINT_ROUTER_ALLOCATORS_HPP
#define FOOTPRINT_ROUTER_ALLOCATORS_HPP

#include <cstddef>
#include <cstdint>

namespace footprint {

/**
 * Classic round-robin arbiter over a fixed number of requesters.
 * The grant pointer advances past the winner, guaranteeing fairness.
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(int num_requesters = 0);

    void resize(int num_requesters);
    int size() const { return static_cast<int>(size_); }

    /**
     * Arbitrate among the requesters flagged in @p requests: bit i set
     * if requester i is requesting. Requires at most 64 requesters.
     *
     * @return winning requester index, or -1 if none requested.
     */
    int arbitrate(std::uint64_t requests);

    /** Current position of the grant pointer (for tests). */
    int pointer() const { return pointer_; }

  private:
    std::size_t size_;
    int pointer_;
};

} // namespace footprint

#endif // FOOTPRINT_ROUTER_ALLOCATORS_HPP
