#include "router/allocators.hpp"

#include <bit>

#include "sim/log.hpp"

namespace footprint {

RoundRobinArbiter::RoundRobinArbiter(int num_requesters)
    : size_(static_cast<std::size_t>(num_requesters)), pointer_(0)
{}

void
RoundRobinArbiter::resize(int num_requesters)
{
    size_ = static_cast<std::size_t>(num_requesters);
    pointer_ = 0;
}

int
RoundRobinArbiter::arbitrate(std::uint64_t requests)
{
    FP_ASSERT(size_ <= 64, "mask arbitrate needs <= 64 requesters");
    FP_ASSERT(size_ == 64
                  || (requests >> size_) == 0,
              "request bits beyond arbiter size");
    if (requests == 0)
        return -1;
    // First request at or after the pointer wins; wrap otherwise.
    const std::uint64_t at_or_after =
        requests >> pointer_ << pointer_;
    const int winner = std::countr_zero(
        at_or_after != 0 ? at_or_after : requests);
    pointer_ = static_cast<int>(
        (static_cast<std::size_t>(winner) + 1) % size_);
    return winner;
}

} // namespace footprint
