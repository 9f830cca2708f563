#include "router/vc_state.hpp"

#include "sim/log.hpp"

namespace footprint {

const char*
inputVcStateName(InputVc::State state)
{
    switch (state) {
    case InputVc::State::Idle: return "idle";
    case InputVc::State::VcAlloc: return "va";
    case InputVc::State::Active: return "active";
    }
    return "?";
}

void
OutVcState::allocate(int dest)
{
    FP_ASSERT(!busy_, "allocating a busy output VC");
    busy_ = true;
    ownerDest_ = dest;
}

void
OutVcState::tailSent()
{
    FP_ASSERT(busy_, "tailSent on an unallocated output VC");
    busy_ = false;
    // ownerDest_ is intentionally retained: the VC remains a footprint
    // VC for its destination while flits are still draining downstream
    // (credits below bufSize).
}

void
OutVcState::consumeCredit()
{
    FP_ASSERT(credits_ > 0, "consuming a credit the VC does not have");
    --credits_;
}

void
OutVcState::returnCredit()
{
    FP_ASSERT(credits_ < bufSize_, "credit overflow on output VC");
    ++credits_;
}

} // namespace footprint
