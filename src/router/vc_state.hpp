/**
 * @file
 * Virtual-channel state kept by a router: per-input-VC buffers and the
 * per-output-VC bookkeeping (credits, busy flag, and the "owner
 * destination" register that identifies footprint VCs).
 */

#ifndef FOOTPRINT_ROUTER_VC_STATE_HPP
#define FOOTPRINT_ROUTER_VC_STATE_HPP

#include <bit>
#include <cstdint>

#include "router/flit.hpp"
#include "sim/ring_buffer.hpp"

namespace footprint {

/** Bitmask over VC indices; supports up to 64 VCs per channel. */
using VcMask = std::uint64_t;

/** @return mask with the low @p n bits set. */
inline constexpr VcMask
maskOfFirst(int n)
{
    return n >= 64 ? ~VcMask{0} : ((VcMask{1} << n) - 1);
}

/** @return number of set bits in @p m. */
inline int
popcount(VcMask m)
{
    return std::popcount(m);
}

/**
 * State of one input virtual channel: its flit FIFO and routing
 * progress. An input VC holds flits of at most one packet under the
 * atomic reallocation policy; under non-atomic reallocation the next
 * packet's flits may queue behind the previous tail.
 */
class InputVc
{
  public:
    /** Routing progress of the packet at the head of the FIFO. */
    enum class State {
        Idle,     ///< no packet being routed
        VcAlloc,  ///< head flit at front, waiting for an output VC
        Active,   ///< output VC granted; flits may traverse the switch
    };

    State state = State::Idle;
    int outPort = -1;  ///< granted output port (valid when Active)
    int outVc = -1;    ///< granted output VC (valid when Active)

    /** Flit FIFO; capacity fixed to the VC buffer depth at reset(). */
    RingBuffer<Flit> buffer;

    bool empty() const { return buffer.empty(); }
    std::size_t occupancy() const { return buffer.size(); }
    const Flit& front() const { return buffer.front(); }

    /** Reset routing state after the tail flit leaves. */
    void
    releaseRoute()
    {
        state = State::Idle;
        outPort = -1;
        outVc = -1;
    }
};

/** Human-readable name of an input-VC state ("idle" / "va" / "active"). */
const char* inputVcStateName(InputVc::State state);

/**
 * Upstream-side tracking of one downstream input VC: credit count, busy
 * flag (allocated to an in-flight packet), and the destination of the
 * packet that currently occupies it. The owner register is exactly the
 * log2(N)-bit state the paper's cost analysis (Sec. 4.4) accounts for,
 * and it is what makes a VC a "footprint" VC for a given destination.
 */
class OutVcState
{
  public:
    explicit OutVcState(int buf_size = 0)
        : credits_(buf_size), bufSize_(buf_size)
    {}

    /** Allocate this VC to a packet headed for @p dest. */
    void allocate(int dest);

    /** Mark the tail flit as sent (packet no longer growing). */
    void tailSent();

    /** Consume one credit (a flit was sent into the downstream VC). */
    void consumeCredit();

    /** Return one credit (a downstream slot freed). */
    void returnCredit();

    bool busy() const { return busy_; }
    int credits() const { return credits_; }
    int bufSize() const { return bufSize_; }

    /** True while any flit of the current packet is still downstream. */
    bool occupied() const { return busy_ || credits_ < bufSize_; }

    /** Destination of the occupying packet; valid while occupied(). */
    int ownerDest() const { return ownerDest_; }

    /** Fully idle: unallocated with an empty downstream buffer. */
    bool idle() const { return !busy_ && credits_ == bufSize_; }

    /**
     * Whether a new packet may be allocated to this VC.
     *
     * @param atomic Duato-based algorithms must wait for the tail
     *        flit's credit (empty downstream buffer); others only for
     *        the tail to have been sent.
     */
    bool
    allocatable(bool atomic) const
    {
        return atomic ? idle() : !busy_;
    }

  private:
    bool busy_ = false;
    int credits_ = 0;
    int bufSize_ = 0;
    int ownerDest_ = -1;
};

} // namespace footprint

#endif // FOOTPRINT_ROUTER_VC_STATE_HPP
