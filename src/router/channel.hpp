/**
 * @file
 * Fixed-latency pipelined channels carrying flits (forward) and credits
 * (backward) between routers and endpoints.
 *
 * A channel is written during the transmit phase of cycle t and the
 * payload becomes visible to the receiver during the receive phase of
 * cycle t + latency. Channels accept a bounded number of payloads per
 * cycle (one for flit links, the flow-control fan-in for credit
 * links), modelling a single physical link.
 */

#ifndef FOOTPRINT_ROUTER_CHANNEL_HPP
#define FOOTPRINT_ROUTER_CHANNEL_HPP

#include <cstddef>
#include <cstdint>
#include <optional>

#include "router/flit.hpp"
#include "sim/active_set.hpp"
#include "sim/log.hpp"

namespace footprint {

/**
 * A fixed-latency pipe carrying a bounded number of items per cycle.
 *
 * In-flight entries live in a pair of parallel power-of-two rings
 * (arrival timestamps and payloads, structure-of-arrays): the
 * per-cycle receive poll usually fails (the head entry is still in
 * flight), and the SoA split means a failed poll touches only the
 * 8-byte timestamp lane instead of dragging a full Flit through the
 * cache.
 *
 * A pipe owns no storage: its rings and its sent counter are slots in
 * the LinkFabric's flat arenas, grouped by writer node, so sent-counter
 * sweeps (recorder, heatmap) scan contiguous memory and a shard's
 * transmit-phase writes land in a contiguous, 64-byte-padded arena
 * range (DESIGN.md §17). Capacity is fixed: the flow-control
 * invariants bound a pipe's occupancy, so overflow is a simulator bug
 * (FP_ASSERT).
 *
 * @tparam T payload type (Flit or Credit).
 */
template <typename T>
class Pipe
{
  public:
    /**
     * A pipe of @p latency cycles over fabric-owned lanes: @p cap
     * ring slots (a power of two) at @p ready / @p payload, and the
     * sent counter at @p sent.
     */
    Pipe(int latency, std::int64_t* ready, T* payload, std::size_t cap,
         std::uint64_t* sent)
        : ready_(ready), payload_(payload), sent_(sent),
          mask_(static_cast<std::uint32_t>(cap - 1)), latency_(latency)
    {
        FP_ASSERT(cap > 0 && (cap & (cap - 1)) == 0
                      && cap <= std::size_t{1} << 31,
                  "pipe capacity must be a power of two below 2^32");
    }

    Pipe(const Pipe&) = delete;
    Pipe& operator=(const Pipe&) = delete;
    Pipe(Pipe&&) noexcept = default;

    /**
     * Wake component @p comp on @p set whenever something is sent into
     * this pipe (activity-driven stepping: the receiver must run until
     * the pipe drains; its own pending-work check keeps it awake
     * across the latency window after this initial wake).
     */
    void
    setWakeHook(ActiveSet* set, int comp)
    {
        wakeSet_ = set;
        wakeComp_ = comp;
    }

    /**
     * Raise the receiving router's @p flag on every send, so its
     * receive phase polls only pipes holding items. The flag has one
     * writer at a time — this pipe's sender during compute and
     * transmit, the receiver during drain — so a plain store suffices.
     */
    void setArrivalFlag(bool* flag) { arrived_ = flag; }

    /** Send @p item at @p cycle. */
    void
    send(const T& item, std::int64_t cycle)
    {
        FP_ASSERT(size_ <= mask_,
                  "pipe overflow (capacity " << (mask_ + 1) << ")");
        const std::uint32_t slot = (head_ + size_) & mask_;
        ready_[slot] = cycle + latency_;
        payload_[slot] = item;
        ++size_;
        ++*sent_;
        if (wakeSet_)
            wakeSet_->wake(wakeComp_);
        if (arrived_ && !*arrived_)
            *arrived_ = true;
    }

    /**
     * Receive the item (if any) arriving at @p cycle.
     * Must be polled every cycle so arrivals are consumed in order.
     */
    std::optional<T>
    receive(std::int64_t cycle)
    {
        if (size_ == 0 || ready_[head_] > cycle)
            return std::nullopt;
        T item = payload_[head_];
        head_ = (head_ + 1) & mask_;
        --size_;
        return item;
    }

    bool empty() const { return size_ == 0; }
    std::size_t inFlightCount() const { return size_; }

    /** Items ever sent (link-utilisation counter). */
    std::uint64_t sentCount() const { return *sent_; }

    /**
     * Visit every in-flight payload, oldest first (audit/forensic
     * inspection only — never on the per-cycle hot path).
     */
    template <typename Fn>
    void
    forEachInFlight(Fn&& fn) const
    {
        for (std::uint32_t i = 0; i < size_; ++i)
            fn(payload_[(head_ + i) & mask_]);
    }

    /** Arrival cycle of in-flight entry @p i (0 == oldest). */
    std::int64_t
    inFlightReadyCycle(std::size_t i) const
    {
        FP_ASSERT(i < size_, "inFlightReadyCycle out of range");
        return ready_[(head_ + static_cast<std::uint32_t>(i)) & mask_];
    }

  private:
    // Pointers first, then 32-bit fields: one pipe fills one 64-byte
    // cache line (channel.cpp asserts it).
    std::int64_t* ready_;  ///< arrival-cycle ring lane
    T* payload_;           ///< payload ring lane
    std::uint64_t* sent_;  ///< sent-counter lane slot
    ActiveSet* wakeSet_ = nullptr;
    bool* arrived_ = nullptr;  ///< the receiver's arrival flag
    std::uint32_t mask_;  ///< ring capacity - 1
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
    int latency_;
    int wakeComp_ = -1;
};

using FlitChannel = Pipe<Flit>;
using CreditChannel = Pipe<Credit>;

} // namespace footprint

#endif // FOOTPRINT_ROUTER_CHANNEL_HPP
