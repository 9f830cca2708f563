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

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

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
 * A standalone Pipe owns growable ring storage (unit tests may send
 * without receiving). Inside a Network every pipe is instead *bound*
 * onto the LinkFabric's flat arenas (bindLanes): ring storage,
 * head-arrival slot, and sent counter all live in network-owned
 * arrays grouped by writer node, so batched passes (horizon
 * next-arrival queries, heatmap sent-counter deltas) scan contiguous
 * memory instead of chasing per-channel objects, and a shard's
 * transmit-phase writes land in a contiguous, 64-byte-padded arena
 * range (DESIGN.md §17). Bound pipes have fixed capacity — the
 * flow-control invariants bound their occupancy, and overflow is a
 * simulator bug (FP_ASSERT).
 *
 * @tparam T payload type (Flit or Credit).
 */
template <typename T>
class Pipe
{
  public:
    /** headReadyCycle() when nothing is in flight. */
    static constexpr std::int64_t kNoArrival =
        std::numeric_limits<std::int64_t>::max();

    explicit Pipe(int latency = 1)
        : latency_(latency), headReady_(&inlineHeadReady_),
          sent_(&inlineSent_)
    {
        const std::size_t cap =
            ceilPow2(static_cast<std::size_t>(latency) + 1);
        ownReady_.assign(cap, 0);
        ownPayload_.assign(cap, T{});
        ready_ = ownReady_.data();
        payload_ = ownPayload_.data();
        mask_ = cap - 1;
    }

    Pipe(const Pipe&) = delete;
    Pipe& operator=(const Pipe&) = delete;

    Pipe(Pipe&& o) noexcept
        : latency_(o.latency_), ready_(o.ready_),
          payload_(o.payload_), mask_(o.mask_), head_(o.head_),
          size_(o.size_), growable_(o.growable_),
          headReady_(o.headReady_ == &o.inlineHeadReady_
                         ? &inlineHeadReady_
                         : o.headReady_),
          sent_(o.sent_ == &o.inlineSent_ ? &inlineSent_ : o.sent_),
          inlineHeadReady_(o.inlineHeadReady_),
          inlineSent_(o.inlineSent_),
          ownReady_(std::move(o.ownReady_)),
          ownPayload_(std::move(o.ownPayload_)), wakeSet_(o.wakeSet_),
          wakeComp_(o.wakeComp_)
    {
        // Self-owned ring storage moves with the vectors (their heap
        // buffers transfer), so ready_/payload_ stay valid; only the
        // inline head/sent slots need rebinding (done above).
    }

    /** Smallest power of two >= @p n (and >= 1). */
    static std::size_t
    ceilPow2(std::size_t n)
    {
        std::size_t cap = 1;
        while (cap < n)
            cap <<= 1;
        return cap;
    }

    int latency() const { return latency_; }

    /**
     * Rebind this pipe onto fabric-owned lanes: ring storage of
     * @p cap slots (a power of two), plus dedicated head-arrival and
     * sent-counter slots inside the fabric's flat lanes. Must be
     * called before any send; the pipe becomes fixed-capacity and
     * frees its own storage.
     */
    void
    bindLanes(std::int64_t* ready, T* payload, std::size_t cap,
              std::int64_t* head_ready, std::uint64_t* sent)
    {
        FP_ASSERT(size_ == 0, "bindLanes on a non-empty pipe");
        FP_ASSERT((cap & (cap - 1)) == 0 && cap > 0,
                  "pipe capacity must be a power of two");
        ready_ = ready;
        payload_ = payload;
        mask_ = cap - 1;
        head_ = 0;
        growable_ = false;
        headReady_ = head_ready;
        *headReady_ = kNoArrival;
        sent_ = sent;
        *sent_ = 0;
        ownReady_ = std::vector<std::int64_t>();
        ownPayload_ = std::vector<T>();
    }

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

    /** Send @p item at @p cycle. */
    void
    send(const T& item, std::int64_t cycle)
    {
        if (size_ > mask_) {
            FP_ASSERT(growable_,
                      "pipe overflow (capacity " << (mask_ + 1)
                                                 << ")");
            grow();
        }
        const std::int64_t at = cycle + latency_;
        const std::size_t slot = (head_ + size_) & mask_;
        ready_[slot] = at;
        payload_[slot] = item;
        if (size_ == 0)
            *headReady_ = at;
        ++size_;
        ++*sent_;
        if (wakeSet_)
            wakeSet_->wake(wakeComp_);
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
        *headReady_ = size_ != 0 ? ready_[head_] : kNoArrival;
        return item;
    }

    /**
     * Arrival cycle of the oldest in-flight item, or kNoArrival. The
     * event-horizon fast path reads this to bound how far the clock
     * may jump while the network is quiescent; for fabric-bound pipes
     * the same value lives in the fabric's flat head-arrival lane.
     */
    std::int64_t headReadyCycle() const { return *headReady_; }

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
        for (std::size_t i = 0; i < size_; ++i)
            fn(payload_[(head_ + i) & mask_]);
    }

    /** Arrival cycle of in-flight entry @p i (0 == oldest). */
    std::int64_t
    inFlightReadyCycle(std::size_t i) const
    {
        FP_ASSERT(i < size_, "inFlightReadyCycle out of range");
        return ready_[(head_ + i) & mask_];
    }

  private:
    void
    grow()
    {
        const std::size_t cap = (mask_ + 1) * 2;
        std::vector<std::int64_t> r(cap);
        std::vector<T> p(cap);
        for (std::size_t i = 0; i < size_; ++i) {
            r[i] = ready_[(head_ + i) & mask_];
            p[i] = payload_[(head_ + i) & mask_];
        }
        ownReady_.swap(r);
        ownPayload_.swap(p);
        ready_ = ownReady_.data();
        payload_ = ownPayload_.data();
        head_ = 0;
        mask_ = cap - 1;
    }

    int latency_;
    std::int64_t* ready_ = nullptr;  ///< arrival-cycle ring lane
    T* payload_ = nullptr;           ///< payload ring lane
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    bool growable_ = true;  ///< false once bound to a fabric
    std::int64_t* headReady_;  ///< fabric lane slot or inline
    std::uint64_t* sent_;      ///< fabric lane slot or inline
    std::int64_t inlineHeadReady_ = kNoArrival;
    std::uint64_t inlineSent_ = 0;
    std::vector<std::int64_t> ownReady_;  ///< standalone storage
    std::vector<T> ownPayload_;
    ActiveSet* wakeSet_ = nullptr;
    int wakeComp_ = -1;
};

using FlitChannel = Pipe<Flit>;
using CreditChannel = Pipe<Credit>;

} // namespace footprint

#endif // FOOTPRINT_ROUTER_CHANNEL_HPP
