/**
 * @file
 * Network-owned flat link/credit fabric (DESIGN.md §17).
 *
 * The fabric owns every flit and credit pipe of a Network plus the
 * flat arenas their state lives in: ring lanes (arrival timestamps and
 * payloads, structure-of-arrays) and one sent counter per channel.
 * Channels are laid out grouped by *writer node* — the component that
 * send()s into the pipe during its compute/transmit phase — with each
 * group padded to a 64-byte boundary, so:
 *
 *  - a shard's transmit-phase writes land in a contiguous run of cache
 *    lines no other shard touches (no false sharing at seams);
 *  - recorder/heatmap sent-counter sweeps walk one flat array
 *    (padding slots hold 0, the identity of +).
 *
 * Flit channels occupy the front region of the combined lanes, credit
 * channels the back region, so "all flits sent" is a partial sum.
 */

#ifndef FOOTPRINT_NETWORK_LINK_FABRIC_HPP
#define FOOTPRINT_NETWORK_LINK_FABRIC_HPP

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "router/channel.hpp"

namespace footprint {

/** Minimal 64-byte-aligned allocator for the fabric's flat lanes. */
template <typename T>
struct LaneAlloc
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    LaneAlloc() = default;
    template <typename U>
    LaneAlloc(const LaneAlloc<U>&)
    {}

    T*
    allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }

    void
    deallocate(T* p, std::size_t n)
    {
        ::operator delete(p, n * sizeof(T), kAlign);
    }

    template <typename U>
    bool
    operator==(const LaneAlloc<U>&) const
    {
        return true;
    }
};

template <typename T>
using Lane = std::vector<T, LaneAlloc<T>>;

/**
 * The flat link-state store for one Network. Build once (build()),
 * then the pipes are stable for the fabric's lifetime — every
 * Pipe::send updates the flat sent lane through its slot pointer, so
 * the batched sums below never poll channel objects.
 */
class LinkFabric
{
  public:
    /** One channel to create. maxRate = sends per cycle bound. */
    struct Spec
    {
        int writerNode = 0;  ///< node whose phases send into the pipe
        int latency = 1;
        int maxRate = 1;
    };

    LinkFabric() = default;
    LinkFabric(const LinkFabric&) = delete;
    LinkFabric& operator=(const LinkFabric&) = delete;

    /**
     * Create every channel over the flat lanes. Specs must arrive
     * grouped by writerNode (all of a node's channels adjacent) — the
     * Network enumerates links in node order, which guarantees it;
     * FP_ASSERTed here. Call exactly once.
     */
    void build(const std::vector<Spec>& flit_specs,
               const std::vector<Spec>& credit_specs);

    FlitChannel& flit(std::size_t id) { return flit_[id]; }
    const FlitChannel& flit(std::size_t id) const { return flit_[id]; }
    CreditChannel& credit(std::size_t id) { return credit_[id]; }
    const CreditChannel&
    credit(std::size_t id) const
    {
        return credit_[id];
    }

    std::size_t flitCount() const { return flit_.size(); }
    std::size_t creditCount() const { return credit_.size(); }

    /** Flits ever sent across all flit channels: one partial sum. */
    std::uint64_t
    totalFlitsSent() const
    {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < flitLaneEnd_; ++i)
            total += sent_[i];
        return total;
    }

    /** Flits currently in flight across all flit channels. */
    std::int64_t
    flitsInFlight() const
    {
        std::int64_t total = 0;
        for (const FlitChannel& ch : flit_)
            total += static_cast<std::int64_t>(ch.inFlightCount());
        return total;
    }

    /** Sent counter of flit channel @p id (reads the flat lane). */
    std::uint64_t
    flitSent(std::size_t id) const
    {
        return sent_[flitSlot_[id]];
    }

    /** Writer node of flit channel @p id (layout introspection). */
    int flitWriter(std::size_t id) const { return flitWriter_[id]; }
    /** Writer node of credit channel @p id. */
    int
    creditWriter(std::size_t id) const
    {
        return creditWriter_[id];
    }

    /** Combined sent-counter lane (flit region then credit region). */
    const Lane<std::uint64_t>& sentLane() const { return sent_; }
    /** One past the last flit slot in the combined lanes. */
    std::size_t flitLaneEnd() const { return flitLaneEnd_; }

  private:
    std::vector<FlitChannel> flit_;
    std::vector<CreditChannel> credit_;

    // Ring arenas (SoA: arrival timestamps apart from payloads).
    Lane<std::int64_t> flitReady_;
    Lane<Flit> flitPayload_;
    Lane<std::int64_t> creditReady_;
    Lane<Credit> creditPayload_;

    // Combined sent lane: flit slots [0, flitLaneEnd_), credit slots
    // after; writer-node groups 64B-padded within each region.
    Lane<std::uint64_t> sent_;
    std::size_t flitLaneEnd_ = 0;

    std::vector<std::size_t> flitSlot_;    ///< flit id -> lane slot
    std::vector<std::size_t> creditSlot_;  ///< credit id -> lane slot
    std::vector<int> flitWriter_;
    std::vector<int> creditWriter_;
};

} // namespace footprint

#endif // FOOTPRINT_NETWORK_LINK_FABRIC_HPP
