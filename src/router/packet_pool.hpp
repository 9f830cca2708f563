/**
 * @file
 * Pooled per-packet constants referenced by Flit::desc.
 *
 * A flit is copied at every hop, so the fields only the measurement
 * apparatus reads (size, timestamps, flow class, measured flag) are
 * hoisted out of the flit into a PacketDescriptor slot allocated at
 * injection and released when the tail flit is ejected. The pool is
 * owned by the Network.
 *
 * The pool is *segmented* so parallel bands never contend on it:
 * each source endpoint allocates exclusively from its own segment (a
 * private LIFO free list plus slot array), and a descriptor handle
 * encodes (segment, slot index). Cross-segment get() during parallel
 * phases is safe because it only touches live descriptors no
 * allocator writes; cross-segment release at ejection is deferred by
 * the endpoints and flushed in a serial end-of-step epilogue, in node
 * order, so free-list contents — and hence allocation sequences — are
 * identical for every step mode and thread count. The same epilogue
 * then calls refill() on every stepped endpoint's segment, keeping at
 * least one free slot there (an endpoint that was not stepped has
 * allocated nothing since its last refill), and since an endpoint
 * allocates at most one descriptor per cycle, an in-network alloc
 * never grows a slot array mid-phase.
 *
 * Slots recycle LIFO, so a steady-state run touches the same few
 * cache lines. Descriptor 0 (segment 0, slot 0) is a reserved null
 * descriptor — default-constructed, never released — so hand-crafted
 * flits in tests and forensic paths can dereference desc == 0 safely;
 * slot 0 of every other segment is reserved too, keeping the live/
 * free accounting uniform.
 */

#ifndef FOOTPRINT_ROUTER_PACKET_POOL_HPP
#define FOOTPRINT_ROUTER_PACKET_POOL_HPP

#include <cstdint>
#include <vector>

#include "router/flit.hpp"
#include "sim/log.hpp"

namespace footprint {

/** Per-packet constants shared by all flits of one packet. */
struct PacketDescriptor
{
    int packetSize = 1;             ///< length in flits (>= 1)
    std::int64_t createTime = 0;    ///< cycle the source generated it
    std::int64_t injectTime = -1;   ///< cycle the head flit was injected
    FlowClass flowClass = FlowClass::Background;
    bool measured = false;
};

/**
 * Segmented free-list pool of PacketDescriptors. Capacity grows on
 * demand but reaches a fixed point once each segment has seen its
 * peak number of in-flight packets; after that alloc/release never
 * touch the heap.
 */
class PacketPool
{
  public:
    /** desc layout: segment in the high bits, slot index in the low. */
    static constexpr std::uint32_t kIdxBits = 20;
    static constexpr std::uint32_t kIdxMask = (1u << kIdxBits) - 1;
    static constexpr std::uint32_t kMaxSegments = 1u << (32 - kIdxBits);

    PacketPool() { ensureSegment(0); }

    /**
     * Pre-create segments 0..n-1 (one per source endpoint) so sharded
     * stepping never grows the segment table concurrently.
     */
    void
    initSegments(int n)
    {
        if (n > 0)
            ensureSegment(n - 1);
    }

    /** Allocate from segment 0 (standalone/test convenience). */
    std::uint32_t alloc(const Packet& pkt) { return allocFrom(0, pkt); }

    /**
     * Allocate a slot in @p seg describing @p pkt; injectTime starts
     * at -1. Only @p seg's owner may call this during a parallel
     * phase.
     */
    std::uint32_t
    allocFrom(int seg, const Packet& pkt)
    {
        ensureSegment(seg);
        Segment& s = segments_[static_cast<std::size_t>(seg)];
        std::uint32_t idx;
        if (s.freeIdx.empty()) {
            // Standalone growth path; in-network use never reaches it
            // because refill() runs between cycles and an endpoint
            // allocates at most one descriptor per cycle.
            idx = static_cast<std::uint32_t>(s.slots.size());
            FP_ASSERT(idx <= kIdxMask, "packet pool segment overflow");
            s.slots.emplace_back();
        } else {
            idx = s.freeIdx.back();
            s.freeIdx.pop_back();
        }
        PacketDescriptor& d = s.slots[idx];
        d.packetSize = pkt.size;
        d.createTime = pkt.createTime;
        d.injectTime = -1;
        d.flowClass = pkt.flowClass;
        d.measured = pkt.measured;
        return (static_cast<std::uint32_t>(seg) << kIdxBits) | idx;
    }

    /** Return a slot to its segment; releasing desc 0 is a no-op. */
    void
    release(std::uint32_t desc)
    {
        if (desc == 0)
            return;
        segments_[desc >> kIdxBits].freeIdx.push_back(desc & kIdxMask);
    }

    const PacketDescriptor& get(std::uint32_t desc) const
    {
        return segments_[desc >> kIdxBits].slots[desc & kIdxMask];
    }

    PacketDescriptor& get(std::uint32_t desc)
    {
        return segments_[desc >> kIdxBits].slots[desc & kIdxMask];
    }

    /**
     * Top up segment @p seg to at least one free slot. Serial-only
     * (Network's end-of-step epilogue); this is what lets in-network
     * alloc stay growth-free during parallel phases.
     */
    void
    refill(int seg)
    {
        Segment& s = segments_[static_cast<std::size_t>(seg)];
        if (s.freeIdx.empty())
            addSpare(s);
    }

    /**
     * Reserve vector capacity for @p n slots in every segment. The
     * pool still grows lazily (addSpare at high-water marks), but
     * growth within the reserved capacity never touches the heap —
     * zero-allocation benches call this before measuring so late
     * high-water marks cannot allocate mid-window (DESIGN.md §17).
     */
    void
    reserveSlotCapacity(std::size_t n)
    {
        for (Segment& s : segments_) {
            s.slots.reserve(n);
            s.freeIdx.reserve(n);
        }
    }

    /** Slots currently allocated to live packets (excl. reserved). */
    std::size_t
    liveCount() const
    {
        std::size_t live = 0;
        for (const Segment& s : segments_)
            live += s.slots.size() - 1 - s.freeIdx.size();
        return live;
    }

  private:
    // One cache line per segment header: under sharded stepping each
    // worker allocates/releases only from its own nodes' segments, so
    // padding the headers apart keeps the vector bookkeeping of
    // neighboring segments from false-sharing at 4096-node scale.
    struct alignas(64) Segment
    {
        std::vector<PacketDescriptor> slots;
        std::vector<std::uint32_t> freeIdx;
    };

    static void
    addSpare(Segment& s)
    {
        s.freeIdx.push_back(static_cast<std::uint32_t>(s.slots.size()));
        s.slots.emplace_back();
    }

    void
    ensureSegment(int seg)
    {
        FP_ASSERT(seg >= 0
                      && static_cast<std::uint32_t>(seg) < kMaxSegments,
                  "packet pool segment id out of range: " << seg);
        while (segments_.size() <= static_cast<std::size_t>(seg)) {
            Segment s;
            s.slots.emplace_back();  // reserved slot 0 (null for seg 0)
            addSpare(s);
            segments_.push_back(std::move(s));
        }
    }

    std::vector<Segment> segments_;
};

} // namespace footprint

#endif // FOOTPRINT_ROUTER_PACKET_POOL_HPP
