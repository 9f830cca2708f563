#include "network/link_fabric.hpp"

#include <bit>

#include "sim/log.hpp"

namespace footprint {

namespace {

/**
 * Elements of size @p elem per 64-byte cache line, for group padding;
 * 1 (no padding) if the element size does not divide a line.
 */
std::size_t
alignUnits(std::size_t elem)
{
    return 64 % elem == 0 ? 64 / elem : 1;
}

std::size_t
roundUp(std::size_t n, std::size_t unit)
{
    return (n + unit - 1) / unit * unit;
}

/** Ring capacity: peak occupancy is maxRate sends per cycle for each
 * of the latency+1 cycles an entry can be in flight. */
std::size_t
ringCap(const LinkFabric::Spec& s)
{
    FP_ASSERT(s.latency >= 1 && s.maxRate >= 1,
              "link spec needs latency and maxRate >= 1");
    return std::bit_ceil(static_cast<std::size_t>(s.maxRate)
                         * (static_cast<std::size_t>(s.latency) + 1));
}

/**
 * Assign lane slots / ring offsets for one channel family, padding to
 * a cache line whenever the writer node changes. Returns the cursor
 * positions after the family (each rounded up to its line boundary so
 * the next region starts clean). Asserts the grouped-by-writer
 * precondition: a writer's channels must be adjacent.
 */
struct FamilyLayout
{
    std::vector<std::size_t> laneSlot;
    std::vector<std::size_t> ringOffset;
    std::vector<std::size_t> cap;
    std::size_t laneEnd = 0;
    std::size_t ringReadyEnd = 0;    ///< in ready-lane units
    std::size_t ringPayloadEnd = 0;  ///< in payload units
};

FamilyLayout
layoutFamily(const std::vector<LinkFabric::Spec>& specs,
             std::size_t lane_begin, std::size_t payload_align)
{
    constexpr std::size_t kLaneAlign = 64 / sizeof(std::int64_t);
    FamilyLayout out;
    out.laneSlot.reserve(specs.size());
    out.ringOffset.reserve(specs.size());
    out.cap.reserve(specs.size());

    std::vector<char> seen;
    std::size_t lane = roundUp(lane_begin, kLaneAlign);
    std::size_t ready = 0;    // ready/payload rings share offsets in
    std::size_t payload = 0;  // their own units; aligned separately
    int prev_writer = -1;
    for (const LinkFabric::Spec& s : specs) {
        FP_ASSERT(s.writerNode >= 0, "negative writer node");
        if (s.writerNode != prev_writer) {
            if (static_cast<std::size_t>(s.writerNode) >= seen.size())
                seen.resize(
                    static_cast<std::size_t>(s.writerNode) + 1, 0);
            FP_ASSERT(
                !seen[static_cast<std::size_t>(s.writerNode)],
                "link specs not grouped by writer node (node "
                    << s.writerNode << " split across groups)");
            seen[static_cast<std::size_t>(s.writerNode)] = 1;
            lane = roundUp(lane, kLaneAlign);
            ready = roundUp(ready, kLaneAlign);
            payload = roundUp(payload, payload_align);
            prev_writer = s.writerNode;
        }
        const std::size_t cap = ringCap(s);
        out.laneSlot.push_back(lane++);
        // Ready and payload rings use one offset stream: capacities
        // are powers of two >= 1 so a shared cursor stays aligned for
        // both lanes as long as we advance by the larger granularity.
        const std::size_t off = ready > payload ? ready : payload;
        out.ringOffset.push_back(off);
        out.cap.push_back(cap);
        ready = off + cap;
        payload = off + cap;
    }
    out.laneEnd = roundUp(lane, kLaneAlign);
    out.ringReadyEnd = roundUp(ready, kLaneAlign);
    out.ringPayloadEnd = roundUp(payload, payload_align);
    return out;
}

} // namespace

void
LinkFabric::build(const std::vector<Spec>& flit_specs,
                  const std::vector<Spec>& credit_specs)
{
    FP_ASSERT(flit_.empty() && credit_.empty(),
              "LinkFabric::build called twice");

    const FamilyLayout fl =
        layoutFamily(flit_specs, 0, alignUnits(sizeof(Flit)));
    const FamilyLayout cl = layoutFamily(
        credit_specs, fl.laneEnd, alignUnits(sizeof(Credit)));
    flitLaneEnd_ = fl.laneEnd;

    // Allocate every arena before creating any pipe: pipes hold raw
    // pointers into these lanes, so they must never reallocate.
    const std::size_t ring_end =
        fl.ringReadyEnd > fl.ringPayloadEnd ? fl.ringReadyEnd
                                            : fl.ringPayloadEnd;
    const std::size_t cring_end =
        cl.ringReadyEnd > cl.ringPayloadEnd ? cl.ringReadyEnd
                                            : cl.ringPayloadEnd;
    flitReady_.assign(ring_end, 0);
    flitPayload_.assign(ring_end, Flit{});
    creditReady_.assign(cring_end, 0);
    creditPayload_.assign(cring_end, Credit{});
    sent_.assign(cl.laneEnd, 0);

    flitSlot_ = fl.laneSlot;
    creditSlot_ = cl.laneSlot;
    flitWriter_.reserve(flit_specs.size());
    creditWriter_.reserve(credit_specs.size());

    flit_.reserve(flit_specs.size());
    for (std::size_t i = 0; i < flit_specs.size(); ++i) {
        flitWriter_.push_back(flit_specs[i].writerNode);
        flit_.emplace_back(flit_specs[i].latency,
                           flitReady_.data() + fl.ringOffset[i],
                           flitPayload_.data() + fl.ringOffset[i],
                           fl.cap[i], sent_.data() + fl.laneSlot[i]);
    }
    credit_.reserve(credit_specs.size());
    for (std::size_t i = 0; i < credit_specs.size(); ++i) {
        creditWriter_.push_back(credit_specs[i].writerNode);
        credit_.emplace_back(credit_specs[i].latency,
                             creditReady_.data() + cl.ringOffset[i],
                             creditPayload_.data() + cl.ringOffset[i],
                             cl.cap[i], sent_.data() + cl.laneSlot[i]);
    }
}

} // namespace footprint
