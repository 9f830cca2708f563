/**
 * @file
 * Input-queued virtual-channel router with credit-based wormhole flow
 * control, a priority-based separable VC allocator, a round-robin
 * switch allocator with internal speedup, and the per-output-VC owner
 * registers Footprint routing relies on.
 */

#ifndef FOOTPRINT_ROUTER_ROUTER_HPP
#define FOOTPRINT_ROUTER_ROUTER_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "router/allocators.hpp"
#include "router/channel.hpp"
#include "router/vc_state.hpp"
#include "routing/routing.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"
#include "topo/mesh.hpp"

namespace footprint {

class PacketTracer;

/** Router microarchitecture parameters (Table 2). */
struct RouterParams
{
    int numVcs = 10;
    int vcBufSize = 4;
    int internalSpeedup = 2;
    int outputFifoSize = 8;
};

/**
 * A 5-port (E/W/N/S/Local) input-queued VC router.
 *
 * Per cycle the router runs three externally sequenced phases:
 *  - receivePhase: drain flit/credit channels into buffers,
 *  - computePhase: routing + VC allocation + switch allocation
 *    (internalSpeedup passes) + crossbar traversal into output FIFOs,
 *  - transmitPhase: each output FIFO pushes one flit into its link.
 *
 * Output-VC bookkeeping is stored structure-of-arrays (DESIGN.md §17)
 * in the RouterView lanes this class derives from and alone writes:
 * per-port busy / full-credit bitmasks maintained incrementally on
 * every state transition, the padded owner lane and the
 * per-destination convergence counters, plus a flat credit lane and
 * zero-credit masks here. The queries adaptive routing hammers every
 * cycle (idle / occupied / footprint) reduce to one or two bitwise
 * ops or a short fixed-width compare, and a saturated compute phase
 * performs zero heap allocations: all VA/SA scratch lives in
 * fixed-capacity flat tables sized once at construction.
 */
class Router : public RouterView
{
  public:
    /** Event counters used by the paper's Fig. 10 analysis. */
    struct Counters
    {
        std::uint64_t vcAllocSuccess = 0;
        std::uint64_t vcAllocFail = 0;    ///< blocking events
        double puritySum = 0.0;           ///< sum of per-event purity
        std::uint64_t puritySamples = 0;
        std::uint64_t flitsTraversed = 0;
        /**
         * VC-allocation grants split by the winning request's
         * Priority regime (escape / busy / footprint / idle /
         * reclaim), indexed by the Priority enum value. Sums to
         * vcAllocSuccess; the flight recorder diffs this per window
         * to expose Algorithm-1 regime transitions over time.
         */
        std::array<std::uint64_t, 5> vaGrantsByPriority{};

        /** Mean footprint share of busy VCs at blocking events. */
        double
        purity() const
        {
            return puritySamples == 0
                ? 0.0
                : puritySum / static_cast<double>(puritySamples);
        }

        /** Degree of HoL blocking: (1 - purity) x #blocking events. */
        double
        holDegree() const
        {
            return (1.0 - purity())
                * static_cast<double>(vcAllocFail);
        }

        void reset() { *this = Counters{}; }
    };

    Router(const Mesh& mesh, int node, const RouterParams& params,
           const RoutingAlgorithm* routing, std::uint64_t seed,
           const StatusBoard* status);

    /** Wire a port's incoming-flit and outgoing-credit channels. */
    void connectInput(int port, FlitChannel* flit_in,
                      CreditChannel* credit_out);

    /** Wire a port's outgoing-flit and incoming-credit channels. */
    void connectOutput(int port, FlitChannel* flit_out,
                       CreditChannel* credit_in);

    /** Record the neighbor node reachable through @p port (status). */
    void
    setNeighbor(int port, int node)
    {
        neighborNode_.at(static_cast<std::size_t>(port)) = node;
    }

    void receivePhase(std::int64_t cycle);
    void computePhase(std::int64_t cycle);
    void transmitPhase(std::int64_t cycle);

    /**
     * True when stepping this router next cycle could change state:
     * flits buffered in input VCs or output FIFOs, or anything (even
     * not yet arrived) in an incoming flit/credit pipe. Quiescent
     * routers (pending work == false) are observationally inert — all
     * three phases are no-ops — which is what makes activity-driven
     * stepping bit-identical to full stepping.
     */
    bool hasPendingWork() const;

    /**
     * The self-sustain rule, valid right after this router's own
     * transmit phase: buffered flits, output-FIFO flits, or an item
     * still in flight on an incoming pipe after this cycle's receive.
     * Items sent into those pipes later in the cycle woke the router
     * through the send hook, so waking on this rule plus the send
     * hooks schedules exactly the routers hasPendingWork() would —
     * without reading pipes other bands write (DESIGN.md §12).
     */
    bool
    selfSustains() const
    {
        return bufferedFlits_ > 0 || fifoFlits_ > 0 || inFlight_;
    }

    /**
     * step_mode=verify's check of the incrementally kept state, valid
     * between steps: each incoming pipe's arrival flag is set exactly
     * when the pipe holds an item, and the convergence counters equal
     * a recount over the front flits of the occupied input VCs (so
     * they sum to the number of those VCs). FP_ASSERTs on a mismatch.
     */
    void verifyIncrementalState(std::int64_t cycle) const;

    /** Idle-VC count of an output port (published to the status net). */
    int idleVcCount(int port) const { return popcount(idleVcMask(port)); }

    /**
     * Bitmask of output ports whose idle-VC count may have changed
     * since the last call; clears the mask. The transmit phase
     * publishes only these ports to the status board — an unchanged
     * count is already current there (the board is never reset).
     */
    std::uint32_t
    takePublishMask()
    {
        return std::exchange(publishDirty_, 0);
    }

    /** Owner destination of output VC (port, vc); -1 when idle. */
    int outVcOwner(int port, int vc) const;

    /** True if output VC (port, vc) is occupied. */
    bool
    outVcOccupied(int port, int vc) const
    {
        return (occupiedVcMask(port) >> vc) & VcMask{1};
    }

    /** Number of buffered flits in input VC (port, vc). */
    int
    inputOccupancy(int port, int vc) const
    {
        return static_cast<int>(inputVc(port, vc).occupancy());
    }

    /** Destination of a flit buffered in input VC, -1 if empty. */
    int inputFrontDest(int port, int vc) const;

    /** True if any buffered flit in (port, vc) targets @p dest. */
    bool inputHoldsDest(int port, int vc, int dest) const;

    const Counters& counters() const { return counters_; }
    void resetCounters() { counters_.reset(); }

    /** Total flits buffered in the router (for drain checks). */
    int totalBufferedFlits() const { return bufferedFlits_ + fifoFlits_; }

    // Occupancy gauges (read by observers off the critical path).

    /** Flits buffered in input VCs only (the "VC occupancy" probe). */
    int inputBufferedFlits() const { return bufferedFlits_; }

    /** Sum of available credits over all output VCs. */
    int totalOutputCredits() const;

    /** Occupied output VCs across all ports (live footprint lanes). */
    int occupiedOutVcs() const;

    /**
     * Occupied output VCs with index < @p vc_limit across all ports —
     * with vc_limit = numEscapeVcs(), the router's escape-VC usage
     * (the spatial-observatory esc_occ probe).
     */
    int occupiedOutVcsBelow(int vc_limit) const;

    /**
     * Attach (or detach with nullptr) a packet-lifecycle tracer. The
     * per-flit hooks cost one branch while @p tracer is nullptr.
     */
    void setTracer(PacketTracer* tracer) { tracer_ = tracer; }

    // Forensic accessors (auditor / watchdog / state dumps; never on
    // the per-cycle hot path).

    /** Available credits of output VC (port, vc). */
    int
    outVcCredits(int port, int vc) const
    {
        return outCredits_[ovIdx(port, vc)];
    }

    /** True if output VC (port, vc) is allocated to a packet. */
    bool
    outVcBusy(int port, int vc) const
    {
        return (outBusy_[static_cast<std::size_t>(port)] >> vc) & 1;
    }

    /** Full input-VC state (stage, granted route, buffered flits). */
    const InputVc&
    inputVc(int port, int vc) const
    {
        return inputs_[static_cast<std::size_t>(port)]
            .vcs[static_cast<std::size_t>(vc)];
    }

    /** Flits waiting in the output FIFO of @p port, head first. */
    const RingBuffer<Flit>&
    outputFifo(int port) const
    {
        return outputs_[static_cast<std::size_t>(port)].fifo;
    }

    /** Flits of output FIFO @p port destined for downstream VC @p vc. */
    int outputFifoFlitsForVc(int port, int vc) const;

    /** Neighbor node wired to @p port; -1 when unconnected. */
    int neighborAt(int port) const
    {
        return neighborNode_[static_cast<std::size_t>(port)];
    }

    /**
     * Fault-injection hook: silently consume one credit of output VC
     * (port, vc) without moving a flit, breaking credit conservation.
     * Tests use it to prove the auditor catches credit leaks.
     */
    void debugLeakCredit(int port, int vc);

  private:
    struct InputPort
    {
        FlitChannel* flitIn = nullptr;
        CreditChannel* creditOut = nullptr;
        std::vector<InputVc> vcs;
        RoundRobinArbiter saArbiter;  ///< over this port's VCs
        VcMask occMask = 0;     ///< bit v set while vcs[v] is non-empty
        VcMask activeMask = 0;  ///< bit v set while vcs[v] is Active
    };

    struct OutputPort
    {
        FlitChannel* flitOut = nullptr;
        CreditChannel* creditIn = nullptr;
        RoundRobinArbiter saArbiter;  ///< over input ports
        RingBuffer<Flit> fifo;  ///< capacity fixed to outputFifoSize
    };

    void runVcAllocation();
    void runSwitchAllocation();
    void moveFlit(int in_port, int in_vc);

    /** Tentative VC-allocation grant offered to one input VC. */
    struct VaGrant
    {
        int outPort = -1;
        int outVc = -1;
        Priority priority = Priority::Lowest;
    };

    /** An input VC that requested output VCs this cycle. */
    struct VaWaiter
    {
        int inPort = -1;
        int inVc = -1;
        int firstPort = -1;  ///< port of its first request (purity)
    };

    // --- Output-VC state transitions. ---
    //
    // Every transition goes through the ov*() helpers below, so the
    // RouterView masks and the credit and owner lanes never disagree.

    std::size_t
    ovIdx(int port, int vc) const
    {
        return static_cast<std::size_t>(port * numVcs_ + vc);
    }

    void
    ovAllocate(int port, int vc, int dest)
    {
        FP_ASSERT(!((outBusy_[static_cast<std::size_t>(port)] >> vc)
                    & VcMask{1}),
                  "allocating a busy output VC");
        outBusy_[static_cast<std::size_t>(port)] |= VcMask{1} << vc;
        outOwner_[ownerIdx(port, vc)] = static_cast<std::int16_t>(dest);
    }

    void
    ovTailSent(int port, int vc)
    {
        FP_ASSERT((outBusy_[static_cast<std::size_t>(port)] >> vc)
                      & VcMask{1},
                  "tailSent on an unallocated output VC");
        // The owner lane is intentionally retained: the VC remains a
        // footprint VC for its destination while flits are still
        // draining downstream (credits below bufSize).
        outBusy_[static_cast<std::size_t>(port)] &= ~(VcMask{1} << vc);
    }

    void
    ovConsumeCredit(int port, int vc)
    {
        const std::int16_t c = --outCredits_[ovIdx(port, vc)];
        FP_ASSERT(c >= 0, "consuming a credit the VC does not have");
        const auto p = static_cast<std::size_t>(port);
        outFullCredit_[p] &= ~(VcMask{1} << vc);
        if (c == 0)
            outZeroCredit_[p] |= VcMask{1} << vc;
    }

    void
    ovReturnCredit(int port, int vc)
    {
        const std::int16_t c = ++outCredits_[ovIdx(port, vc)];
        FP_ASSERT(c <= vcBufSize_, "credit overflow on output VC");
        const auto p = static_cast<std::size_t>(port);
        outZeroCredit_[p] &= ~(VcMask{1} << vc);
        if (c == vcBufSize_)
            outFullCredit_[p] |= VcMask{1} << vc;
    }

    /** Which VCs a new packet may claim (VC-reallocation policy). */
    VcMask
    allocatableMaskOf(int port, bool atomic) const
    {
        const auto p = static_cast<std::size_t>(port);
        return atomic ? (outFullCredit_[p] & ~outBusy_[p])
                      : (vcAll_ & ~outBusy_[p]);
    }

    const RoutingAlgorithm* routing_;
    int speedup_;    ///< switch-allocation passes per cycle
    int fifoSize_;   ///< output FIFO capacity
    int vcBufSize_;  ///< input-VC depth = full credits per output VC

    std::array<InputPort, kNumPorts> inputs_;
    std::array<OutputPort, kNumPorts> outputs_;
    std::int64_t cycle_ = 0;

    /** Credits per output VC (kNumPorts * numVcs, port-major). */
    std::vector<std::int16_t> outCredits_;
    std::array<VcMask, kNumPorts> outZeroCredit_{};  ///< no credits

    // Per-cycle scratch state: fixed-capacity flat tables sized at
    // construction, so the per-cycle hot path performs no heap
    // allocation (waiting_ / touchedOutVcs_ are reserved to their
    // structural maxima up front).
    std::vector<VaWaiter> waiting_;
    /** Request set of the input VC being routed; reused per route(). */
    OutputSet vaSet_;
    std::vector<int> touchedOutVcs_;  ///< out-VC ids, first-touch order
    // Per-output-VC running best over this cycle's requesters: the
    // highest (priority, then round-robin distance) request seen so
    // far. A sentinel priority of -1 marks "no requester yet"; entries
    // are reset to the sentinel as the offer pass consumes them, so
    // the tables never need a bulk clear.
    std::vector<std::int8_t> vaBestPri_;    ///< -1 = untouched
    std::vector<std::int16_t> vaBestDist_;  ///< rr distance of best
    std::vector<std::int16_t> vaBestReq_;   ///< input-VC id of best
    std::vector<std::int16_t> vcRrPtr_;  ///< per-out-VC tie-break ptr
    std::vector<VaGrant> bestGrant_;  ///< per flattened input VC id

    // Incrementally maintained totals backing the occupancy gauges and
    // hasPendingWork() without walking every VC each cycle.
    int bufferedFlits_ = 0;  ///< flits across all input VCs
    int fifoFlits_ = 0;      ///< flits across all output FIFOs
    /** An incoming pipe held an item after the last receivePhase. */
    bool inFlight_ = false;

    /** Ports not yet re-published since their count last changed. */
    std::uint32_t publishDirty_ = 0;

    Counters counters_;
    PacketTracer* tracer_ = nullptr;

    /**
     * Arrival flags, set while a pipe holds items: input port p's flit
     * pipe at p, output port p's credit pipe at kNumPorts + p. Pipes
     * in other bands set them too, so they get their own cache line.
     */
    alignas(64) std::array<bool, 2 * kNumPorts> arrived_{};
};

} // namespace footprint

#endif // FOOTPRINT_ROUTER_ROUTER_HPP
