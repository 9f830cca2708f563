/**
 * @file
 * Routing-algorithm interface.
 *
 * A routing algorithm turns (router state, head flit) into a set of
 * prioritized virtual-channel requests — exactly the interface the
 * paper's Algorithm 1 is written against (its ADD(P, v, pri) calls).
 * The router re-invokes the algorithm every cycle a packet waits in VC
 * allocation, so adaptive decisions track live VC occupancy.
 */

#ifndef FOOTPRINT_ROUTING_ROUTING_HPP
#define FOOTPRINT_ROUTING_ROUTING_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "router/flit.hpp"
#include "router/vc_state.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"
#include "topo/mesh.hpp"

namespace footprint {

class SimConfig;

/** Request priorities used by Algorithm 1. Larger value wins. */
enum class Priority : int {
    Lowest = 0,   ///< escape-channel requests
    Low = 1,      ///< ordinary adaptive / busy-VC requests
    High = 2,     ///< footprint-VC requests
    Highest = 3,  ///< idle-VC requests under moderate load
    Reclaim = 4,  ///< a destination re-claiming its own drained
                  ///< footprint VC (keeps the congestion tree in the
                  ///< same lanes instead of spreading to fresh VCs)
};

/** One prioritized VC request: a set of VCs on one output port. */
struct VcRequest
{
    int port = -1;
    VcMask vcs = 0;
    Priority priority = Priority::Low;
};

/**
 * The set of VC requests produced by one routing invocation. The VC
 * allocator grants at most one (port, vc) from this set per packet.
 *
 * Storage is a fixed inline array: one invocation adds at most a
 * handful of requests (Footprint's Algorithm 1 peaks at one escape
 * plus a few prioritized adaptive entries), so kMaxRequests bounds
 * every algorithm with room to spare and add() never touches the
 * heap. This keeps the one request set the router reuses for every
 * route() call allocation-free in steady state (DESIGN.md §17).
 */
class OutputSet
{
  public:
    /** Upper bound on requests per routing invocation. */
    static constexpr std::size_t kMaxRequests = 16;

    void clear() { count_ = 0; }

    /** Add a request; empty masks are dropped. */
    void
    add(int port, VcMask vcs, Priority priority)
    {
        if (vcs != 0) {
            FP_ASSERT(count_ < kMaxRequests,
                      "routing invocation exceeded OutputSet capacity");
            requests_[count_++] = VcRequest{port, vcs, priority};
        }
    }

    std::span<const VcRequest>
    requests() const
    {
        return {requests_.data(), count_};
    }

    bool empty() const { return count_ == 0; }

    /** Highest priority with which (port, vc) is requested, or none. */
    bool
    priorityFor(int port, int vc, Priority& out) const
    {
        bool found = false;
        for (const VcRequest& r : requests()) {
            if (r.port == port && (r.vcs >> vc) & 1) {
                if (!found || r.priority > out)
                    out = r.priority;
                found = true;
            }
        }
        return found;
    }

  private:
    std::array<VcRequest, kMaxRequests> requests_{};
    std::size_t count_ = 0;
};

/**
 * Per-router status table: the side-band wires adaptive algorithms
 * like DBAR use to see one hop ahead. Routers publish idle-VC counts
 * during their transmit phase; neighbors read during the compute
 * phase. Because every compute phase of a cycle completes before any
 * transmit phase begins, a read always observes the previous cycle's
 * publishes — the one-cycle-delayed status network DBAR assumes —
 * without double buffering. A router whose state did not change
 * (quiescent under activity-driven stepping) may skip publishing: its
 * stored counts are already current.
 */
class StatusBoard
{
  public:
    void
    init(int num_nodes)
    {
        counts_.assign(static_cast<std::size_t>(num_nodes), {});
    }

    /** Publish @p count for (node, port); call in the transmit phase. */
    void
    publish(int node, int port, int count)
    {
        counts_[static_cast<std::size_t>(node)]
               [static_cast<std::size_t>(port)] = count;
    }

    /** Idle-VC count of @p port at @p node as of the previous cycle. */
    int
    idleCount(int node, int port) const
    {
        return counts_[static_cast<std::size_t>(node)]
                      [static_cast<std::size_t>(port)];
    }

  private:
    std::vector<std::array<int, kNumPorts>> counts_;
};

/**
 * The router state a routing algorithm may consult, as plain lanes
 * answered inline: a query is a load or two, never a virtual call.
 * All of it is *local* information (Footprint's key cost property),
 * except remoteIdleCount, which models DBAR's one-hop side-band status
 * exchange. Router derives from it and is the only writer of these
 * lanes; the unit tests' FakeRouterView scripts them directly.
 */
class RouterView
{
  public:
    /** Each port's owner-lane slice is padded to whole blocks. */
    static constexpr int kOwnerBlock = 16;
    static constexpr std::array<std::uint16_t, kOwnerBlock> kLaneBit{
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
        16384, 32768};

    int nodeId() const { return node_; }
    /** The network's shape (wrapped kinds admit DOR only). */
    const Mesh& mesh() const { return *mesh_; }
    int numVcs() const { return numVcs_; }

    /** Fully idle output VCs on @p port: unallocated, buffer empty. */
    VcMask
    idleVcMask(int port) const
    {
        const auto p = static_cast<std::size_t>(port);
        return outFullCredit_[p] & ~outBusy_[p];
    }

    /** Occupied output VCs on @p port: allocated, or still draining. */
    VcMask
    occupiedVcMask(int port) const
    {
        const auto p = static_cast<std::size_t>(port);
        return outBusy_[p] | (vcAll_ & ~outFullCredit_[p]);
    }

    /**
     * Output VCs on @p port whose owner register holds @p dest. Owners
     * persist after a VC drains (only reallocation overwrites them, as
     * in the Sec. 4.4 hardware), so a drained VC stays a footprint VC
     * until another packet claims it. The -1 padding makes the scan a
     * fixed-width int16 compare the compiler vectorises (a compare,
     * a mask with kLaneBit and an OR reduction per 16 VCs).
     */
    VcMask
    footprintVcMask(int port, int dest) const
    {
        const std::int16_t* owner =
            outOwner_.data() + ownerIdx(port, 0);
        const auto d = static_cast<std::int16_t>(dest);
        VcMask m = 0;
        for (int b = 0; b < ownerStride_; b += kOwnerBlock) {
            std::uint16_t bits = 0;
            // Unrolled whole, the block would not vectorise.
#pragma GCC unroll 1
            for (int i = 0; i < kOwnerBlock; ++i)
                bits |= static_cast<std::uint16_t>(-(owner[b + i] == d))
                    & kLaneBit[static_cast<std::size_t>(i)];
            m |= VcMask{bits} << b;
        }
        return m;
    }

    /**
     * Input VCs here whose front flit goes to @p dest. Two or more
     * means traffic to @p dest is accumulating here — converging
     * flows or a backlogged stream, the local signature of congestion
     * forming around that destination (Sec. 2).
     */
    int
    convergingInputs(int dest) const
    {
        return convergence_[static_cast<std::size_t>(dest)];
    }

    /**
     * Idle-VC count of output @p port at the neighbor reached through
     * @p through_port, as of the previous cycle (DBAR side-band);
     * -1 when no status is available.
     */
    int
    remoteIdleCount(int through_port, int port) const
    {
        const int nbr =
            neighborNode_[static_cast<std::size_t>(through_port)];
        return nbr < 0 || !status_ ? -1 : status_->idleCount(nbr, port);
    }

    /** RNG for tie-breaking (deterministic per router). */
    Rng& rng() const { return rng_; }

  protected:
    /** Every output VC idle with full credits, no owners/neighbors. */
    RouterView(const Mesh& mesh, int node, int num_vcs,
               std::uint64_t rng_seed, const StatusBoard* status)
        : mesh_(&mesh), status_(status), rng_(rng_seed), node_(node),
          numVcs_(num_vcs),
          ownerStride_((num_vcs + kOwnerBlock - 1) / kOwnerBlock
                       * kOwnerBlock),
          vcAll_(maskOfFirst(num_vcs)),
          outOwner_(static_cast<std::size_t>(kNumPorts * ownerStride_),
                    -1),
          convergence_(static_cast<std::size_t>(mesh.numNodes()), 0)
    {
        outFullCredit_.fill(vcAll_);
        neighborNode_.fill(-1);
    }

    std::size_t
    ownerIdx(int port, int vc) const
    {
        return static_cast<std::size_t>(port * ownerStride_ + vc);
    }

    const Mesh* mesh_;
    const StatusBoard* status_;
    mutable Rng rng_;
    int node_;
    int numVcs_;
    int ownerStride_;  ///< numVcs rounded up to whole kOwnerBlocks
    VcMask vcAll_;     ///< maskOfFirst(numVcs)
    // Per-port output-VC states: busy (allocated), full credits
    // (downstream buffer empty).
    std::array<VcMask, kNumPorts> outBusy_{};
    std::array<VcMask, kNumPorts> outFullCredit_{};
    std::array<int, kNumPorts> neighborNode_{};
    std::vector<std::int16_t> outOwner_;  ///< port-major, -1 = none
    std::vector<std::uint16_t> convergence_;  ///< per dest, <= 320
};

/**
 * Abstract routing algorithm.
 *
 * Implementations must be stateless with respect to individual packets
 * (all per-packet adaptivity is re-derived from the RouterView), which
 * is what allows per-cycle re-evaluation.
 */
class RoutingAlgorithm
{
  public:
    virtual ~RoutingAlgorithm() = default;

    /** Short identifier, e.g. "footprint" or "dbar+xordet". */
    virtual std::string name() const = 0;

    /**
     * Compute the VC requests for the head flit @p flit at the router
     * viewed by @p view.
     *
     * @param view router state.
     * @param flit head flit being routed.
     * @param out request set to fill (cleared by the caller).
     */
    virtual void route(const RouterView& view, const Flit& flit,
                       OutputSet& out) const = 0;

    /**
     * Whether output VCs may only be reallocated once the tail flit's
     * credit has returned (Duato-based algorithms; see Sec. 4.2.1).
     */
    virtual bool atomicVcAlloc() const = 0;

    /** Number of escape VCs reserved per channel (0 or 1 here). */
    virtual int numEscapeVcs() const = 0;
};

/**
 * Instantiate a routing algorithm by name: "dor", "oddeven", "dbar",
 * "footprint", or any of them with a "+xordet" suffix.
 * fatal() on unknown names.
 */
std::unique_ptr<RoutingAlgorithm>
makeRoutingAlgorithm(const std::string& name, const SimConfig& cfg);

/** All algorithm names the factory accepts (for sweeps and tests). */
std::vector<std::string> allRoutingAlgorithmNames();

/**
 * Dimension-order (XY) output port from @p cur to @p dest: the first
 * of Mesh::minimalDirsInto, so on wrapped dimensions the shorter way
 * around wins (ties go East / North); Local at the destination.
 */
inline Dir
dorDir(const Mesh& mesh, int cur, int dest)
{
    Dir dirs[2];
    return mesh.minimalDirsInto(cur, dest, dirs) > 0 ? dirs[0]
                                                     : Dir::Local;
}

} // namespace footprint

#endif // FOOTPRINT_ROUTING_ROUTING_HPP
