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
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "router/flit.hpp"
#include "router/vc_state.hpp"
#include "sim/log.hpp"
#include "topo/mesh.hpp"

namespace footprint {

class Rng;
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
 * Read-only view of the router state a routing algorithm may consult.
 * All of it is *local* information (Footprint's key cost property),
 * except remoteIdleCount which models DBAR's one-hop side-band status
 * exchange.
 */
class RouterView
{
  public:
    virtual ~RouterView() = default;

    virtual int nodeId() const = 0;
    /** The network's shape (wrapped kinds admit DOR only). */
    virtual const Mesh& mesh() const = 0;
    virtual int numVcs() const = 0;
    virtual int vcBufSize() const = 0;

    /** Mask of fully idle output VCs on @p port. */
    virtual VcMask idleVcMask(int port) const = 0;

    /** Mask of occupied output VCs on @p port owned by @p dest. */
    virtual VcMask footprintVcMask(int port, int dest) const = 0;

    /** Mask of occupied output VCs on @p port (any owner). */
    virtual VcMask occupiedVcMask(int port) const = 0;

    /**
     * Mask of output VCs on @p port with zero credits — fully
     * backpressured VCs, the local signature of a congestion tree.
     */
    virtual VcMask zeroCreditVcMask(int port) const = 0;

    /**
     * Number of input VCs at this router holding flits destined to
     * @p dest. Two or more means traffic to @p dest is accumulating
     * here — converging flows or a backlogged stream, the local
     * signature of congestion forming around that destination
     * (Sec. 2).
     */
    virtual int convergingInputs(int dest) const = 0;

    /**
     * Idle-VC count of output @p port at the neighbor reached through
     * @p through_port, as of the previous cycle (DBAR side-band).
     * Returns -1 when no status is available.
     */
    virtual int remoteIdleCount(int through_port, int port) const = 0;

    /** RNG for tie-breaking (deterministic per router). */
    virtual Rng& rng() const = 0;
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
Dir dorDir(const Mesh& mesh, int cur, int dest);

} // namespace footprint

#endif // FOOTPRINT_ROUTING_ROUTING_HPP
