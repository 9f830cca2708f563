/**
 * @file
 * Full network assembly: routers, endpoints, channels, and the
 * side-band status network, stepped one cycle at a time.
 */

#ifndef FOOTPRINT_NETWORK_NETWORK_HPP
#define FOOTPRINT_NETWORK_NETWORK_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "exec/spin_barrier.hpp"
#include "sim/active_set.hpp"
#include "network/endpoint.hpp"
#include "network/link_fabric.hpp"
#include "router/packet_pool.hpp"
#include "router/router.hpp"
#include "sim/config.hpp"
#include "topo/mesh.hpp"

namespace footprint {

class PacketTracer;
class Profiler;
enum class ProfPhase : int;

/** Which components each band lists for Network::step. */
enum class StepMode {
    Full,      ///< every router and endpoint, every cycle
    Activity,  ///< only components woken for this cycle
    Verify,    ///< every component, after cross-checking the wakes
};

/**
 * A 2D-mesh network of routers and endpoints built from a SimConfig.
 *
 * Per cycle (step): routers and endpoints run their receive phase,
 * then their compute phase, then routers transmit into links. The
 * phase structure makes the simulation independent of iteration order
 * and hence deterministic.
 *
 * The mesh is cut into min(threads, nodes) bands, and every step runs
 * the three phases over each band's component list, one band per
 * thread (DESIGN.md §13). The step mode only chooses what the lists
 * hold. Under the default "activity" mode a band lists the components
 * woken for this cycle: a component is woken for cycle t+1 when it
 * still has pending work after cycle t (buffered flits, queued
 * packets, or in-flight pipe entries) or when a neighbor sends into
 * one of its pipes. Stepping a quiescent component is observationally
 * a no-op, so results are bit-identical to "full" stepping, which
 * lists everything; "verify" lists everything too, after panicking if
 * a component the wakes would have skipped reports pending work (see
 * DESIGN.md §12).
 */
class Network
{
  public:
    explicit Network(const SimConfig& cfg);

    /** Stops and joins the band crew, if there is one. */
    ~Network();

    // The band crew holds `this`.
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /** Advance the whole network by one cycle. */
    void step(std::int64_t cycle);

    /**
     * @return true if the network is fully quiescent: no component has
     * pending work, which (because every pipe feeds some component's
     * pending-work check) implies no flit or credit is in flight and
     * no buffer holds anything. Stepping an idle network any number of
     * cycles is an exact no-op, so the driver may skipTo() an event
     * horizon instead. Meaningful between steps, never during one.
     */
    bool idle() const;

    /**
     * Jump the clock over a quiescent span: record that the network
     * has (conceptually) been stepped through every cycle strictly
     * before @p cycle, so the next step(cycle) is treated as
     * contiguous. Caller must ensure idle() — FP_ASSERTed here —
     * because skipped cycles are replayed as nothing at all.
     */
    void skipTo(std::int64_t cycle);

    /** The flat link/credit fabric (DESIGN.md §17). */
    const LinkFabric& linkFabric() const { return fabric_; }

    /** Descriptor pool backing Flit::desc for in-flight packets. */
    PacketPool& packetPool() { return pool_; }
    const PacketPool& packetPool() const { return pool_; }

    /** The shape this network was built from (DESIGN.md §18). */
    const Mesh& mesh() const { return mesh_; }
    const RoutingAlgorithm& routing() const { return *routing_; }
    const RouterParams& routerParams() const { return params_; }

    Router& router(int node) { return *routers_[idx(node)]; }
    const Router& router(int node) const { return *routers_[idx(node)]; }
    Endpoint& endpoint(int node) { return *endpoints_[idx(node)]; }
    const Endpoint& endpoint(int node) const
    {
        return *endpoints_[idx(node)];
    }

    /** Flits anywhere in the system (buffers, FIFOs, links, sinks). */
    std::int64_t totalFlitsInFlight() const;

    /** Sum of all routers' event counters. */
    Router::Counters aggregateCounters() const;

    /** Reset all routers' event counters. */
    void resetCounters();

    /**
     * Wire a packet-lifecycle tracer (borrowed; must outlive the
     * network's stepping) into every router and endpoint. The tracer
     * records from hooks inside the step phases, so from then on the
     * calling thread steps every band, one phase at a time.
     */
    void attachTracer(PacketTracer* tracer);

    /** Flits ever sent on any flit channel (links + endpoint links). */
    std::uint64_t totalFlitsSent() const;

    /**
     * Attach a self-profiler: subsequent step() calls attribute wall
     * time to the epilogue and, with one band, to the drain/compute/
     * transmit phases or, with several, to per-band busy time and
     * barrier waits (see DESIGN.md §14). A null profiler detaches.
     * Profiling reads the clock but never simulation state, so results
     * are bit-identical with or without it, in every step mode.
     */
    void attachProfiler(Profiler* profiler);

    /** Bands the mesh is cut into: min(threads, nodes). */
    int shardCount() const
    {
        return static_cast<int>(shards_.size());
    }

    /** First node of band @p shard. */
    int bandStart(int shard) const
    {
        return shards_[static_cast<std::size_t>(shard)].compBegin / 2;
    }

    /**
     * Install band boundaries between steps: @p starts holds each
     * band's first node, one entry per band, starting at 0 and
     * strictly increasing (FP_ASSERTed). The periodic re-cut installs
     * its boundaries through here; results never depend on them, only
     * wall time does (DESIGN.md §13).
     */
    void setBandStarts(std::span<const int> starts);

    /**
     * One directed link: the forward flit channel and its backward
     * credit channel. Port fields are meaningful only on router ends
     * (-1 on endpoint ends). Built once at construction for the
     * auditor's per-link credit-conservation walk and state dumps.
     */
    struct LinkRecord
    {
        enum class Kind {
            RouterToRouter,
            RouterToEndpoint,  ///< ejection link into the sink
            EndpointToRouter,  ///< injection link from the source
        };

        Kind kind = Kind::RouterToRouter;
        int srcNode = -1;
        int srcPort = -1;  ///< output port at src
        int dstNode = -1;
        int dstPort = -1;  ///< input port at dst
        FlitChannel* flit = nullptr;
        CreditChannel* credit = nullptr;
        std::size_t flitId = 0;    ///< fabric flit-channel id
        std::size_t creditId = 0;  ///< fabric credit-channel id
    };

    const std::vector<LinkRecord>& links() const { return links_; }

    /** Flits ever injected across all endpoints. */
    std::uint64_t totalFlitsInjected() const;

    /** Flits ever ejected (drained from sinks) across all endpoints. */
    std::uint64_t totalFlitsEjected() const;

  private:
    static std::size_t idx(int node)
    {
        return static_cast<std::size_t>(node);
    }

    // Component ids on the active list: router of node k is 2k, its
    // endpoint 2k+1 (dense, so the sorted active list reproduces full
    // stepping's node order).
    static int routerComp(int node) { return 2 * node; }
    static int endpointComp(int node) { return 2 * node + 1; }

    void buildWakeGraph();
    void buildShards(int threads);
    bool componentHasPendingWork(int comp) const;
    bool componentSelfSustains(int comp) const;
    void phaseReceive(const std::vector<int>& comps,
                      std::int64_t cycle);
    void phaseCompute(const std::vector<int>& comps,
                      std::int64_t cycle);
    void phaseTransmit(const std::vector<int>& comps,
                       std::int64_t cycle);
    void rescheduleAfterStep(const std::vector<int>& comps);
    void verifyWakes(std::int64_t cycle);
    void crewLoop(int member);
    void stepBands(int member, std::int64_t cycle);
    template <typename Fn>
    void runPhase(ProfPhase phase, std::size_t sBegin, std::size_t sEnd,
                  Fn&& body);
    void epilogue();
    void barrierArrive(int member);
    void recutBands();

    Mesh mesh_;
    RouterParams params_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    StatusBoard status_;
    PacketPool pool_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Endpoint>> endpoints_;
    /** Every link pipe + the flat lanes behind the batched queries. */
    LinkFabric fabric_;
    std::vector<LinkRecord> links_;

    // Activity-driven stepping state. The wake graph maps each
    // component to its outgoing pipes and the component on their far
    // end: after a component's cycle, any non-empty outgoing pipe
    // wakes its receiver (credits flow opposite to their link's flit
    // direction, hence separate lists).
    StepMode stepMode_ = StepMode::Activity;
    ActiveSet active_;
    std::int64_t lastCycle_ = 0;
    bool haveStepped_ = false;
    std::vector<int> verifyWoken_;  ///< drained wake set (verify mode)

    // Band stepping state (DESIGN.md §13). The mesh is partitioned
    // into spatially contiguous node bands; each band owns the routers
    // *and* endpoints of its nodes, so a band is a contiguous
    // component id range. Band c is stepped by crew member c through
    // barrier-aligned phases; the calling thread is member 0 and crew_
    // holds the other bands-1 for the network's whole lifetime.
    struct alignas(64) Shard
    {
        int compBegin = 0;         ///< first component id (inclusive)
        int compEnd = 0;           ///< one past the last component id
        /** This cycle's components: drained wakes, or the whole band. */
        std::vector<int> active;
        /** Phase-body wall time this cycle (owning worker writes). */
        std::uint64_t busyNs = 0;
    };

    /** Stepped cycles per band re-cut window. */
    static constexpr int kRecutWindow = 32;

    int threads_ = 1;              ///< config "threads"
    std::vector<Shard> shards_;
    /** The crew steps (false without one, or once a tracer attaches). */
    bool crewSteps_ = false;
    std::int64_t crewCycle_ = 0;   ///< cycle the crew steps next
    SpinBarrier barrier_;
    std::exception_ptr stepError_;
    std::mutex stepErrMutex_;
    std::atomic<bool> stepFailed_{false};
    int recutClock_ = 0;           ///< cycles into the re-cut window
    std::uint64_t recuts_ = 0;
    // Re-cut scratch, sized at build: new band starts, and each
    // band's busy time for every cycle of the window (band-major).
    std::vector<int> recutStarts_;
    std::vector<std::uint64_t> recutSamples_;

    /** Self-profiler; null (the common case) skips all timing. */
    Profiler* profiler_ = nullptr;

    // The resident band crew, declared last because its threads use
    // the members above; ~Network joins them before any is destroyed.
    enum class CrewState { Starting, Running, FailedStart, Stopping };
    std::atomic<CrewState> crewState_{CrewState::Starting};
    std::vector<std::thread> crew_;
};

} // namespace footprint

#endif // FOOTPRINT_NETWORK_NETWORK_HPP
