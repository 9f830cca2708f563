/**
 * @file
 * Endpoint node model: an injection source (unbounded source queue,
 * one flit per cycle, credit-respecting VC selection) and an ejection
 * sink (per-VC buffers drained at a configurable ejection rate). The
 * sink's finite drain bandwidth is what turns oversubscribed endpoints
 * into real endpoint congestion with backpressure into the network.
 */

#ifndef FOOTPRINT_NETWORK_ENDPOINT_HPP
#define FOOTPRINT_NETWORK_ENDPOINT_HPP

#include <cstdint>
#include <vector>

#include "router/channel.hpp"
#include "router/packet_pool.hpp"
#include "router/vc_state.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/rng.hpp"

namespace footprint {

class ActiveSet;
class PacketTracer;

/** A completed (fully ejected) packet, for statistics collection. */
struct EjectedPacket
{
    std::uint64_t packetId = 0;
    int src = -1;
    int dest = -1;
    int size = 1;
    std::int64_t createTime = 0;
    std::int64_t ejectTime = 0;
    int hops = 0;
    FlowClass flowClass = FlowClass::Background;
    bool measured = false;

    std::int64_t latency() const { return ejectTime - createTime; }
};

/** Endpoint configuration. */
struct EndpointParams
{
    int numVcs = 10;
    int vcBufSize = 4;
    int ejectionRate = 1;      ///< flits drained from the sink per cycle
    bool atomicVcAlloc = true; ///< VC reallocation policy at injection
};

/**
 * The source + sink pair attached to one router's local port.
 */
class Endpoint
{
  public:
    /**
     * @param pool descriptor pool shared by every endpoint of the
     *        network; holds the per-packet constants of in-flight
     *        packets (allocated at injection, released at ejection).
     */
    Endpoint(int node, const EndpointParams& params, std::uint64_t seed,
             PacketPool* pool);

    /**
     * Wire the endpoint to its router's local port.
     *
     * @param to_router flits source -> router local input.
     * @param credit_from_router credits router -> source.
     * @param from_router flits router local output -> sink.
     * @param credit_to_router credits sink -> router.
     */
    void connect(FlitChannel* to_router, CreditChannel* credit_from_router,
                 FlitChannel* from_router,
                 CreditChannel* credit_to_router);

    /** Queue a packet for injection (open-loop source). */
    void enqueue(const Packet& packet);

    void receivePhase(std::int64_t cycle);
    void computePhase(std::int64_t cycle);

    /**
     * Register this endpoint on @p set (as component @p comp) whenever
     * work arrives from outside the step loop (enqueue). Unset by
     * default: endpoints used standalone never touch an active list.
     */
    void
    setWakeHook(ActiveSet* set, int comp)
    {
        wakeSet_ = set;
        wakeComp_ = comp;
    }

    /**
     * Defer descriptor releases until flushReleases() instead of
     * returning them to the pool at ejection. The Network turns this
     * on for every endpoint: an ejected packet's descriptor lives in
     * its *source* endpoint's pool segment, so releasing it inline
     * would race that segment's owner under sharded stepping — and
     * flushing from a serial end-of-step epilogue in node order keeps
     * free-list contents identical across step modes and thread
     * counts. Off by default for standalone use.
     */
    void setDeferReleases(bool on) { deferReleases_ = on; }

    /** Return deferred releases to the pool (serial contexts only). */
    void
    flushReleases()
    {
        for (const std::uint32_t desc : pendingRelease_)
            pool_->release(desc);
        pendingRelease_.clear();
    }

    /**
     * True when stepping this endpoint next cycle could change state:
     * a packet mid-injection or queued, flits buffered in the sink, or
     * anything in flight on the incoming flit/credit pipes. Quiescent
     * endpoints are observationally inert, mirroring
     * Router::hasPendingWork().
     */
    bool hasPendingWork() const;

    /**
     * The self-sustain rule, mirroring Router::selfSustains(): a
     * packet mid-injection or queued, sink flits, or an item still in
     * flight on an incoming pipe after this cycle's receive.
     */
    bool
    selfSustains() const
    {
        return injecting_ || !sourceQueue_.empty() || sinkFlits_ > 0
            || inFlight_;
    }

    /** Packets fully ejected since the last call (caller consumes). */
    std::vector<EjectedPacket> drainEjected();

    /**
     * Append the ejected packets to @p out and clear the internal
     * list. Allocation-free once @p out's capacity has warmed up —
     * the per-cycle collect loops use this instead of the by-value
     * drainEjected() so a steady-state cycle performs no heap
     * allocation (DESIGN.md §17).
     */
    void drainEjectedInto(std::vector<EjectedPacket>& out);

    /**
     * Ejected packets waiting for drainEjected(). Drivers check this
     * before calling drainEjected() so the per-node collect loop
     * costs one inlined load on quiet nodes instead of a by-value
     * vector round trip.
     */
    std::size_t ejectedCount() const { return ejected_.size(); }

    int node() const { return node_; }

    /** Flits waiting in the source (queued packets + current). */
    std::int64_t sourceBacklogFlits() const;

    /**
     * Pre-size the source queue for @p packets queued packets. The
     * queue grows on demand either way; reserving up front lets
     * zero-allocation benches keep a monotonically growing saturation
     * backlog without the queue doubling mid-measurement. Only valid
     * while the queue is empty.
     */
    void reserveSourceQueue(std::size_t packets);

    /** Flits currently buffered in the sink. */
    int sinkBufferedFlits() const;

    std::uint64_t flitsInjected() const { return flitsInjected_; }
    std::uint64_t flitsEjected() const { return flitsEjected_; }

    /**
     * Attach (or detach with nullptr) a packet-lifecycle tracer; the
     * sink-drain hook costs one branch while @p tracer is nullptr.
     */
    void setTracer(PacketTracer* tracer) { tracer_ = tracer; }

    // Forensic accessors (auditor / state dumps; off the hot path).

    /** Source-side credits toward router local-input VC @p vc. */
    int injectVcCredits(int vc) const
    {
        return injectVcs_[static_cast<std::size_t>(vc)].credits();
    }

    /** True if injection VC @p vc is allocated to a packet. */
    bool injectVcBusy(int vc) const
    {
        return injectVcs_[static_cast<std::size_t>(vc)].busy();
    }

    /** Flits buffered in sink VC @p vc. */
    int sinkVcOccupancy(int vc) const
    {
        return static_cast<int>(
            sinkVcs_[static_cast<std::size_t>(vc)].size());
    }

    /** True while a packet is mid-injection. */
    bool injecting() const { return injecting_; }

    /** VC the current packet injects on; -1 when none. */
    int currentInjectVc() const { return currentVc_; }

  private:
    bool startNextPacket();

    int node_;
    EndpointParams params_;
    Rng rng_;
    PacketPool* pool_;
    ActiveSet* wakeSet_ = nullptr;
    int wakeComp_ = -1;

    // Source side.
    FlitChannel* toRouter_ = nullptr;
    CreditChannel* creditFromRouter_ = nullptr;
    RingBuffer<Packet> sourceQueue_;  ///< growable (open-loop backlog)
    std::vector<OutVcState> injectVcs_;  ///< router local-input VC view
    bool injecting_ = false;
    Packet current_;
    std::uint32_t currentDesc_ = 0;  ///< pool slot of current_
    int cursor_ = 0;
    int currentVc_ = -1;
    int nextVcHint_ = 0;

    // Sink side.
    FlitChannel* fromRouter_ = nullptr;
    CreditChannel* creditToRouter_ = nullptr;
    std::vector<RingBuffer<Flit>> sinkVcs_;
    VcMask sinkOccMask_ = 0;  ///< bit v set while sinkVcs_[v] non-empty
    int sinkFlits_ = 0;  ///< total flits across sink VCs
    int drainHint_ = 0;
    /** An incoming pipe held an item after the last receivePhase. */
    bool inFlight_ = false;
    std::vector<EjectedPacket> ejected_;
    bool deferReleases_ = false;
    std::vector<std::uint32_t> pendingRelease_;

    std::uint64_t flitsInjected_ = 0;
    std::uint64_t flitsEjected_ = 0;
    PacketTracer* tracer_ = nullptr;
};

} // namespace footprint

#endif // FOOTPRINT_NETWORK_ENDPOINT_HPP
