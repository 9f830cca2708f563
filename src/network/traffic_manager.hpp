/**
 * @file
 * Traffic manager: drives a Network through warmup / measurement /
 * drain phases with synthetic, hotspot, or trace-driven traffic and
 * collects the statistics the paper's evaluation reports.
 */

#ifndef FOOTPRINT_NETWORK_TRAFFIC_MANAGER_HPP
#define FOOTPRINT_NETWORK_TRAFFIC_MANAGER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/hdr_histogram.hpp"
#include "obs/timeseries.hpp"
#include "router/router.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"

namespace footprint {

/** Aggregate results of one simulation run. */
struct RunStats
{
    /** Latency of measured packets (background class only). */
    StatAccumulator latency;
    /** Latency distribution of measured packets (5-cycle bins). */
    Histogram latencyHist{5.0, 400};
    /**
     * Log-bucketed latency distribution of measured packets: p99/p999
     * in bounded memory with <=0.4% relative error, where the linear
     * histogram above saturates its top bin (see DESIGN.md §14).
     */
    HdrHistogram latencyHdr;
    /** Latency of hotspot-class packets (informational). */
    StatAccumulator hotspotLatency;
    /** Log-bucketed latency distribution of hotspot-class packets. */
    HdrHistogram hotspotLatencyHdr;
    /** Hop counts of measured packets. */
    StatAccumulator hops;

    /**
     * Flits of the packets created in the measurement window (every
     * flow class) and flits ejected in it, per terminal per cycle.
     */
    double offeredFlitsPerNodeCycle = 0.0;
    double acceptedFlitsPerNodeCycle = 0.0;

    std::uint64_t measuredCreated = 0;
    std::uint64_t measuredEjected = 0;

    bool drained = false;    ///< every measured packet was ejected
    bool saturated = false;  ///< run aborted / did not drain

    /**
     * Watchdog classification of a non-drained exit: "deadlock",
     * "tree_saturation", or "none" (drained / network empty).
     */
    std::string stallClass = "none";

    /** Invariant violations found by the auditor (0 when audit off). */
    std::uint64_t auditViolations = 0;

    /** Watchdog detections (progress stalls + livelock suspects). */
    std::uint64_t watchdogEvents = 0;

    /** Path of the forensic state dump, when one was written. */
    std::string stateDumpPath;

    /** Path of the footprint.profile/1 document (profile=true). */
    std::string profilePath;

    /** Path of the footprint.heatmap/1 document (heatmap=true). */
    std::string heatmapPath;

    /** Path of the footprint.timeseries/1 stream (timeseries=true). */
    std::string timeseriesPath;

    /**
     * The flight recorder's closed windows, whenever it ran
     * (timeseries, warmup=auto or heatmap); empty otherwise.
     */
    std::vector<WindowRecord> windows;

    /**
     * Cycle at which the steady-state detector converged (end cycle
     * of the first steady window); -1 unless timeseries or
     * warmup=auto asked for the verdict, or when the run never
     * reached steady state.
     */
    std::int64_t steadyStateCycle = -1;

    /**
     * Start cycle of the first sustained window where accepted
     * throughput lagged offered while the in-flight backlog grew
     * (tree-saturation onset); -1 unless timeseries or warmup=auto
     * asked for the verdict, or when no onset was seen.
     */
    std::int64_t saturationOnsetCycle = -1;

    /** Warmup cycles actually applied (differs under warmup=auto). */
    std::int64_t warmupUsed = 0;

    /**
     * True when the measurement window opened before the detector
     * had converged — the measured statistics may carry warmup bias.
     * Only meaningful under timeseries or warmup=auto.
     */
    bool measuredBeforeSteady = false;

    /** Router event counters over the measurement window. */
    Router::Counters counters;

    std::int64_t cyclesRun = 0;

    /**
     * Cycles the event-horizon fast path jumped over instead of
     * ticking (skip_ahead=true). Included in cyclesRun; results are
     * bit-identical to cyclesSkipped == 0.
     */
    std::int64_t cyclesSkipped = 0;

    double avgLatency() const { return latency.mean(); }
};

/**
 * Runs one experiment described by a SimConfig through warmup,
 * measurement and drain, and returns its statistics.
 *
 * Traffic modes (config key "traffic"):
 *  - "uniform" / "transpose" / "shuffle": open-loop Bernoulli injection
 *    at "injection_rate" flits/node/cycle;
 *  - "hotspot": the Table-3 persistent flows at "injection_rate" plus
 *    uniform background at "background_rate" from all other nodes;
 *    only background packets are measured (Fig. 9 methodology);
 *  - "trace": replay "trace_file"; every packet is measured.
 */
RunStats runExperiment(const SimConfig& cfg);

} // namespace footprint

#endif // FOOTPRINT_NETWORK_TRAFFIC_MANAGER_HPP
