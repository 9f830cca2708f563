/**
 * @file
 * Streaming time-series flight recorder (DESIGN.md §15): every
 * timeseries_interval cycles the recorder closes a window capturing
 * offered/accepted throughput, windowed latency percentiles (per-window
 * mergeable HdrHistogram), in-flight flits, active-node count, the
 * per-regime VC-allocation grant counts that make Footprint's
 * Algorithm-1 regime transitions visible over time, watchdog stall
 * pressure, and the network-wide occupancy gauges (buffered flits,
 * footprint lanes, source backlog, link utilization) — and appends it
 * as one self-contained JSONL record to a schema-versioned
 * footprint.timeseries/1 stream. Append-per-window with an immediate
 * flush means a multi-hour run can be watched with `tail -f` and a
 * crashed run leaves every closed window intact.
 *
 * The recorder is the simulator's one windowed observer: with the
 * heatmap on it also keeps the spatial grids (DESIGN.md §14) and
 * writes them as a footprint.heatmap/1 document at finish, and an
 * attached chrome trace receives each window's aggregates as counter
 * tracks.
 *
 * On top of the window stream sit two consumers:
 *  - SteadyStateDetector: an online windowed-mean convergence test
 *    (relative half-width of the trailing K window means of latency
 *    and accepted throughput, MSER-style) that records the first cycle
 *    at which the run is statistically steady — so a measurement
 *    window that started before convergence is flagged instead of
 *    silently biasing results, and warmup=auto can end warmup exactly
 *    at convergence;
 *  - saturation-onset extraction: the first window where accepted
 *    throughput falls below offered while the in-flight backlog keeps
 *    growing — the temporal signature of tree-saturation onset
 *    (paper Fig. 2) — sustained for two consecutive windows.
 *
 * Determinism contract: the recorder is driven from the serial driver
 * loop (runExperiment) and consumes only step-mode-invariant inputs
 * (packet events from the serial collect loop, counter deltas and
 * gauge reads at window boundaries and sample cycles), so its window
 * records and grids — and hence every detector decision, including
 * the warmup=auto end cycle — are bit-identical across
 * full/activity/sharded stepping for any thread count. Disabled, it
 * costs the driver one null check per cycle.
 */

#ifndef FOOTPRINT_OBS_TIMESERIES_HPP
#define FOOTPRINT_OBS_TIMESERIES_HPP

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/hdr_histogram.hpp"

namespace footprint {

class ChromeTraceWriter;
class Network;
class SimConfig;
class Watchdog;
struct RunMetadata;

/** Number of Priority regimes a VC-allocation grant can fall into. */
inline constexpr int kNumVaRegimes = 5;

/** JSON field names of the VA regimes, indexed by Priority value. */
const char* vaRegimeName(int priority);

/** Flight-recorder parameters (timeseries_* / steady_* / heatmap_*). */
struct TimeseriesConfig
{
    /**
     * Stream windows to outPath as footprint.timeseries/1 JSONL; an
     * empty outPath records the windows in memory only.
     */
    bool enabled = false;
    std::string outPath = "timeseries.jsonl";
    /** Cycles per window (the heatmap's windows too). */
    std::int64_t interval = 1000;

    // Steady-state detector (active whenever the recorder runs).
    /** Trailing windows whose means must agree for convergence. */
    int steadyWindows = 8;
    /** Maximum relative half-width of the trailing means. */
    double steadyTolerance = 0.02;

    /** warmup=auto: extend warmup until the detector converges. */
    bool warmupAuto = false;
    /** Hard cap on auto-extended warmup (warmup_max_cycles). */
    std::int64_t warmupMax = 50000;

    /** Keep the spatial grids and write them to heatmapOut. */
    bool heatmap = false;
    std::string heatmapOut = "heatmap.json";
    /** Cycles between gauge samples, at most one window. */
    std::int64_t heatmapSampleInterval = 8;

    /**
     * Read the recorder's keys of @p cfg when it runs (runs()), and
     * the heatmap_* keys when the heatmap is on; an out-of-range value
     * is fatal there. runExperiment checks the rules that span keys or
     * need a strict bound.
     */
    static TimeseriesConfig fromSim(const SimConfig& cfg);

    /** True when the run gets the steady-state verdict. */
    bool active() const { return enabled || warmupAuto; }

    /** True when a FlightRecorder must run: active() or the heatmap. */
    bool runs() const { return active() || heatmap; }
};

/** One closed aggregation window of the flight recorder. */
struct WindowRecord
{
    std::int64_t index = 0;
    std::int64_t startCycle = 0;
    std::int64_t endCycle = 0;  ///< exclusive

    /** Flits entering source queues during the window (offered). */
    std::uint64_t offeredFlits = 0;
    /** Flits drained from ejection sinks during the window. */
    std::uint64_t acceptedFlits = 0;
    /** Packets fully ejected during the window. */
    std::uint64_t packetsEjected = 0;

    // Windowed latency distribution of packets ejected in the window
    // (midpoint-of-bucket quantiles from the per-window HdrHistogram).
    std::uint64_t latencyCount = 0;
    double latencyMean = 0.0;
    double latencyP50 = 0.0;
    double latencyP99 = 0.0;
    double latencyP999 = 0.0;
    std::uint64_t latencyMax = 0;

    /** Flits anywhere in the system at window close. */
    std::int64_t flitsInFlight = 0;
    /** Nodes whose router or endpoint has pending work at close. */
    int activeNodes = 0;

    /** VC-allocation grants per priority regime during the window. */
    std::array<std::uint64_t, kNumVaRegimes> vaGrants{};
    /** VC-allocation blocking events during the window. */
    std::uint64_t vaFails = 0;

    /** Watchdog detections (stalls + livelock suspects) in window. */
    std::uint64_t watchdogEvents = 0;

    // Network-wide gauges read at window close, like flitsInFlight.
    /** Flits buffered in router input VCs. */
    std::int64_t vcOcc = 0;
    /** Occupied output VCs over all routers (footprint lanes). */
    std::int64_t fpOcc = 0;
    /** Flits waiting in endpoint source queues. */
    std::int64_t injBacklog = 0;
    /** Flits sent per flit channel per cycle over the window. */
    double linkUtil = 0.0;

    bool operator==(const WindowRecord&) const = default;

    /** Offered flits per terminal per cycle over the window. */
    double offeredRate(int terminals) const;
    /** Accepted flits per terminal per cycle over the window. */
    double acceptedRate(int terminals) const;
};

/**
 * One closed window of the spatial grids: per-node means of the
 * sampled gauges and per-link flits/cycle, all row-major W*H grids.
 */
struct HeatmapWindow
{
    std::int64_t startCycle = 0;
    std::int64_t endCycle = 0;    ///< exclusive
    std::int64_t samples = 0;     ///< gauge samples in this window

    /** Mean flits/cycle leaving each node per direction (E/W/N/S). */
    std::vector<double> linkUtil[4];
    /** Mean flits/cycle node->router (inject) and router->node. */
    std::vector<double> injectUtil;
    std::vector<double> ejectUtil;

    /** Mean flits buffered in each router's input VCs. */
    std::vector<double> vcOcc;
    /** Mean occupied output VCs per router (footprint size). */
    std::vector<double> fpOcc;
    /** Mean occupied escape output VCs per router. */
    std::vector<double> escOcc;
    /** Mean flits backlogged in each endpoint's source queue. */
    std::vector<double> injBacklog;
};

/**
 * Online steady-state detector: feeds on closed windows and reports
 * the first cycle at which the trailing steadyWindows window means of
 * both latency and accepted throughput have relative half-width
 * (max-min)/(2*mean) within steadyTolerance. Pure integer/double
 * arithmetic over deterministic inputs — the detected cycle is part of
 * the determinism contract.
 */
class SteadyStateDetector
{
  public:
    /** Requires @p windows >= 2 and @p tolerance > 0. */
    SteadyStateDetector(int windows, double tolerance);

    /** Observe one closed window of a run with @p terminals. */
    void addWindow(const WindowRecord& w, int terminals);

    bool converged() const { return steadyCycle_ >= 0; }

    /** End cycle of the first converged window; -1 until converged. */
    std::int64_t steadyCycle() const { return steadyCycle_; }

    /** Relative half-width of the trailing latency means (debug). */
    double lastLatencySpread() const { return lastLatencySpread_; }

  private:
    static double relativeHalfWidth(const std::vector<double>& ring,
                                    std::size_t filled);

    int windows_;
    double tolerance_;
    std::vector<double> latencyMeans_;   ///< ring of trailing means
    std::vector<double> acceptedRates_;  ///< ring of trailing rates
    std::size_t next_ = 0;
    std::size_t filled_ = 0;
    std::int64_t steadyCycle_ = -1;
    double lastLatencySpread_ = 0.0;
};

/**
 * The flight recorder proper. Construct against a Network (must
 * outlive it), feed per-cycle events from the serial driver loop, and
 * call tick() after every Network::step; windows close themselves on
 * their interval boundary and stream out immediately.
 */
class FlightRecorder
{
  public:
    /**
     * Opens the stream and the heatmap file its config names (an
     * unopenable path is fatal) and takes the per-link sent-count
     * baselines, so build it before the first observed cycle.
     * @param net  network to observe.
     * @param cfg  recorder parameters; cfg.runs() should be true.
     * @param meta run metadata stamped onto both artifacts.
     */
    FlightRecorder(const Network& net, const TimeseriesConfig& cfg,
                   const RunMetadata& meta);

    const TimeseriesConfig& config() const { return cfg_; }

    /** Observe the watchdog (may be null) for stall-pressure counts. */
    void setWatchdog(const Watchdog* watchdog)
    {
        watchdog_ = watchdog;
    }

    /**
     * Write each closed window's network-wide aggregates onto
     * @p writer (borrowed; null detaches) as counter tracks.
     */
    void attachChromeTrace(ChromeTraceWriter* writer);

    /** A packet of @p flits flits entered a source queue. */
    void onOffered(int flits)
    {
        offeredFlits_ += static_cast<std::uint64_t>(flits);
    }

    /** A packet fully ejected with the given latency. */
    void
    onEjected(std::int64_t latency)
    {
        ++packetsEjected_;
        windowHist_.add(latency < 0
                            ? std::uint64_t{0}
                            : static_cast<std::uint64_t>(latency));
    }

    /**
     * The driver reset the network's event counters (measurement
     * start): re-baseline the per-window counter deltas.
     */
    void onCountersReset();

    /**
     * Per-cycle hook; call after Network::step for cycle @p cycle.
     * Jump-aware: @p cycle may be arbitrarily far past the last tick
     * (skip-ahead over a quiescent span). Every elapsed window
     * boundary closes in order at its exact boundary cycle — skipped
     * spans contribute empty windows (zero offered/accepted, counter
     * deltas of zero, gauges of the frozen state), byte-identical to
     * ticking through the span cycle by cycle. With the heatmap on,
     * it then takes the gauge samples due through @p cycle; a window
     * close first takes those due before its boundary, so a jump
     * replays every sample against the frozen state.
     */
    void
    tick(std::int64_t cycle)
    {
        while (cycle + 1 - windowStart_ >= cfg_.interval)
            closeWindow(windowStart_ + cfg_.interval);
        if (cfg_.heatmap)
            sampleThrough(cycle);
    }

    /** First cycle at which tick() would close a window. */
    std::int64_t
    nextWindowBoundary() const
    {
        return windowStart_ + cfg_.interval - 1;
    }

    /**
     * Close any partial trailing window, flush the stream and, with
     * the heatmap on, write heatmapJson() to heatmapOut.
     */
    void finish(std::int64_t cycle);

    const std::vector<WindowRecord>& windows() const
    {
        return windows_;
    }

    /** The closed grid windows; empty with the heatmap off. */
    const std::vector<HeatmapWindow>& heatmapWindows() const
    {
        return heatmapWindows_;
    }

    const SteadyStateDetector& detector() const { return detector_; }

    /** End cycle of first steady window; -1 if never converged. */
    std::int64_t steadyCycle() const { return detector_.steadyCycle(); }

    /**
     * Start cycle of the first of >=2 consecutive windows where
     * accepted throughput lags offered while the in-flight backlog
     * grows; -1 when the run never showed saturation onset.
     */
    std::int64_t saturationOnsetCycle() const;

    /**
     * All per-window latency histograms merged (same totals as one
     * run-wide histogram — the mergeability property tests pin down).
     */
    const HdrHistogram& mergedLatencyHist() const
    {
        return mergedHist_;
    }

    /** The stream header line (schema + meta + geometry). */
    std::string headerJson() const;

    /** One window as its JSONL record (no trailing newline). */
    std::string windowJson(const WindowRecord& w) const;

    /** The footprint.heatmap/1 document of the closed grid windows. */
    std::string heatmapJson() const;

  private:
    void closeWindow(std::int64_t end_cycle);

    /** Take every gauge sample due at or before @p cycle. */
    void
    sampleThrough(std::int64_t cycle)
    {
        for (; nextSample_ <= cycle;
             nextSample_ += cfg_.heatmapSampleInterval)
            sampleGauges();
    }
    void openHeatmapWindow();
    void sampleGauges();
    void closeHeatmapWindow(std::int64_t end_cycle);

    const Network& net_;
    TimeseriesConfig cfg_;
    const Watchdog* watchdog_ = nullptr;
    ChromeTraceWriter* chrome_ = nullptr;
    int nodes_ = 0;      ///< routers: the gauge loops and the grids
    int terminals_ = 0;  ///< the basis of the window rates
    int width_ = 0;
    int height_ = 0;
    int escapeVcs_ = 0;
    std::string metaJson_;

    std::int64_t windowStart_ = 0;
    std::int64_t windowIndex_ = 0;

    // In-window accumulators.
    std::uint64_t offeredFlits_ = 0;
    std::uint64_t packetsEjected_ = 0;
    HdrHistogram windowHist_;
    HdrHistogram mergedHist_;

    // Baselines for exact end-of-window deltas.
    std::uint64_t ejectedBase_ = 0;
    std::array<std::uint64_t, kNumVaRegimes> vaGrantBase_{};
    std::uint64_t vaFailBase_ = 0;
    std::uint64_t watchdogBase_ = 0;
    std::uint64_t sentBase_ = 0;

    SteadyStateDetector detector_;
    std::vector<WindowRecord> windows_;

    // Heatmap grids (cfg.heatmap): the open window, whose gauge grids
    // hold sums until its close divides them, and per-link sent-count
    // baselines, index-aligned with Network::links().
    HeatmapWindow grid_;
    std::int64_t nextSample_ = 0;
    std::vector<std::uint64_t> linkSentBase_;
    std::vector<HeatmapWindow> heatmapWindows_;

    std::string headerCache_;  ///< emitted stream header line
    std::unique_ptr<std::ofstream> stream_;  ///< null when not streaming
    std::unique_ptr<std::ofstream> heatmapStream_;  ///< null when off
};

} // namespace footprint

#endif // FOOTPRINT_OBS_TIMESERIES_HPP
