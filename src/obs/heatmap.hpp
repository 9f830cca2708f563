/**
 * @file
 * Spatial observatory: aggregates per-link utilization, per-router VC
 * occupancy, footprint size (occupied output VCs), escape-VC usage,
 * and injection backlog into windowed 2-D grids over the mesh — the
 * spatial footprint of congestion trees the paper regulates, resolved
 * in time so a congestion tree can be watched growing and draining.
 *
 * Collection cost model: link utilization is computed from flit-channel
 * sent-counter deltas at window boundaries only (exact and nearly
 * free); occupancy-style gauges are sampled every sampleInterval
 * cycles and averaged per window. The collector does not keep a window
 * clock of its own: the FlightRecorder it is attached to decides where
 * every window starts and ends (timeseries_interval) and closes the
 * heatmap window from its own window close. The collector is strictly
 * read-only over Network state and runs from the serial driver loop,
 * so enabling it cannot change simulation results in any step mode.
 *
 * Export is a schema-versioned footprint.heatmap/1 JSON document with
 * a run-metadata header; tools/render_heatmap.py turns it into ASCII
 * or PNG mesh heatmaps and tools/check_artifact.py validates it in CI.
 */

#ifndef FOOTPRINT_OBS_HEATMAP_HPP
#define FOOTPRINT_OBS_HEATMAP_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace footprint {

class Network;
class SimConfig;
struct RunMetadata;

/** Heatmap collection parameters (heatmap_* config keys). */
struct HeatmapConfig
{
    bool enabled = false;
    /** Output path of the footprint.heatmap/1 document. */
    std::string outPath = "heatmap.json";
    /**
     * Cycles per window: the recorder's timeseries_interval, kept here
     * for the document header and the sampleInterval clamp.
     */
    std::int64_t window = 1000;
    /** Cycles between occupancy-gauge samples within a window. */
    std::int64_t sampleInterval = 8;

    /**
     * Read the heatmap_* keys and timeseries_interval of @p cfg when
     * the heatmap is on (an out-of-range value is fatal there),
     * capping sampleInterval at the window.
     */
    static HeatmapConfig fromSim(const SimConfig& cfg);
};

/**
 * One closed aggregation window: per-node means of the sampled gauges
 * and per-link flits/cycle, all row-major W*H grids.
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
 * Samples per-node gauges and differences per-link sent counters,
 * driven by a FlightRecorder (FlightRecorder::attachHeatmap): the
 * recorder's tick calls sampleThrough and its window close calls
 * closeWindow.
 */
class HeatmapCollector
{
  public:
    /**
     * @param net network to observe; must outlive the collector. The
     *        collector holds per-link sent-count baselines, so build
     *        it before the first observed cycle.
     */
    HeatmapCollector(const Network& net, const HeatmapConfig& cfg);

    bool enabled() const { return cfg_.enabled; }
    const HeatmapConfig& config() const { return cfg_; }

    /**
     * Take every gauge sample due at or before @p cycle (the network
     * has stepped through @p cycle). Samples fall every sampleInterval
     * cycles from the start of the current window. Jump-aware: after a
     * skip-ahead jump the elapsed samples are replayed against the
     * network's frozen quiescent state, exactly as ticking each cycle
     * would have taken them.
     */
    void
    sampleThrough(std::int64_t cycle)
    {
        for (; nextSample_ <= cycle; nextSample_ += cfg_.sampleInterval)
            sampleGauges();
    }

    /**
     * Close the window [@p start, @p end): the FlightRecorder calls
     * this from its own window close, after sampleThrough(end - 1).
     * The next window's sampling grid starts at @p end.
     */
    void closeWindow(std::int64_t start, std::int64_t end);

    const std::vector<HeatmapWindow>& windows() const
    {
        return windows_;
    }

    /** Render the footprint.heatmap/1 document. */
    std::string toJson(const RunMetadata& meta) const;

    /** Write toJson to @p path; false on I/O failure. */
    bool writeTo(const std::string& path, const RunMetadata& meta) const;

  private:
    void sampleGauges();

    const Network& net_;
    HeatmapConfig cfg_;
    int width_ = 0;
    int height_ = 0;
    int nodes_ = 0;
    int escapeVcs_ = 0;

    std::int64_t samples_ = 0;     ///< gauge samples in this window
    std::int64_t nextSample_ = 0;  ///< cycle of the next gauge sample

    // Gauge accumulators (sums over samples, divided at window close).
    std::vector<double> vcOccSum_;
    std::vector<double> fpOccSum_;
    std::vector<double> escOccSum_;
    std::vector<double> injBacklogSum_;

    // Per-link sent-count baselines, index-aligned with
    // Network::links(); deltas at window close give exact counts.
    std::vector<std::uint64_t> linkSentBase_;

    std::vector<HeatmapWindow> windows_;
};

} // namespace footprint

#endif // FOOTPRINT_OBS_HEATMAP_HPP
