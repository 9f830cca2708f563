#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "network/network.hpp"
#include "obs/run_metadata.hpp"
#include "obs/sink.hpp"
#include "obs/trace_event.hpp"
#include "obs/watchdog.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"

namespace footprint {

const char*
vaRegimeName(int priority)
{
    // Indexed by Priority value (routing.hpp): Lowest..Reclaim.
    static const char* kNames[kNumVaRegimes] = {
        "escape", "busy", "footprint", "idle", "reclaim"};
    if (priority < 0 || priority >= kNumVaRegimes)
        return "unknown";
    return kNames[priority];
}

TimeseriesConfig
TimeseriesConfig::fromSim(const SimConfig& cfg)
{
    TimeseriesConfig tc;
    tc.enabled = cfg.getBool("timeseries");
    tc.warmupAuto = cfg.getStr("warmup") == "auto";
    tc.heatmap = cfg.getBool("heatmap");
    // The recorder's keys are read, and so range-checked, only when
    // it runs, and the heatmap's only when the heatmap is on.
    if (!tc.runs())
        return tc;
    tc.outPath = cfg.getStr("timeseries_out");
    tc.interval = cfg.getInt("timeseries_interval");
    tc.steadyWindows = static_cast<int>(cfg.getInt("steady_windows"));
    tc.steadyTolerance = cfg.getDouble("steady_tolerance");
    tc.warmupMax = cfg.getInt("warmup_max_cycles");
    if (tc.heatmap) {
        tc.heatmapOut = cfg.getStr("heatmap_out");
        tc.heatmapSampleInterval =
            std::min(cfg.getInt("heatmap_sample_interval"), tc.interval);
    }
    return tc;
}

double
WindowRecord::offeredRate(int terminals) const
{
    const double denom = static_cast<double>(endCycle - startCycle)
        * static_cast<double>(terminals);
    return denom > 0.0
        ? static_cast<double>(offeredFlits) / denom
        : 0.0;
}

double
WindowRecord::acceptedRate(int terminals) const
{
    const double denom = static_cast<double>(endCycle - startCycle)
        * static_cast<double>(terminals);
    return denom > 0.0
        ? static_cast<double>(acceptedFlits) / denom
        : 0.0;
}

SteadyStateDetector::SteadyStateDetector(int windows, double tolerance)
    : windows_(windows), tolerance_(tolerance)
{
    // The config path rejects both before a recorder is built.
    FP_ASSERT(windows >= 2 && tolerance > 0.0,
              "steady-state detector needs >= 2 windows and a positive "
              "tolerance");
    latencyMeans_.assign(static_cast<std::size_t>(windows_), 0.0);
    acceptedRates_.assign(static_cast<std::size_t>(windows_), 0.0);
}

double
SteadyStateDetector::relativeHalfWidth(const std::vector<double>& ring,
                                       std::size_t filled)
{
    double lo = ring[0];
    double hi = ring[0];
    for (std::size_t i = 1; i < filled; ++i) {
        lo = std::min(lo, ring[i]);
        hi = std::max(hi, ring[i]);
    }
    const double scale = std::max(std::abs(hi), 1e-12);
    return (hi - lo) / (2.0 * scale);
}

void
SteadyStateDetector::addWindow(const WindowRecord& w, int terminals)
{
    if (converged())
        return;
    // A window with no ejected packets cannot witness a steady
    // latency; it resets the trailing evidence (the run is either
    // still filling or fully stalled).
    if (w.latencyCount == 0) {
        filled_ = 0;
        next_ = 0;
        return;
    }
    latencyMeans_[next_] = w.latencyMean;
    acceptedRates_[next_] = w.acceptedRate(terminals);
    next_ = (next_ + 1) % latencyMeans_.size();
    if (filled_ < latencyMeans_.size())
        ++filled_;
    if (filled_ < latencyMeans_.size())
        return;

    lastLatencySpread_ = relativeHalfWidth(latencyMeans_, filled_);
    const double rate_spread =
        relativeHalfWidth(acceptedRates_, filled_);
    if (lastLatencySpread_ <= tolerance_ && rate_spread <= tolerance_)
        steadyCycle_ = w.endCycle;
}

FlightRecorder::FlightRecorder(const Network& net,
                               const TimeseriesConfig& cfg,
                               const RunMetadata& meta)
    : net_(net),
      cfg_(cfg),
      detector_(cfg.steadyWindows, cfg.steadyTolerance)
{
    width_ = net.mesh().width();
    height_ = net.mesh().height();
    nodes_ = net.mesh().numNodes();
    // Rates are per terminal, like RunStats (a cmesh router hosts
    // several); the grids stay per router.
    terminals_ = net.mesh().numTerminals();
    metaJson_ = meta.toJson();

    ejectedBase_ = net.totalFlitsEjected();
    const Router::Counters agg = net.aggregateCounters();
    vaGrantBase_ = agg.vaGrantsByPriority;
    vaFailBase_ = agg.vcAllocFail;
    sentBase_ = net.linkFabric().totalFlitsSent();

    headerCache_ = "{\"schema\":\"footprint.timeseries/1\",\"meta\":";
    headerCache_ += metaJson_;
    headerCache_ += ",\"mesh\":{\"width\":" + std::to_string(width_)
        + ",\"height\":" + std::to_string(height_) + "}"
        + ",\"interval\":" + std::to_string(cfg_.interval)
        + ",\"steady_windows\":" + std::to_string(cfg_.steadyWindows);
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"steady_tolerance\":%.6g}",
                  cfg_.steadyTolerance);
    headerCache_ += buf;

    if (cfg_.enabled && !cfg_.outPath.empty()) {
        stream_ = openArtifact(cfg_.outPath, "timeseries");
        *stream_ << headerCache_ << '\n';
        stream_->flush();
    }
    if (!cfg_.heatmap)
        return;
    heatmapStream_ = openArtifact(cfg_.heatmapOut, "heatmap");
    escapeVcs_ = net.routing().numEscapeVcs();
    openHeatmapWindow();
    // Baselines come from the fabric's flat sent lane (one contiguous
    // read per link) rather than chasing per-channel objects.
    linkSentBase_.reserve(net.links().size());
    for (const Network::LinkRecord& l : net.links())
        linkSentBase_.push_back(net.linkFabric().flitSent(l.flitId));
}

void
FlightRecorder::attachChromeTrace(ChromeTraceWriter* writer)
{
    chrome_ = writer;
    if (chrome_)
        chrome_->processName(2, "network");
}

void
FlightRecorder::onCountersReset()
{
    // Network::resetCounters() zeroed the per-router counters; the
    // per-window deltas must re-baseline at zero or the next window
    // would underflow. Ejected-flit totals are monotone and survive
    // the reset untouched on the endpoint side, but re-read them too
    // in case the driver reset those as well.
    ejectedBase_ = net_.totalFlitsEjected();
    const Router::Counters agg = net_.aggregateCounters();
    vaGrantBase_ = agg.vaGrantsByPriority;
    vaFailBase_ = agg.vcAllocFail;
}

void
FlightRecorder::openHeatmapWindow()
{
    grid_ = HeatmapWindow{};
    for (std::vector<double>* g :
         {&grid_.linkUtil[0], &grid_.linkUtil[1], &grid_.linkUtil[2],
          &grid_.linkUtil[3], &grid_.injectUtil, &grid_.ejectUtil,
          &grid_.vcOcc, &grid_.fpOcc, &grid_.escOcc, &grid_.injBacklog})
        g->assign(static_cast<std::size_t>(nodes_), 0.0);
}

void
FlightRecorder::sampleGauges()
{
    ++grid_.samples;
    for (int node = 0; node < nodes_; ++node) {
        const auto i = static_cast<std::size_t>(node);
        const Router& r = net_.router(node);
        grid_.vcOcc[i] += static_cast<double>(r.inputBufferedFlits());
        grid_.fpOcc[i] += static_cast<double>(r.occupiedOutVcs());
        if (escapeVcs_ > 0) {
            grid_.escOcc[i] += static_cast<double>(
                r.occupiedOutVcsBelow(escapeVcs_));
        }
        grid_.injBacklog[i] += static_cast<double>(
            net_.endpoint(node).sourceBacklogFlits());
    }
}

void
FlightRecorder::closeHeatmapWindow(std::int64_t end_cycle)
{
    HeatmapWindow& w = grid_;
    w.startCycle = windowStart_;
    w.endCycle = end_cycle;
    // The gauge grids hold sums over the window's samples.
    const double inv_samples =
        w.samples > 0 ? 1.0 / static_cast<double>(w.samples) : 0.0;
    for (std::vector<double>* g :
         {&w.vcOcc, &w.fpOcc, &w.escOcc, &w.injBacklog}) {
        for (double& v : *g)
            v *= inv_samples;
    }

    const double cycles = static_cast<double>(end_cycle - windowStart_);
    const std::vector<Network::LinkRecord>& links = net_.links();
    for (std::size_t li = 0; li < links.size(); ++li) {
        const Network::LinkRecord& l = links[li];
        const std::uint64_t sent = net_.linkFabric().flitSent(l.flitId);
        const double flits =
            static_cast<double>(sent - linkSentBase_[li]);
        linkSentBase_[li] = sent;
        const double util = cycles > 0.0 ? flits / cycles : 0.0;
        const auto src = static_cast<std::size_t>(l.srcNode);
        switch (l.kind) {
        case Network::LinkRecord::Kind::RouterToRouter:
            // srcPort names the outgoing direction (E/W/N/S).
            w.linkUtil[l.srcPort][src] += util;
            break;
        case Network::LinkRecord::Kind::EndpointToRouter:
            w.injectUtil[src] += util;
            break;
        case Network::LinkRecord::Kind::RouterToEndpoint:
            w.ejectUtil[src] += util;
            break;
        }
    }

    heatmapWindows_.push_back(std::move(w));
    openHeatmapWindow();
    nextSample_ = end_cycle;
}

void
FlightRecorder::closeWindow(std::int64_t end_cycle)
{
    if (cfg_.heatmap) {
        sampleThrough(end_cycle - 1);
        closeHeatmapWindow(end_cycle);
    }

    WindowRecord w;
    w.index = windowIndex_++;
    w.startCycle = windowStart_;
    w.endCycle = end_cycle;

    w.offeredFlits = offeredFlits_;
    const std::uint64_t ejected = net_.totalFlitsEjected();
    w.acceptedFlits = ejected - ejectedBase_;
    ejectedBase_ = ejected;
    w.packetsEjected = packetsEjected_;

    w.latencyCount = windowHist_.count();
    w.latencyMean = windowHist_.mean();
    w.latencyP50 = windowHist_.percentile(0.50);
    w.latencyP99 = windowHist_.percentile(0.99);
    w.latencyP999 = windowHist_.percentile(0.999);
    w.latencyMax = windowHist_.max();
    mergedHist_.merge(windowHist_);
    windowHist_.reset();

    w.flitsInFlight = net_.totalFlitsInFlight();
    int active = 0;
    for (int node = 0; node < nodes_; ++node) {
        const Router& r = net_.router(node);
        const Endpoint& e = net_.endpoint(node);
        if (r.hasPendingWork() || e.hasPendingWork())
            ++active;
        w.vcOcc += r.inputBufferedFlits();
        w.fpOcc += r.occupiedOutVcs();
        w.injBacklog += e.sourceBacklogFlits();
    }
    w.activeNodes = active;
    const std::uint64_t sent = net_.linkFabric().totalFlitsSent();
    w.linkUtil = static_cast<double>(sent - sentBase_)
        / (static_cast<double>(net_.linkFabric().flitCount())
           * static_cast<double>(end_cycle - windowStart_));
    sentBase_ = sent;

    const Router::Counters agg = net_.aggregateCounters();
    for (int p = 0; p < kNumVaRegimes; ++p) {
        const auto i = static_cast<std::size_t>(p);
        w.vaGrants[i] = agg.vaGrantsByPriority[i] - vaGrantBase_[i];
        vaGrantBase_[i] = agg.vaGrantsByPriority[i];
    }
    w.vaFails = agg.vcAllocFail - vaFailBase_;
    vaFailBase_ = agg.vcAllocFail;

    if (watchdog_) {
        const std::uint64_t total = watchdog_->events().size();
        w.watchdogEvents = total - watchdogBase_;
        watchdogBase_ = total;
    }

    detector_.addWindow(w, terminals_);

    if (stream_) {
        *stream_ << windowJson(w) << '\n';
        stream_->flush();
    }
    if (chrome_) {
        const std::pair<const char*, double> counters[] = {
            {"in_flight", static_cast<double>(w.flitsInFlight)},
            {"vc_occ", static_cast<double>(w.vcOcc)},
            {"fp_occ", static_cast<double>(w.fpOcc)},
            {"inj_backlog", static_cast<double>(w.injBacklog)},
            {"link_util", w.linkUtil}};
        for (const auto& [name, value] : counters)
            chrome_->counterEvent(name, 2, w.endCycle, value);
    }
    windows_.push_back(w);

    offeredFlits_ = 0;
    packetsEjected_ = 0;
    windowStart_ = end_cycle;
}

void
FlightRecorder::finish(std::int64_t cycle)
{
    if (cycle > windowStart_)
        closeWindow(cycle);
    if (stream_)
        stream_->flush();
    if (heatmapStream_
        && !(*heatmapStream_ << heatmapJson() << std::flush))
        fatal("failed writing heatmap file: " + cfg_.heatmapOut);
}

std::int64_t
FlightRecorder::saturationOnsetCycle() const
{
    // Saturation onset: offered load sustainedly exceeds what the
    // network accepts while the in-flight backlog keeps growing. Two
    // consecutive windows are required so a single bursty window
    // (e.g. a drain hiccup) does not read as collapse.
    const double tol = 0.05;
    int streak = 0;
    for (std::size_t i = 1; i < windows_.size(); ++i) {
        const WindowRecord& w = windows_[i];
        const bool lagging = w.offeredFlits > 0
            && static_cast<double>(w.acceptedFlits)
                < static_cast<double>(w.offeredFlits) * (1.0 - tol);
        const bool growing =
            w.flitsInFlight > windows_[i - 1].flitsInFlight;
        if (lagging && growing) {
            if (++streak >= 2) {
                return windows_[i + 1 - static_cast<std::size_t>(streak)]
                    .startCycle;
            }
        } else {
            streak = 0;
        }
    }
    return -1;
}

std::string
FlightRecorder::headerJson() const
{
    return headerCache_;
}

std::string
FlightRecorder::windowJson(const WindowRecord& w) const
{
    char buf[64];
    std::string out = "{\"window\":" + std::to_string(w.index)
        + ",\"start\":" + std::to_string(w.startCycle)
        + ",\"end\":" + std::to_string(w.endCycle)
        + ",\"offered_flits\":" + std::to_string(w.offeredFlits)
        + ",\"accepted_flits\":" + std::to_string(w.acceptedFlits)
        + ",\"packets\":" + std::to_string(w.packetsEjected);

    std::snprintf(buf, sizeof(buf), ",\"offered_rate\":%.6g",
                  w.offeredRate(terminals_));
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"accepted_rate\":%.6g",
                  w.acceptedRate(terminals_));
    out += buf;

    out += ",\"latency\":{\"count\":" + std::to_string(w.latencyCount);
    std::snprintf(buf, sizeof(buf), ",\"mean\":%.6g", w.latencyMean);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"p50\":%.6g", w.latencyP50);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"p99\":%.6g", w.latencyP99);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"p999\":%.6g", w.latencyP999);
    out += buf;
    out += ",\"max\":" + std::to_string(w.latencyMax) + "}";

    out += ",\"in_flight\":" + std::to_string(w.flitsInFlight)
        + ",\"active_nodes\":" + std::to_string(w.activeNodes);

    out += ",\"va_grants\":{";
    for (int p = 0; p < kNumVaRegimes; ++p) {
        if (p > 0)
            out += ',';
        out += '"';
        out += vaRegimeName(p);
        out += "\":"
            + std::to_string(w.vaGrants[static_cast<std::size_t>(p)]);
    }
    out += "}";
    out += ",\"va_fails\":" + std::to_string(w.vaFails)
        + ",\"watchdog_events\":" + std::to_string(w.watchdogEvents)
        + ",\"vc_occ\":" + std::to_string(w.vcOcc)
        + ",\"fp_occ\":" + std::to_string(w.fpOcc)
        + ",\"inj_backlog\":" + std::to_string(w.injBacklog);
    std::snprintf(buf, sizeof(buf), ",\"link_util\":%.6g}", w.linkUtil);
    out += buf;
    return out;
}

namespace {

void
appendGrid(std::string& out, const char* name,
           const std::vector<double>& grid, bool leading_comma)
{
    if (leading_comma)
        out += ',';
    out += '"';
    out += name;
    out += "\":[";
    char buf[32];
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (i > 0)
            out += ',';
        std::snprintf(buf, sizeof(buf), "%.4g", grid[i]);
        out += buf;
    }
    out += ']';
}

} // namespace

std::string
FlightRecorder::heatmapJson() const
{
    std::string out = "{\"schema\":\"footprint.heatmap/1\",\"meta\":";
    out += metaJson_;
    out += ",\"mesh\":{\"width\":" + std::to_string(width_)
        + ",\"height\":" + std::to_string(height_) + "}";
    out += ",\"window\":" + std::to_string(cfg_.interval)
        + ",\"sample_interval\":"
        + std::to_string(cfg_.heatmapSampleInterval);
    out += ",\"metrics\":[\"link_util\",\"inject_util\","
           "\"eject_util\",\"vc_occ\",\"fp_occ\",\"esc_occ\","
           "\"inj_backlog\"]";
    out += ",\"windows\":[";
    static const char* kDirNames[4] = {"east", "west", "north",
                                       "south"};
    for (std::size_t wi = 0; wi < heatmapWindows_.size(); ++wi) {
        const HeatmapWindow& w = heatmapWindows_[wi];
        if (wi > 0)
            out += ',';
        out += "{\"start\":" + std::to_string(w.startCycle)
            + ",\"end\":" + std::to_string(w.endCycle)
            + ",\"samples\":" + std::to_string(w.samples)
            + ",\"link_util\":{";
        for (int d = 0; d < 4; ++d)
            appendGrid(out, kDirNames[d], w.linkUtil[d], d > 0);
        out += '}';
        appendGrid(out, "inject_util", w.injectUtil, true);
        appendGrid(out, "eject_util", w.ejectUtil, true);
        appendGrid(out, "vc_occ", w.vcOcc, true);
        appendGrid(out, "fp_occ", w.fpOcc, true);
        appendGrid(out, "esc_occ", w.escOcc, true);
        appendGrid(out, "inj_backlog", w.injBacklog, true);
        out += '}';
    }
    out += "]}\n";
    return out;
}

} // namespace footprint
