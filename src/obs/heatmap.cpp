#include "obs/heatmap.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "network/network.hpp"
#include "obs/run_metadata.hpp"
#include "obs/timeseries.hpp"
#include "sim/config.hpp"

namespace footprint {

HeatmapConfig
HeatmapConfig::fromSim(const SimConfig& cfg)
{
    HeatmapConfig hc;
    hc.enabled = cfg.getBool("heatmap");
    if (!hc.enabled)
        return hc;
    hc.outPath = cfg.getStr("heatmap_out");
    hc.window = TimeseriesConfig::fromSim(cfg).interval;
    hc.sampleInterval = std::min(cfg.getInt("heatmap_sample_interval"),
                                 hc.window);
    return hc;
}

HeatmapCollector::HeatmapCollector(const Network& net,
                                   const HeatmapConfig& cfg)
    : net_(net), cfg_(cfg)
{
    if (!cfg_.enabled)
        return;
    width_ = net.mesh().width();
    height_ = net.mesh().height();
    nodes_ = net.mesh().numNodes();
    escapeVcs_ = net.routing().numEscapeVcs();

    const auto n = static_cast<std::size_t>(nodes_);
    vcOccSum_.assign(n, 0.0);
    fpOccSum_.assign(n, 0.0);
    escOccSum_.assign(n, 0.0);
    injBacklogSum_.assign(n, 0.0);

    // Baselines come from the fabric's flat sent lane (one contiguous
    // read per link) rather than chasing per-channel objects.
    linkSentBase_.reserve(net.links().size());
    for (const Network::LinkRecord& l : net.links())
        linkSentBase_.push_back(net.linkFabric().flitSent(l.flitId));
}

void
HeatmapCollector::sampleGauges()
{
    ++samples_;
    for (int node = 0; node < nodes_; ++node) {
        const auto i = static_cast<std::size_t>(node);
        const Router& r = net_.router(node);
        vcOccSum_[i] += static_cast<double>(r.inputBufferedFlits());
        fpOccSum_[i] += static_cast<double>(r.occupiedOutVcs());
        if (escapeVcs_ > 0) {
            escOccSum_[i] += static_cast<double>(
                r.occupiedOutVcsBelow(escapeVcs_));
        }
        injBacklogSum_[i] += static_cast<double>(
            net_.endpoint(node).sourceBacklogFlits());
    }
}

void
HeatmapCollector::closeWindow(std::int64_t start, std::int64_t end)
{
    HeatmapWindow w;
    w.startCycle = start;
    w.endCycle = end;
    w.samples = samples_;

    const auto n = static_cast<std::size_t>(nodes_);
    const double cycles = static_cast<double>(end - start);
    const double inv_samples =
        samples_ > 0 ? 1.0 / static_cast<double>(samples_) : 0.0;

    w.vcOcc.resize(n);
    w.fpOcc.resize(n);
    w.escOcc.resize(n);
    w.injBacklog.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        w.vcOcc[i] = vcOccSum_[i] * inv_samples;
        w.fpOcc[i] = fpOccSum_[i] * inv_samples;
        w.escOcc[i] = escOccSum_[i] * inv_samples;
        w.injBacklog[i] = injBacklogSum_[i] * inv_samples;
        vcOccSum_[i] = fpOccSum_[i] = escOccSum_[i] =
            injBacklogSum_[i] = 0.0;
    }

    for (auto& grid : w.linkUtil)
        grid.assign(n, 0.0);
    w.injectUtil.assign(n, 0.0);
    w.ejectUtil.assign(n, 0.0);
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

    windows_.push_back(std::move(w));
    samples_ = 0;
    nextSample_ = end;
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
HeatmapCollector::toJson(const RunMetadata& meta) const
{
    std::string out = "{\"schema\":\"footprint.heatmap/1\",\"meta\":";
    out += meta.toJson();
    out += ",\"mesh\":{\"width\":" + std::to_string(width_)
        + ",\"height\":" + std::to_string(height_) + "}";
    out += ",\"window\":" + std::to_string(cfg_.window)
        + ",\"sample_interval\":"
        + std::to_string(cfg_.sampleInterval);
    out += ",\"metrics\":[\"link_util\",\"inject_util\","
           "\"eject_util\",\"vc_occ\",\"fp_occ\",\"esc_occ\","
           "\"inj_backlog\"]";
    out += ",\"windows\":[";
    static const char* kDirNames[4] = {"east", "west", "north",
                                       "south"};
    for (std::size_t wi = 0; wi < windows_.size(); ++wi) {
        const HeatmapWindow& w = windows_[wi];
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

bool
HeatmapCollector::writeTo(const std::string& path,
                          const RunMetadata& meta) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << toJson(meta);
    return static_cast<bool>(os);
}

} // namespace footprint
