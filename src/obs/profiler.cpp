#include "obs/profiler.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/run_metadata.hpp"
#include "obs/sink.hpp"

namespace footprint {

const char*
profPhaseName(ProfPhase p)
{
    switch (p) {
    case ProfPhase::Inject:
        return "inject";
    case ProfPhase::Drain:
        return "drain";
    case ProfPhase::Compute:
        return "compute";
    case ProfPhase::Transmit:
        return "transmit";
    case ProfPhase::Epilogue:
        return "epilogue";
    case ProfPhase::Collect:
        return "collect";
    case ProfPhase::Skip:
        return "skip";
    case ProfPhase::Link:
        return "link";
    case ProfPhase::Count:
        break;
    }
    return "unknown";
}

void
Profiler::configureSharded(int shards, int chunks, int threads)
{
    shardBusyNs_.assign(static_cast<std::size_t>(shards), 0);
    chunkWaitNs_.assign(static_cast<std::size_t>(chunks), 0);
    scratch_.assign(static_cast<std::size_t>(chunks), ChunkScratch{});
    // Sized here; the Network reports its bands right after.
    bandStarts_.assign(static_cast<std::size_t>(shards), 0);
    recuts_ = 0;
    threads_ = threads;
}

void
Profiler::setShardBands(std::span<const int> starts,
                        std::uint64_t recuts)
{
    // Same size as configured, so re-cuts never allocate here.
    bandStarts_.assign(starts.begin(), starts.end());
    recuts_ = recuts;
}

void
Profiler::mergeCycleScratch()
{
    for (std::size_t c = 0; c < scratch_.size(); ++c) {
        ChunkScratch& s = scratch_[c];
        for (int i = 0; i < s.count; ++i) {
            barrierHist_.add(s.waitNs[i]);
            chunkWaitNs_[c] += s.waitNs[i];
        }
        s.count = 0;
    }
}

double
Profiler::imbalanceRatio() const
{
    if (shardBusyNs_.empty())
        return 0.0;
    std::uint64_t max = 0;
    std::uint64_t sum = 0;
    for (const std::uint64_t ns : shardBusyNs_) {
        max = max < ns ? ns : max;
        sum += ns;
    }
    if (sum == 0)
        return 0.0;
    const double mean = static_cast<double>(sum)
        / static_cast<double>(shardBusyNs_.size());
    return static_cast<double>(max) / mean;
}

namespace {

void
appendF(std::string& out, const char* fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    out += buf;
}

} // namespace

std::string
Profiler::toJsonRow(const std::string& name, const std::string& mode,
                    int threads) const
{
    std::uint64_t total_ns = 0;
    for (const std::uint64_t ns : phaseNs_)
        total_ns += ns;

    std::string out = "{\"name\":\"" + jsonEscape(name)
        + "\",\"mode\":\"" + jsonEscape(mode) + "\",\"threads\":"
        + std::to_string(threads) + ",\"cycles\":"
        + std::to_string(cycles_) + ",\"wall_seconds\":";
    appendF(out, "%.6f", runSeconds());
    out += ",\"cycles_per_sec\":";
    appendF(out, "%.1f",
            runNs_ > 0 ? static_cast<double>(cycles_)
                    / (static_cast<double>(runNs_) * 1e-9)
                       : 0.0);
    out += ",\"phases\":[";
    for (int p = 0; p < static_cast<int>(ProfPhase::Count); ++p) {
        if (p > 0)
            out += ',';
        const auto phase = static_cast<ProfPhase>(p);
        out += "{\"name\":\"";
        out += profPhaseName(phase);
        out += "\",\"seconds\":";
        appendF(out, "%.6f", phaseSeconds(phase));
        out += ",\"calls\":" + std::to_string(phaseCalls(phase))
            + ",\"share\":";
        appendF(out, "%.4f",
                total_ns > 0
                    ? static_cast<double>(
                          phaseNs_[static_cast<std::size_t>(p)])
                        / static_cast<double>(total_ns)
                    : 0.0);
        out += '}';
    }
    out += ']';

    if (sharded()) {
        out += ",\"sharded\":{\"shards\":"
            + std::to_string(shardBusyNs_.size()) + ",\"chunks\":"
            + std::to_string(chunkWaitNs_.size()) + ",\"threads\":"
            + std::to_string(threads_) + ",\"shard_busy_seconds\":[";
        for (std::size_t s = 0; s < shardBusyNs_.size(); ++s) {
            if (s > 0)
                out += ',';
            appendF(out, "%.6f",
                    shardBusySeconds(static_cast<int>(s)));
        }
        out += "],\"imbalance_ratio\":";
        appendF(out, "%.4f", imbalanceRatio());
        out += ",\"barrier_wait\":{\"count\":"
            + std::to_string(barrierHist_.count());
        out += ",\"p50_ns\":";
        appendF(out, "%.0f", barrierHist_.percentile(0.50));
        out += ",\"p99_ns\":";
        appendF(out, "%.0f", barrierHist_.percentile(0.99));
        out += ",\"p999_ns\":";
        appendF(out, "%.0f", barrierHist_.percentile(0.999));
        out += ",\"max_ns\":"
            + std::to_string(barrierHist_.max()) + "}";
        out += ",\"band_starts\":[";
        for (std::size_t s = 0; s < bandStarts_.size(); ++s) {
            if (s > 0)
                out += ',';
            out += std::to_string(bandStarts_[s]);
        }
        out += "],\"recuts\":" + std::to_string(recuts_) + "}";
    } else {
        out += ",\"sharded\":null";
    }
    out += '}';
    return out;
}

std::string
profileDocument(const RunMetadata& meta,
                const std::vector<std::string>& rows)
{
    std::string out = "{\"schema\":\"footprint.profile/1\",\"meta\":";
    out += meta.toJson();
    out += ",\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0)
            out += ',';
        out += rows[i];
    }
    out += "]}\n";
    return out;
}

bool
writeProfileDocument(const std::string& path, const RunMetadata& meta,
                     const std::vector<std::string>& rows)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << profileDocument(meta, rows);
    return static_cast<bool>(os);
}

} // namespace footprint
