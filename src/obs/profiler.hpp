/**
 * @file
 * Simulator self-profiler: attributes wall-clock time to the phases of
 * a simulation cycle (inject / drain / compute / transmit / epilogue /
 * collect) and, when the network steps several bands, to individual
 * bands and barrier waits, so performance work starts from
 * measurements instead of guesses.
 *
 * Threading contract (mirrors the parallel-stepping determinism
 * design, DESIGN.md §13/§14): workers write only the per-member
 * barrier-wait scratch slots they own during a cycle; the Network
 * folds that scratch into the shared HDR histogram, and adds each
 * band's busy time, from its *serial* end-of-step epilogue. Nothing
 * the profiler does touches simulation state, so checksums and
 * parallel-vs-serial equality are untouched — the profiled run is
 * bit-identical to the unprofiled one.
 *
 * Overhead contract: a one-band Network with no profiler attached
 * reads no clock (several bands time their phase bodies for the band
 * re-cut either way); runExperiment pays one null check per cycle
 * section. The CI gate (bench/observer_overhead) holds a cycle with
 * every observer off, as runExperiment runs it, within 2% of the bare
 * cycle loop.
 */

#ifndef FOOTPRINT_OBS_PROFILER_HPP
#define FOOTPRINT_OBS_PROFILER_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/hdr_histogram.hpp"

namespace footprint {

struct RunMetadata;

/** Wall-time attribution buckets of one simulation cycle. */
enum class ProfPhase : int {
    Inject = 0,   ///< traffic generation (runExperiment)
    Drain,        ///< active-list drain + receive phase (one band)
    Compute,      ///< routing + VA + SA + crossbar traversal (one band)
    Transmit,     ///< links + status publish + reschedule (one band)
    Epilogue,     ///< descriptor flush/refill, band-time fold, re-cut
    Collect,      ///< ejected-packet collection (runExperiment)
    Skip,         ///< horizon computation + clock jumps (skip-ahead)
    Link,         ///< batched fabric sent-lane sums (totalFlitsSent)
    Count,
};

const char* profPhaseName(ProfPhase p);

class Profiler
{
  public:
    /** Monotonic nanosecond clock used by every scope. */
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /** Mark the start of the profiled run (wall-clock anchor). */
    void beginRun() { runStartNs_ = nowNs(); }

    /** Close the run after @p cycles simulated cycles. */
    void
    endRun(std::int64_t cycles)
    {
        runNs_ = nowNs() - runStartNs_;
        cycles_ = cycles;
    }

    void
    addPhaseNs(ProfPhase p, std::uint64_t ns)
    {
        phaseNs_[static_cast<std::size_t>(p)] += ns;
        ++phaseCalls_[static_cast<std::size_t>(p)];
    }

    // --- Band-stepping instrumentation (several bands). ---

    /**
     * Size the per-band accumulators, one per band and crew member.
     * Called by Network::attachProfiler when the network steps more
     * than one band.
     */
    void configureSharded(int shards, int threads);

    bool sharded() const { return !shardBusyNs_.empty(); }
    int shardCount() const
    {
        return static_cast<int>(shardBusyNs_.size());
    }

    /**
     * Add @p ns of phase-body work to @p shard (serial epilogue; the
     * Network's own per-shard slots carry the time out of the crew).
     */
    void
    addShardBusyNs(int shard, std::uint64_t ns)
    {
        shardBusyNs_[static_cast<std::size_t>(shard)] += ns;
    }

    /**
     * Record the bands in force — each shard's first node — and the
     * number of re-cuts that moved a boundary so far. The Network
     * calls this at attach and after every re-cut, from the serial
     * section, so the report shows where the bands ended up.
     */
    void setShardBands(std::span<const int> starts,
                       std::uint64_t recuts);

    /** Each shard's first node as last recorded by setShardBands. */
    const std::vector<int>& bandStarts() const { return bandStarts_; }

    /**
     * Record one barrier wait of crew member @p member into its
     * private scratch slot; folded into the shared histogram by
     * mergeCycleScratch() from the serial epilogue.
     */
    void
    recordBarrierWaitNs(int member, std::uint64_t ns)
    {
        MemberScratch& s = scratch_[static_cast<std::size_t>(member)];
        if (s.count < kMaxWaitsPerCycle)
            s.waitNs[s.count++] = ns;
    }

    /**
     * Serial end-of-step merge: fold every member's barrier-wait
     * scratch into the shared HDR histogram.
     * Must only be called while no worker is inside a phase.
     */
    void mergeCycleScratch();

    // --- Report accessors (tests, benches). ---

    double
    phaseSeconds(ProfPhase p) const
    {
        return static_cast<double>(
                   phaseNs_[static_cast<std::size_t>(p)])
            * 1e-9;
    }
    std::uint64_t
    phaseCalls(ProfPhase p) const
    {
        return phaseCalls_[static_cast<std::size_t>(p)];
    }
    double
    shardBusySeconds(int shard) const
    {
        return static_cast<double>(
                   shardBusyNs_[static_cast<std::size_t>(shard)])
            * 1e-9;
    }
    const HdrHistogram& barrierWaits() const { return barrierHist_; }
    double runSeconds() const
    {
        return static_cast<double>(runNs_) * 1e-9;
    }
    std::int64_t cycles() const { return cycles_; }

    /** max(shard busy) / mean(shard busy); 1.0 is perfectly balanced. */
    double imbalanceRatio() const;

    /**
     * One footprint.profile/1 row: phase table, sharded block (when
     * sharded) with per-shard busy seconds, imbalance ratio,
     * barrier-wait percentiles, and the final bands and re-cut count.
     */
    std::string toJsonRow(const std::string& name,
                          const std::string& mode, int threads) const;

  private:
    // 2 in-cycle barriers per cycle per member, with headroom.
    static constexpr int kMaxWaitsPerCycle = 8;

    struct MemberScratch
    {
        std::array<std::uint64_t, kMaxWaitsPerCycle> waitNs{};
        int count = 0;
    };

    std::array<std::uint64_t,
               static_cast<std::size_t>(ProfPhase::Count)>
        phaseNs_{};
    std::array<std::uint64_t,
               static_cast<std::size_t>(ProfPhase::Count)>
        phaseCalls_{};
    std::vector<std::uint64_t> shardBusyNs_;
    std::vector<MemberScratch> scratch_;
    std::vector<int> bandStarts_;
    std::uint64_t recuts_ = 0;
    HdrHistogram barrierHist_{1ULL << 34};  ///< up to ~17 s waits
    int threads_ = 1;
    std::uint64_t runStartNs_ = 0;
    std::uint64_t runNs_ = 0;
    std::int64_t cycles_ = 0;
};

/**
 * RAII phase scope: records the elapsed wall time of its lifetime into
 * @p profiler, or nothing at all when @p profiler is null (one branch).
 */
class ProfileScope
{
  public:
    ProfileScope(Profiler* profiler, ProfPhase phase)
        : profiler_(profiler), phase_(phase),
          t0_(profiler ? Profiler::nowNs() : 0)
    {
    }

    ~ProfileScope()
    {
        if (profiler_)
            profiler_->addPhaseNs(phase_, Profiler::nowNs() - t0_);
    }

    ProfileScope(const ProfileScope&) = delete;
    ProfileScope& operator=(const ProfileScope&) = delete;

  private:
    Profiler* profiler_;
    ProfPhase phase_;
    std::uint64_t t0_;
};

/**
 * Wrap @p rows (each a toJsonRow string) into a schema-versioned
 * footprint.profile/1 document with a metadata header.
 */
std::string profileDocument(const RunMetadata& meta,
                            const std::vector<std::string>& rows);

/** Write profileDocument to @p path; false on I/O failure. */
bool writeProfileDocument(const std::string& path,
                          const RunMetadata& meta,
                          const std::vector<std::string>& rows);

} // namespace footprint

#endif // FOOTPRINT_OBS_PROFILER_HPP
