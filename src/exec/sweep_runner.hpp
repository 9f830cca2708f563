/**
 * @file
 * SweepRunner — the parallel experiment engine behind the paper's
 * figure sweeps and the CI benchmark gate.
 *
 * A SweepSpec describes a grid of independent simulations (offered
 * rates x routing algorithms x mesh sizes x traffic patterns x seed
 * replicates). expand() flattens it, in a fixed row-major order, into
 * SimJobs; each job owns a private SimConfig, an RNG seed derived via
 * SplitMix64 from the base seed and the job index, and its own
 * artifact paths. run() executes the jobs on an ExecContext, costliest
 * first (dispatchOrder), and reassembles results in job order, so the
 * output — including the exported footprint.bench/1 JSON, minus
 * wall-clock metadata — is bit-identical for any thread count or
 * schedule.
 */

#ifndef FOOTPRINT_EXEC_SWEEP_RUNNER_HPP
#define FOOTPRINT_EXEC_SWEEP_RUNNER_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "network/sweep.hpp"
#include "sim/config.hpp"

namespace footprint {

class ExecContext;
class RunConsole;

/** One mesh size of a sweep. */
struct MeshSize
{
    int width = 8;
    int height = 8;

    std::string
    label() const
    {
        return std::to_string(width) + "x" + std::to_string(height);
    }
};

/** The experiment grid one SweepRunner::run expands and executes. */
struct SweepSpec
{
    /** Baseline configuration every job derives from. */
    SimConfig base;
    /** Offered rates (flits/node/cycle); one job per rate per cell. */
    std::vector<double> rates;
    /** Routing algorithms ("routing" values). */
    std::vector<std::string> routings;
    /** Mesh sizes. */
    std::vector<MeshSize> meshes;
    /** Traffic patterns ("traffic" values). */
    std::vector<std::string> traffics{"uniform"};
    /** Seed replicates per (mesh, routing, traffic, rate) cell. */
    int seeds = 1;
};

/**
 * Saturation criterion of every sweep: a rate point is saturated when
 * it fails to drain or its latency exceeds this factor times its
 * cell's zero-load latency. (Accepted-vs-offered comparisons are
 * deliberately not used: patterns with fixed points, e.g. transpose,
 * legitimately accept less than the per-node offered rate.)
 */
inline constexpr double kSaturationLatencyFactor = 3.0;

/** Offered rate of each cell's zero-load probe job. */
inline constexpr double kZeroLoadProbeRate = 0.02;

/** One fully materialized simulation of a sweep. */
struct SimJob
{
    std::size_t index = 0; ///< position in expansion order
    MeshSize mesh;
    std::string routing;
    std::string traffic;
    int replicate = 0;     ///< seed replicate [0, spec.seeds)
    bool probe = false;    ///< zero-load probe (not a curve point)
    double rate = 0.0;     ///< offered rate (kZeroLoadProbeRate for probes)
    std::uint64_t seed = 0; ///< deriveStreamSeed(base_seed, index)
    SimConfig cfg;         ///< private, ready-to-run configuration
};

/** Result of one SimJob. */
struct JobResult
{
    // Job identity (copied so results are self-describing).
    std::size_t index = 0;
    MeshSize mesh;
    std::string routing;
    std::string traffic;
    int replicate = 0;
    bool probe = false;
    std::uint64_t seed = 0;

    CurvePoint point;      ///< offered/accepted/latency/saturated
    double p50 = 0.0;      ///< median packet latency
    double p99 = 0.0;      ///< tail packet latency
    double hops = 0.0;     ///< mean hop count
    std::int64_t cycles = 0;
    bool drained = false;
    std::string stallClass = "none";
    /** Steady-state cycle from the flight recorder (-1 = off/never). */
    std::int64_t steadyCycle = -1;
    /** Saturation-onset cycle from the flight recorder (-1 = none). */
    std::int64_t satOnsetCycle = -1;
};

/**
 * One (mesh, routing, traffic) cell of a sweep: its latency-throughput
 * curve and the saturation throughput it reduces to. Each replicate's
 * ladder saturates midway between its last unsaturated and its first
 * saturated rate; the cell averages that across replicates.
 */
struct SweepCell
{
    MeshSize mesh;
    std::string routing;
    std::string traffic;
    /** Rate points of every replicate, in job order (no probes). */
    std::vector<CurvePoint> curve;
    /** Saturation throughput (flits/node/cycle). */
    double saturation = 0.0;
    /** Zero-load latency from the probe jobs (cycles). */
    double zeroLoad = 0.0;
};

/** Everything one sweep produced. */
struct SweepResult
{
    std::vector<JobResult> jobs;          ///< in job-index order
    std::vector<SweepCell> cells;         ///< sorted by mesh, routing, traffic
    std::uint64_t baseSeed = 0;
    unsigned jobsUsed = 1;                ///< worker threads
    double wallSeconds = 0.0;             ///< wall clock of run()
    double jobsPerSec = 0.0;              ///< jobs / wallSeconds
    /**
     * [start, end] of each job in seconds since run() started, in
     * job-index order: the schedule dispatchOrder produced. Like
     * wallSeconds it is host time, written only to the "timing"
     * object of footprint.bench/1.
     */
    std::vector<std::array<double, 2>> schedule;

    /**
     * The cell of (@p mesh, @p routing, @p traffic) — the one way
     * front ends read curves and saturation back. Panics if the sweep
     * had no such cell.
     */
    const SweepCell& cell(const MeshSize& mesh,
                          const std::string& routing,
                          const std::string& traffic) const;
};

class SweepRunner
{
  public:
    explicit SweepRunner(ExecContext& ctx) : ctx_(ctx) {}

    /**
     * Show live per-job progress on @p console while run() executes
     * (nullptr = silent). The console is display-only and updated
     * from worker threads through its internal lock, so artifact
     * bytes are unaffected. Must outlive run().
     */
    void attachConsole(RunConsole* console) { console_ = console; }

    /**
     * Flatten @p spec into jobs in the canonical order: mesh, then
     * routing, then traffic, then replicate, then (zero-load probe,
     * rates ascending in spec order). The order is part of the
     * determinism contract — job index feeds seed derivation. An empty
     * axis or fewer than one seed is a user error: fatal() names the
     * sweep_* key that set it.
     */
    static std::vector<SimJob> expand(const SweepSpec& spec);

    /**
     * The order run() hands @p jobs to its workers: descending
     * expected cost, so no expensive job starts last and runs alone
     * while the other workers idle. Larger meshes first; within a
     * mesh, rate points by descending offered rate, then zero-load
     * probes; ties by job index. The cost is read from each job's own
     * config, so any spec gets a schedule with no extra key. Returns
     * a permutation of the job indices.
     */
    static std::vector<std::size_t>
    dispatchOrder(const std::vector<SimJob>& jobs);

    /**
     * Execute every job of @p spec in dispatchOrder and assemble the
     * results in job order.
     */
    SweepResult run(const SweepSpec& spec);

  private:
    ExecContext& ctx_;
    RunConsole* console_ = nullptr;
};

/**
 * Render @p result as a schema-versioned footprint.bench/1 JSON
 * document (the repo's canonical BENCH_*.json format; see README).
 * When @p include_timing is false the wall-clock fields ("created",
 * "wall_seconds", "jobs_per_sec", "schedule") are omitted, leaving
 * only the deterministic payload — the form the CI determinism gate
 * compares across thread counts.
 */
std::string benchResultsJson(const SweepSpec& spec,
                             const SweepResult& result,
                             bool include_timing = true);

/** Write benchResultsJson to @p path; fatal() if unwritable. */
void writeBenchResults(const std::string& path, const SweepSpec& spec,
                       const SweepResult& result);

/**
 * Parse "8x8" / "16x8"-style mesh labels (fatal() on malformed input);
 * shared by the sweep CLI and bench drivers.
 */
MeshSize parseMeshSize(const std::string& label);

/** Split "a,b,c" into trimmed non-empty elements. */
std::vector<std::string> splitList(const std::string& csv);

/**
 * Parse a rate specification: either an explicit comma list
 * ("0.05,0.1,0.2") or an inclusive linspace "lo:hi:count"
 * ("0.05:0.4:6"). fatal() on malformed input.
 */
std::vector<double> parseRateSpec(const std::string& spec);

} // namespace footprint

#endif // FOOTPRINT_EXEC_SWEEP_RUNNER_HPP
