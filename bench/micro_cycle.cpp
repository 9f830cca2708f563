/**
 * @file
 * Whole-network cycles/sec microbench and stepping-equivalence check.
 *
 * Runs an 8x8 mesh at three operating points (idle, low load, past
 * saturation) under each of the four main routing algorithms, once
 * with step_mode=full and once with step_mode=activity, and:
 *
 *  - requires the two modes to produce bit-identical results (an
 *    FNV-1a checksum over every router counter, the network totals,
 *    and the drained-packet stream), and
 *  - reports cycles/sec for both modes, so the CI gate
 *    (tools/check_bench_regression.py --micro) can pin the checksums
 *    exactly and watch throughput for regressions.
 *
 * Three further operating points add a thread axis and are
 * additionally run with step_mode=sharded, each thread count emitted
 * as its own "@tN" result row: sat16 (16x16 near saturation, threads
 * 1/2/4 — its row names predate the 8-worker axis and stay frozen)
 * and the big-mesh points sat32 (32x32, 1024 nodes) and big64 (64x64,
 * 4096 nodes), both past saturation at threads 1/2/4/8. Every sharded
 * checksum must equal the serial reference checksum — this binary
 * exits nonzero on any divergence, and the CI gate cross-checks the
 * rows again from the artifact — so the bench doubles as the
 * determinism gate for parallel stepping.
 *
 * Every point also runs with the event-horizon fast path enabled
 * (DESIGN.md §16), emitted as an "@skip" row (activity stepping) and,
 * on the thread-axis points, an "@tNskip" row (sharded at the point's
 * largest thread count: t4 for sat16, t8 for the big meshes).
 * Injection is schedule-driven (InjectionSchedule draws geometric
 * inter-arrival gaps, consuming RNG only at fire events), so the
 * traffic is identical whether idle spans are ticked or jumped — the
 * skip rows must reproduce the full-stepping checksum bit for bit,
 * enforced both here (nonzero exit) and by the CI gate (rows sharing
 * a base name modulo '@...' must agree).
 *
 * Usage: micro_cycle [--cycles N] [--out FILE] [--point NAME]
 *                    [--profile [--profile-out FILE]]
 *
 * The JSON artifact is a footprint.bench/1 document with
 * kind="micro_cycle". Checksums are load-, seed-, and
 * algorithm-dependent but machine-independent; wall-clock fields are
 * the only machine-dependent values.
 *
 * --profile switches to self-profiling mode: only the thread-axis
 * point (sat16) runs, each configuration with a Profiler attached, and
 * the per-phase / per-shard / barrier-wait breakdown is printed and
 * written as a footprint.profile/1 document (default
 * micro_profile.json). Every profiled checksum must still equal the
 * unprofiled full-stepping reference — the mode proves on every run
 * that profiling cannot perturb simulation results.
 */

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <execinfo.h>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "network/network.hpp"
#include "obs/profiler.hpp"
#include "obs/run_metadata.hpp"
#include "sim/config.hpp"
#include "sim/horizon.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"
#include "traffic/injection.hpp"

// --- Hot-path heap-allocation counter (DESIGN.md §17). ---
// The bench replaces global operator new/delete so it can count every
// heap allocation made while the armed flag is set — i.e. during the
// steady-state half of a measured stepping loop. The zero-allocation
// invariant for saturated rows, serial and sharded, is asserted below
// (nonzero exit on violation) and allocs_per_cycle is reported for
// every row.

namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::uint64_t> g_heapAllocs{0};
/**
 * Debug aid: with FP_ALLOC_TRAP set in the environment, the first
 * counted allocation of a measured run prints a backtrace and aborts,
 * so a zero-allocation regression pinpoints its caller instead of
 * just failing the gate.
 */
std::atomic<bool> g_trapAllocs{false};

void*
countedAlloc(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed)) {
        g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
        if (g_trapAllocs.load(std::memory_order_relaxed)) {
            void* frames[16];
            const int depth = ::backtrace(frames, 16);
            ::backtrace_symbols_fd(frames, depth, 2);
            std::abort();
        }
    }
    if (void* p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void*
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void*
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace footprint {
namespace {

struct OperatingPoint
{
    const char* name;
    int meshW;
    int meshH;
    double load;
    /** Per-point cycle-budget multiplier (big meshes run shorter). */
    double cycleScale;
    /** Also run step_mode=sharded at each kThreadCounts entry. */
    bool threadAxis;
    /**
     * Past saturation: every measured row — serial activity (plain
     * and @skip) and sharded (@tN and @tNskip) — must perform zero
     * heap allocations per steady-state cycle.
     */
    bool saturated;
    /**
     * Largest kThreadCounts entry this point shards at; the trailing
     * "@tNskip" row runs at this count too. sat16 stays capped at 4
     * so its historical row names (through "@t4skip") are stable; the
     * big-mesh points exercise the 8-worker axis.
     */
    int maxThreads;
    /** --profile mode runs only the points with this flag. */
    bool profileAxis;
};

constexpr OperatingPoint kPoints[] = {
    {"idle", 8, 8, 0.0, 1.0, false, false, 1, false},
    {"low", 8, 8, 0.10, 1.0, false, false, 1, false},
    {"sat", 8, 8, 0.45, 1.0, false, true, 1, false},
    {"sat16", 16, 16, 0.25, 0.4, true, true, 4, true},
    // Big-mesh operating points: 1024 and 4096 nodes past their
    // uniform-DOR saturation loads (~4/k flits/node/cycle), with the
    // cycle budget scaled so each point costs about as much wall time
    // as sat16 despite the node count.
    {"sat32", 32, 32, 0.15, 0.12, true, true, 8, false},
    {"big64", 64, 64, 0.08, 0.03, true, true, 8, false},
};

constexpr const char* kRoutings[] = {"dor", "oddeven", "dbar",
                                     "footprint"};

constexpr int kThreadCounts[] = {1, 2, 4, 8};

constexpr std::uint64_t kSeed = 7;

/** One (operating point, routing, step mode) measurement. */
struct RunOutcome
{
    std::uint64_t checksum = 0;
    double wallSeconds = 0.0;
    std::uint64_t steadyAllocs = 0;   ///< heap allocs in the window
    std::int64_t steadyCycles = 0;    ///< cycles in the window
};

class Fnv1a
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= 1099511628211ULL;
        }
    }

    void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ULL;
};

SimConfig
pointConfig(const std::string& routing, const OperatingPoint& pt,
            const char* step_mode, int threads)
{
    SimConfig cfg = defaultConfig();
    cfg.set("routing", routing);
    cfg.set("step_mode", step_mode);
    cfg.setInt("mesh_width", pt.meshW);
    cfg.setInt("mesh_height", pt.meshH);
    cfg.setInt("threads", threads);
    return cfg;
}

RunOutcome
runOne(const std::string& routing, const OperatingPoint& pt,
       std::int64_t cycles, const char* step_mode, int threads,
       bool skip_ahead = false, Profiler* prof = nullptr)
{
    SimConfig cfg = pointConfig(routing, pt, step_mode, threads);
    Network net(cfg);
    if (prof) {
        net.attachProfiler(prof);
        prof->beginRun();
    }

    const int nodes = pt.meshW * pt.meshH;
    Rng gen(kSeed);
    // Schedule-driven injection: per fire the draws are dest then next
    // gap, so the RNG sequence depends only on the fire events — never
    // on how many idle cycles elapsed — and skip-ahead runs reproduce
    // the per-cycle checksum exactly.
    std::unique_ptr<InjectionSchedule> sched;
    if (pt.load > 0.0)
        sched = std::make_unique<InjectionSchedule>(nodes, pt.load,
                                                    gen);
    std::uint64_t id = 0;
    std::uint64_t drained = 0;
    std::uint64_t hops_sum = 0;
    std::uint64_t create_sum = 0;

    // Warm every capacity the steady state needs so the allocation
    // counter below measures the simulator, not first-touch growth: a
    // saturated source queue backlog only ever grows, so pre-size it
    // for the worst case (one packet per cycle per endpoint), and
    // collect ejections through a reused scratch vector instead of a
    // by-value drain.
    for (int n = 0; n < nodes; ++n) {
        net.endpoint(n).reserveSourceQueue(
            static_cast<std::size_t>(cycles) + 1);
    }
    // A source starts at most one packet per cycle, so this bounds
    // every descriptor-pool high-water mark the run can reach.
    net.packetPool().reserveSlotCapacity(
        static_cast<std::size_t>(cycles) + 2);
    std::vector<EjectedPacket> eject_scratch;
    eject_scratch.reserve(64);

    // Allocation-count window: the second half of the run, past
    // warmup. Armed by comparison (not equality) because skip-ahead
    // may jump the clock over the boundary cycle.
    const std::int64_t steady_start = cycles / 2;
    bool counting = false;
    std::int64_t count_from = 0;
    std::uint64_t allocs_at_arm = 0;
    const bool trap = std::getenv("FP_ALLOC_TRAP") != nullptr;

    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
        if (!counting && cycle >= steady_start) {
            counting = true;
            count_from = cycle;
            allocs_at_arm =
                g_heapAllocs.load(std::memory_order_relaxed);
            g_trapAllocs.store(trap, std::memory_order_relaxed);
            g_countAllocs.store(true, std::memory_order_relaxed);
        }
        if (sched) {
            for (int slot; (slot = sched->popDue(cycle)) >= 0;) {
                const int dest = static_cast<int>(gen.nextBounded(
                    static_cast<std::uint64_t>(nodes)));
                sched->scheduleNext(slot, cycle, gen);
                if (dest == slot)
                    continue;
                Packet p;
                p.id = ++id;
                p.src = slot;
                p.dest = dest;
                p.size = 1;
                p.createTime = cycle;
                net.endpoint(slot).enqueue(p);
            }
        }
        net.step(cycle);
        for (int n = 0; n < nodes; ++n) {
            if (net.endpoint(n).ejectedCount() == 0)
                continue;
            eject_scratch.clear();
            net.endpoint(n).drainEjectedInto(eject_scratch);
            for (const EjectedPacket& p : eject_scratch) {
                ++drained;
                hops_sum += static_cast<std::uint64_t>(p.hops);
                create_sum +=
                    static_cast<std::uint64_t>(p.createTime);
            }
        }
        if (skip_ahead && net.idle()) {
            HorizonTracker hz(cycle + 1, cycles);
            if (sched)
                hz.clamp(sched->nextFireCycle());
            if (hz.skips()) {
                net.skipTo(hz.cycle());
                cycle = hz.cycle() - 1;
            }
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    std::uint64_t steady_allocs = 0;
    if (counting) {
        g_countAllocs.store(false, std::memory_order_relaxed);
        g_trapAllocs.store(false, std::memory_order_relaxed);
        steady_allocs =
            g_heapAllocs.load(std::memory_order_relaxed)
            - allocs_at_arm;
    }
    if (prof)
        prof->endRun(cycles);

    Fnv1a sum;
    sum.mix(net.totalFlitsInjected());
    sum.mix(net.totalFlitsEjected());
    sum.mix(static_cast<std::uint64_t>(net.totalFlitsInFlight()));
    sum.mix(net.totalFlitsSent());
    sum.mix(drained);
    sum.mix(hops_sum);
    sum.mix(create_sum);
    for (int n = 0; n < nodes; ++n) {
        const Router::Counters& c = net.router(n).counters();
        sum.mix(c.vcAllocSuccess);
        sum.mix(c.vcAllocFail);
        sum.mix(c.flitsTraversed);
        sum.mix(c.puritySamples);
        sum.mix(c.puritySum);
    }

    RunOutcome out;
    out.checksum = sum.value();
    out.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.steadyAllocs = steady_allocs;
    out.steadyCycles = counting ? cycles - count_from : 0;
    return out;
}

struct ResultRow
{
    std::string name;
    std::string routing;
    std::string topology = "mesh";  ///< every micro point is a mesh
    std::string mode;               ///< "activity" or "sharded"
    int threads = 1;
    double load = 0.0;
    std::int64_t cycles = 0;
    double wallSeconds = 0.0;       ///< measured mode
    double cyclesPerSec = 0.0;      ///< measured mode
    double fullCyclesPerSec = 0.0;  ///< full (reference) mode
    double allocsPerCycle = 0.0;    ///< steady-state heap allocs
    std::uint64_t checksum = 0;
};

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
writeJson(std::ostream& os, const std::vector<ResultRow>& rows,
          std::int64_t cycles)
{
    // Uniform self-describing meta header (same as every other
    // artifact family); the config hash covers the bench's baseline
    // operating-point configuration.
    RunMetadata meta = RunMetadata::fromConfig(defaultConfig());
    meta.seed = kSeed;
    os << "{\"schema\":\"footprint.bench/1\",\"kind\":\"micro_cycle\""
       << ",\"meta\":" << meta.toJson()
       << ",\"run\":{\"mesh\":\"multi\",\"seed\":" << kSeed
       << ",\"cycles\":" << cycles << "},\"results\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ResultRow& r = rows[i];
        if (i > 0)
            os << ',';
        char buf[384];
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\":\"%s\",\"routing\":\"%s\","
            "\"topology\":\"%s\",\"mode\":\"%s\","
            "\"threads\":%d,\"load\":%.2f,"
            "\"cycles\":%lld,\"wall_seconds\":%.6f,"
            "\"cycles_per_sec\":%.1f,\"full_cycles_per_sec\":%.1f,"
            "\"speedup\":%.3f,\"allocs_per_cycle\":%.6f,"
            "\"checksum\":\"%s\"}",
            r.name.c_str(), r.routing.c_str(), r.topology.c_str(),
            r.mode.c_str(),
            r.threads, r.load, static_cast<long long>(r.cycles),
            r.wallSeconds, r.cyclesPerSec, r.fullCyclesPerSec,
            r.fullCyclesPerSec > 0.0
                ? r.cyclesPerSec / r.fullCyclesPerSec
                : 0.0,
            r.allocsPerCycle, hex64(r.checksum).c_str());
        os << buf;
    }
    os << "]}\n";
}

/**
 * @return whether @p run reproduced the full-stepping checksum of
 * @p full; if not, name row @p name on stderr.
 */
bool
matchesFull(const std::string& name, const RunOutcome& run,
            const RunOutcome& full)
{
    if (run.checksum == full.checksum)
        return true;
    std::fprintf(stderr,
                 "FAIL: %s: diverged from full stepping (checksum %s vs "
                 "%s)\n",
                 name.c_str(), hex64(run.checksum).c_str(),
                 hex64(full.checksum).c_str());
    return false;
}

/**
 * Run @p routing at @p pt in @p mode and add and print its row, named
 * "<point>/<routing><suffix>". The run's checksum must equal the
 * full-stepping reference @p full, and a saturated row, serial or
 * sharded, must not heap-allocate in its steady-state window.
 * @return false (after naming the row on stderr) on a violation.
 */
bool
addRow(std::vector<ResultRow>& rows, const OperatingPoint& pt,
       const char* routing, std::int64_t cycles, const RunOutcome& full,
       const std::string& suffix, const char* mode, int threads,
       bool skip_ahead)
{
    const RunOutcome run =
        runOne(routing, pt, cycles, mode, threads, skip_ahead);
    const std::string name = std::string(pt.name) + "/" + routing + suffix;
    if (!matchesFull(name, run, full))
        return false;
    if (pt.saturated && run.steadyAllocs != 0) {
        std::fprintf(stderr,
                     "FAIL: %s: %llu heap allocations in the "
                     "steady-state window (%lld cycles) — the saturated "
                     "hot path must be allocation-free\n",
                     name.c_str(),
                     static_cast<unsigned long long>(run.steadyAllocs),
                     static_cast<long long>(run.steadyCycles));
        return false;
    }
    const auto per_sec = [cycles](const RunOutcome& r) {
        return r.wallSeconds > 0.0
            ? static_cast<double>(cycles) / r.wallSeconds
            : 0.0;
    };
    ResultRow row;
    row.name = name;
    row.routing = routing;
    row.mode = mode;
    row.threads = threads;
    row.load = pt.load;
    row.cycles = cycles;
    row.wallSeconds = run.wallSeconds;
    row.cyclesPerSec = per_sec(run);
    row.fullCyclesPerSec = per_sec(full);
    row.allocsPerCycle = run.steadyCycles > 0
        ? static_cast<double>(run.steadyAllocs)
            / static_cast<double>(run.steadyCycles)
        : 0.0;
    row.checksum = run.checksum;
    std::printf("%-20s %12.0f %12.0f %7.2fx  %s\n", name.c_str(),
                row.fullCyclesPerSec, row.cyclesPerSec,
                row.fullCyclesPerSec > 0.0
                    ? row.cyclesPerSec / row.fullCyclesPerSec
                    : 0.0,
                hex64(row.checksum).c_str());
    rows.push_back(std::move(row));
    return true;
}

/** One profiled row's terminal summary: phase shares + barrier tail. */
void
printProfileRow(const std::string& name, const Profiler& prof)
{
    const double run = prof.runSeconds();
    std::printf("%-24s %10.0f c/s ", name.c_str(),
                run > 0.0 ? static_cast<double>(prof.cycles()) / run
                          : 0.0);
    for (int p = 0; p < static_cast<int>(ProfPhase::Count); ++p) {
        const auto phase = static_cast<ProfPhase>(p);
        if (prof.phaseCalls(phase) == 0)
            continue;
        std::printf(" %s %4.1f%%", profPhaseName(phase),
                    run > 0.0
                        ? 100.0 * prof.phaseSeconds(phase) / run
                        : 0.0);
    }
    if (prof.sharded() && prof.barrierWaits().count() > 0) {
        std::printf("  imbalance %.2f  barrier p99 %llu ns",
                    prof.imbalanceRatio(),
                    static_cast<unsigned long long>(
                        prof.barrierWaits().percentile(0.99)));
    }
    std::printf("\n");
}

/**
 * --profile mode: the thread-axis point only, every configuration
 * profiled, every checksum still pinned to the unprofiled reference.
 */
int
runProfileMode(std::int64_t cycles, const std::string& out_path)
{
    setQuiet(true);
    std::vector<std::string> rows;
    SimConfig meta_cfg = defaultConfig();
    for (const OperatingPoint& pt : kPoints) {
        if (!pt.profileAxis)
            continue;
        const auto pt_cycles = static_cast<std::int64_t>(
            static_cast<double>(cycles) * pt.cycleScale);
        for (const char* routing : kRoutings) {
            const RunOutcome full =
                runOne(routing, pt, pt_cycles, "full", 1);
            meta_cfg = pointConfig(routing, pt, "sharded", 1);
            // A profiled run must reproduce the unprofiled checksum.
            const auto profiled = [&](const std::string& suffix,
                                      const char* mode, int threads) {
                Profiler prof;
                const RunOutcome run = runOne(routing, pt, pt_cycles,
                                              mode, threads, false, &prof);
                const std::string name =
                    std::string(pt.name) + "/" + routing + suffix;
                if (!matchesFull(name, run, full))
                    return false;
                rows.push_back(prof.toJsonRow(name, mode, threads));
                printProfileRow(name, prof);
                return true;
            };
            if (!profiled("", "activity", 1))
                return 1;
            for (const int threads : kThreadCounts) {
                if (threads <= pt.maxThreads
                    && !profiled("@t" + std::to_string(threads),
                                 "sharded", threads))
                    return 1;
            }
        }
    }

    const RunMetadata meta = RunMetadata::fromConfig(meta_cfg);
    if (!writeProfileDocument(out_path, meta, rows)) {
        std::fprintf(stderr, "FAIL: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("wrote %s (schema footprint.profile/1, %zu rows)\n",
                out_path.c_str(), rows.size());
    return 0;
}

int
run(int argc, char** argv)
{
    std::int64_t cycles = 5000;
    std::string out_path;
    std::string profile_out = "micro_profile.json";
    std::string only_point;
    bool profile = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
            cycles = std::atoll(argv[++i]);
        } else if (std::strcmp(argv[i], "--out") == 0
                   && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--point") == 0
                   && i + 1 < argc) {
            only_point = argv[++i];
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            profile = true;
        } else if (std::strcmp(argv[i], "--profile-out") == 0
                   && i + 1 < argc) {
            profile_out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: micro_cycle [--cycles N] "
                         "[--out FILE] [--point NAME] [--profile "
                         "[--profile-out FILE]]\n");
            return 2;
        }
    }

    if (profile)
        return runProfileMode(cycles, profile_out);

    setQuiet(true);
    std::vector<ResultRow> rows;
    std::printf("%-20s %12s %12s %8s  %s\n", "config",
                "full c/s", "mode c/s", "speedup", "checksum");
    for (const OperatingPoint& pt : kPoints) {
        // --point: run a single operating point (CI smoke jobs).
        if (!only_point.empty() && only_point != pt.name)
            continue;
        const auto pt_cycles = static_cast<std::int64_t>(
            static_cast<double>(cycles) * pt.cycleScale);
        for (const char* routing : kRoutings) {
            const RunOutcome full =
                runOne(routing, pt, pt_cycles, "full", 1);
            const auto add = [&](const std::string& suffix,
                                 const char* mode, int threads,
                                 bool skip_ahead) {
                return addRow(rows, pt, routing, pt_cycles, full,
                              suffix, mode, threads, skip_ahead);
            };
            if (!add("", "activity", 1, false)
                || !add("@skip", "activity", 1, true))
                return 1;
            if (!pt.threadAxis)
                continue;
            for (const int threads : kThreadCounts) {
                if (threads <= pt.maxThreads
                    && !add("@t" + std::to_string(threads), "sharded",
                            threads, false))
                    return 1;
            }
            if (!add("@t" + std::to_string(pt.maxThreads) + "skip",
                     "sharded", pt.maxThreads, true))
                return 1;
        }
    }

    if (!out_path.empty()) {
        std::ofstream os(out_path);
        if (!os) {
            std::fprintf(stderr, "FAIL: cannot open %s\n",
                         out_path.c_str());
            return 1;
        }
        writeJson(os, rows, cycles);
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        writeJson(std::cout, rows, cycles);
    }
    return 0;
}

} // namespace
} // namespace footprint

int
main(int argc, char** argv)
{
    return footprint::run(argc, argv);
}
