/**
 * @file
 * The disabled-observer overhead gate (DESIGN.md §9). Two identical
 * 8x8 Footprint networks ("twins") step one trajectory in one
 * process; the idle twin also takes every branch runExperiment takes
 * per cycle with every observer off. 100 pairs time the same
 * 1,000-cycle span on both, alternating which goes first, so host
 * drift cancels in each pair's time ratio. The gate exits 1 when the
 * median idle/bare ratio exceeds 1.02, or when the twins end out of
 * lockstep (then they did not time the same work). No options.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <tuple>
#include <vector>

#include "network/network.hpp"
#include "obs/auditor.hpp"
#include "obs/console.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_event.hpp"
#include "obs/watchdog.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"

namespace footprint {
namespace {

constexpr int kNodes = 64;  // the default 8x8 mesh
constexpr std::int64_t kWarmupCycles = 2000;
constexpr int kPairs = 100;
constexpr std::int64_t kSpanCycles = 1000;
constexpr double kMaxRatio = 1.02;

/** Never raised: the driver's SIGINT flag, read behind its guard. */
volatile std::sig_atomic_t g_interrupted = 0;

/** One network and the driver state that steps it. */
struct Twin
{
    explicit Twin(const SimConfig& cfg) : net(cfg) {}

    /** Enqueue this cycle's packets; @return how many. */
    int
    inject()
    {
        int count = 0;
        for (int n = 0; n < kNodes; ++n) {
            if (!gen.nextBool(0.30))
                continue;
            Packet p;
            p.id = ++id;
            p.src = n;
            p.dest = static_cast<int>(gen.nextBounded(kNodes));
            if (p.dest == n)
                continue;
            p.size = 1;
            p.createTime = cycle;
            net.endpoint(n).enqueue(p);
            ++count;
        }
        return count;
    }

    /** Drain this cycle's completions, quiet nodes skipped. */
    void
    collect()
    {
        drained.clear();
        for (int n = 0; n < kNodes; ++n) {
            if (net.endpoint(n).ejectedCount() != 0)
                net.endpoint(n).drainEjectedInto(drained);
        }
    }

    Network net;
    Rng gen{7};
    std::uint64_t id = 0;
    std::int64_t cycle = 0;
    std::vector<EjectedPacket> drained;  ///< reused, as the driver's
};

/** A twin plus what runExperiment holds with every observer off: the
 * auditor and watchdog it always builds, at interval 0, and nulls. */
struct IdleTwin : Twin
{
    using Twin::Twin;

    InvariantAuditor auditor{net, {.interval = 0}};
    Watchdog watchdog{net, nullptr, {.interval = 0}};
    FlightRecorder* recorder = nullptr;
    ChromeTraceWriter* chrome = nullptr;
    Profiler* prof = nullptr;
    RunConsole* console = nullptr;
    bool sigintGuard = false;
};

void
stepCycle(Twin& t)
{
    t.inject();
    t.net.step(t.cycle);
    t.collect();
    ++t.cycle;
}

/**
 * The bare cycle plus every branch runExperiment's loop takes per
 * cycle with every observer off, in its order. Keep the two in step.
 */
void
stepCycle(IdleTwin& t)
{
    // The driver reads its handles from the config. The empty asm may
    // rewrite anything these pointers reach, so the compiler cannot
    // fold the null checks below away.
    asm volatile("" : : "r"(&t.recorder), "r"(&t.chrome), "r"(&t.prof),
                 "r"(&t.console), "r"(&t.sigintGuard) : "memory");
    if (t.chrome)
        t.chrome->instantEvent("phase: measure", t.cycle);
    const std::uint64_t inject_t0 = t.prof ? Profiler::nowNs() : 0;
    for (int i = t.inject(); i > 0; --i) {
        if (t.recorder)
            t.recorder->onOffered(1);
    }
    if (t.prof)
        t.prof->addPhaseNs(ProfPhase::Inject, Profiler::nowNs() - inject_t0);

    t.net.step(t.cycle);
    t.auditor.tick(t.cycle);
    t.watchdog.tick(t.cycle);
    if (t.watchdog.deadlockDetected())
        fatal("idle twin deadlocked");
    if (t.sigintGuard && g_interrupted != 0)
        fatal("interrupted");

    const std::uint64_t collect_t0 = t.prof ? Profiler::nowNs() : 0;
    t.collect();
    for (const EjectedPacket& p : t.drained) {
        if (t.recorder)
            t.recorder->onEjected(p.latency());
    }
    if (t.prof)
        t.prof->addPhaseNs(ProfPhase::Collect,
                           Profiler::nowNs() - collect_t0);
    if (t.recorder)
        t.recorder->tick(t.cycle);
    if (t.console)
        t.console->updateRun(t.cycle, 0, "measure", nullptr, kNodes);
    {
        ProfileScope skip_ps(t.prof, ProfPhase::Skip);
    }
    ++t.cycle;
}

/** Seconds that kSpanCycles cycles of @p twin take. */
template <typename T>
double
timeSpan(T& twin)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t c = 0; c < kSpanCycles; ++c)
        stepCycle(twin);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The @p q quantile of sorted @p v, interpolated between ranks. */
double
quantile(const std::vector<double>& v, double q)
{
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** What two twins in lockstep agree on. */
auto
lockstepState(const Network& net)
{
    const Router::Counters c = net.aggregateCounters();
    return std::tuple(net.totalFlitsInjected(), net.totalFlitsEjected(),
                      net.totalFlitsSent(), c.vcAllocSuccess,
                      c.vcAllocFail, c.puritySum, c.puritySamples,
                      c.flitsTraversed, c.vaGrantsByPriority);
}

int
run()
{
    setQuiet(true);
    SimConfig cfg = defaultConfig();
    cfg.set("routing", "footprint");
    Twin bare(cfg);
    IdleTwin idle(cfg);
    for (std::int64_t c = 0; c < kWarmupCycles; ++c) {
        stepCycle(bare);
        stepCycle(idle);
    }

    double bare_total = 0.0;
    double idle_total = 0.0;
    std::vector<double> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
        double bare_s = 0.0;
        double idle_s = 0.0;
        if (pair % 2 == 0) {
            bare_s = timeSpan(bare);
            idle_s = timeSpan(idle);
        } else {
            idle_s = timeSpan(idle);
            bare_s = timeSpan(bare);
        }
        bare_total += bare_s;
        idle_total += idle_s;
        ratios.push_back(idle_s / bare_s);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median = quantile(ratios, 0.5);
    const double cycles = static_cast<double>(kPairs * kSpanCycles);
    std::printf("bare twin %.3f us/cycle, idle twin %.3f us/cycle\n"
                "idle/bare ratio over %d pairs: median %.4f, quartiles "
                "%.4f-%.4f\n"
                "disabled-observer overhead: %+.2f%% (threshold %.1f%%)\n",
                bare_total / cycles * 1e6, idle_total / cycles * 1e6,
                kPairs, median, quantile(ratios, 0.25),
                quantile(ratios, 0.75), 100.0 * (median - 1.0),
                100.0 * (kMaxRatio - 1.0));

    const bool lockstep = lockstepState(bare.net) == lockstepState(idle.net);
    if (!lockstep)
        std::printf("FAIL: the twins ended out of lockstep\n");
    if (median > kMaxRatio)
        std::printf("FAIL: the overhead exceeds the threshold\n");
    if (!lockstep || median > kMaxRatio)
        return 1;
    std::printf("OK\n");
    return 0;
}

} // namespace
} // namespace footprint

int
main(int argc, char**)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: observer_overhead (no options)\n");
        return 2;
    }
    return footprint::run();
}
