/**
 * @file
 * Simulator micro-benchmarks (google-benchmark): cost of the routing
 * functions, the arbitration primitives, and a whole-network cycle at
 * several loads. These bound the wall-clock cost of the figure
 * harnesses and catch performance regressions in the hot path.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "network/network.hpp"
#include "obs/auditor.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "router/allocators.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"

namespace footprint {
namespace {

SimConfig
netConfig(const std::string& routing)
{
    SimConfig cfg = defaultConfig();
    cfg.set("routing", routing);
    return cfg;
}

/** Bernoulli(@p rate) single-flit uniform packets, one draw per node. */
void
injectUniform(Network& net, Rng& gen, double rate, std::uint64_t& id,
              std::int64_t cycle)
{
    for (int n = 0; n < 64; ++n) {
        if (gen.nextBool(rate)) {
            Packet p;
            p.id = ++id;
            p.src = n;
            p.dest = static_cast<int>(gen.nextBounded(64));
            if (p.dest == n)
                continue;
            p.size = 1;
            p.createTime = cycle;
            net.endpoint(n).enqueue(p);
        }
    }
}

/**
 * Collect completions as runExperiment does: skip quiet endpoints and
 * drain the rest into one reused @p scratch vector. The by-value
 * drainEjected() would swap out the endpoint's reserved vector, so
 * its next ejection allocates inside the timed loop.
 */
void
collectEjected(Network& net, std::vector<EjectedPacket>& scratch)
{
    for (int n = 0; n < 64; ++n) {
        if (net.endpoint(n).ejectedCount() == 0)
            continue;
        scratch.clear();
        net.endpoint(n).drainEjectedInto(scratch);
    }
    benchmark::DoNotOptimize(scratch.data());
}

/**
 * The overhead gate's pair (BM_NetworkCycle/30 vs
 * BM_NetworkCycleObsIdle) simulates one trajectory: the same seed,
 * load and order of operations. Both warm the network up past its
 * fill-up transient untimed, then time the same fixed span of cycles,
 * so neither side's calibrated iteration count decides which part of
 * the trajectory it times.
 */
constexpr std::int64_t kWarmupCycles = 2000;
constexpr benchmark::IterationCount kTimedCycles = 8000;

/** Step untimed to cycle kWarmupCycles with the timed loop's traffic. */
void
warmUp(Network& net, Rng& gen, double rate, std::uint64_t& id,
       std::int64_t& cycle, std::vector<EjectedPacket>& scratch)
{
    while (cycle < kWarmupCycles) {
        injectUniform(net, gen, rate, id, cycle);
        net.step(cycle++);
        collectEjected(net, scratch);
    }
}

void
BM_RoundRobinArbiter(benchmark::State& state)
{
    RoundRobinArbiter arb(10);
    const std::uint64_t req = 0b1111110111; // all ten but requester 3
    for (auto _ : state)
        benchmark::DoNotOptimize(arb.arbitrate(req));
}
BENCHMARK(BM_RoundRobinArbiter);

void
BM_Rng(benchmark::State& state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.nextBounded(64));
}
BENCHMARK(BM_Rng);

void
BM_NetworkCycle(benchmark::State& state)
{
    const double rate = static_cast<double>(state.range(0)) / 100.0;
    SimConfig cfg = netConfig("footprint");
    setQuiet(true);
    Network net(cfg);
    Rng gen(7);
    std::uint64_t id = 0;
    std::int64_t cycle = 0;
    std::vector<EjectedPacket> scratch;
    warmUp(net, gen, rate, id, cycle, scratch);
    for (auto _ : state) {
        injectUniform(net, gen, rate, id, cycle);
        net.step(cycle++);
        collectEjected(net, scratch);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkCycle)->Arg(10)->Arg(30)->Arg(45)->Iterations(
    kTimedCycles);

void
BM_NetworkCycleObsIdle(benchmark::State& state)
{
    // What runExperiment runs every cycle with every observer off,
    // against BM_NetworkCycle/30's loop (the <=2% disabled-overhead CI
    // gate, check_telemetry_overhead.py): the auditor and watchdog it
    // builds on every run, at interval 0 as with audit off, their
    // ticks and the deadlock test, and the flight-recorder null check
    // (which also covers the heatmap and the chrome counters). The
    // network carries no profiler, as with profile off.
    SimConfig cfg = netConfig("footprint");
    setQuiet(true);
    Network net(cfg);
    InvariantAuditor::Params ap;
    ap.interval = 0;
    Watchdog::Params wp;
    wp.interval = 0;
    InvariantAuditor auditor(net, ap);
    Watchdog watchdog(net, nullptr, wp);
    std::unique_ptr<FlightRecorder> recorder;     // disabled => null
    Rng gen(7);
    std::uint64_t id = 0;
    std::int64_t cycle = 0;
    std::vector<EjectedPacket> scratch;
    warmUp(net, gen, 0.30, id, cycle, scratch);
    for (auto _ : state) {
        injectUniform(net, gen, 0.30, id, cycle);
        net.step(cycle);
        auditor.tick(cycle);
        watchdog.tick(cycle);
        if (watchdog.deadlockDetected()) {
            state.SkipWithError("deadlock");
            break;
        }
        if (recorder)
            recorder->tick(cycle);
        benchmark::DoNotOptimize(recorder);
        ++cycle;
        collectEjected(net, scratch);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkCycleObsIdle)->Iterations(kTimedCycles);

void
BM_RoutingFunction(benchmark::State& state)
{
    // Measure the whole-network step cost per algorithm at a fixed
    // moderate load; differences expose per-algorithm routing cost.
    const auto algos = allRoutingAlgorithmNames();
    const std::string algo = algos[static_cast<std::size_t>(
        state.range(0))];
    state.SetLabel(algo);
    SimConfig cfg = netConfig(algo);
    setQuiet(true);
    Network net(cfg);
    Rng gen(7);
    std::uint64_t id = 0;
    std::int64_t cycle = 0;
    std::vector<EjectedPacket> scratch;
    for (auto _ : state) {
        injectUniform(net, gen, 0.3, id, cycle);
        net.step(cycle++);
        collectEjected(net, scratch);
    }
}
BENCHMARK(BM_RoutingFunction)->DenseRange(0, 6);

} // namespace
} // namespace footprint

BENCHMARK_MAIN();
