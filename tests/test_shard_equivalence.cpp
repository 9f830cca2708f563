/**
 * @file
 * Step-engine equivalence tests. Every step mode at every thread count
 * must be observationally identical to full stepping on one thread —
 * same injected/ejected totals, same per-packet hop and latency sums,
 * same per-router event counters and link state — for every routing
 * algorithm. Activity stepping must match full stepping idle, at low
 * load and past saturation; verify mode (full stepping that
 * cross-checks the wake set) must never trip its under-wake
 * invariant; and bands stepped in parallel must match for any thread
 * count, including band seams that do not divide the mesh and thread
 * counts above the machine's core count. Also checks the band-boundary
 * mechanics directly: a credit loop that crosses bands must round-trip
 * every credit home, bands may be re-cut anywhere between any two
 * steps, a panic inside a parallel phase must surface from step()
 * without stranding the crew, and a traced run, whose bands all step
 * on the calling thread, must match a one-band run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "expect_panic.hpp"
#include "heatmap_doc.hpp"
#include "network/network.hpp"
#include "network/traffic_manager.hpp"
#include "obs/profiler.hpp"
#include "obs/run_metadata.hpp"
#include "obs/timeseries.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "sim/horizon.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"
#include "traffic/injection.hpp"

namespace footprint {
namespace {

/**
 * Fold everything observable about @p net's state into @p sig: the
 * network totals, every router's event counters, and the link
 * fabric's per-link lane state.
 */
void
foldNetwork(const Network& net, std::vector<std::uint64_t>& sig)
{
    sig.push_back(net.totalFlitsInjected());
    sig.push_back(net.totalFlitsEjected());
    sig.push_back(
        static_cast<std::uint64_t>(net.totalFlitsInFlight()));
    sig.push_back(net.totalFlitsSent());
    for (int n = 0; n < net.mesh().numNodes(); ++n) {
        const Router::Counters& c = net.router(n).counters();
        sig.push_back(c.vcAllocSuccess);
        sig.push_back(c.vcAllocFail);
        for (const std::uint64_t g : c.vaGrantsByPriority)
            sig.push_back(g);
        sig.push_back(c.flitsTraversed);
        sig.push_back(c.puritySamples);
        sig.push_back(c.puritySum);
    }
    // Link-fabric lane state: per-link sent counters, in-flight
    // occupancy and head arrival cycles live in the network-owned flat
    // arenas (DESIGN.md §17), so fold them in directly — any
    // divergence in transmit order or credit return between step
    // modes shows up here even when the aggregate totals above happen
    // to agree.
    const LinkFabric& fab = net.linkFabric();
    auto fold_pipe = [&sig](const auto& pipe) {
        sig.push_back(static_cast<std::uint64_t>(pipe.inFlightCount()));
        if (!pipe.empty())
            sig.push_back(
                static_cast<std::uint64_t>(pipe.inFlightReadyCycle(0)));
    };
    for (const Network::LinkRecord& l : net.links()) {
        sig.push_back(fab.flitSent(l.flitId));
        fold_pipe(*l.flit);
        fold_pipe(*l.credit);
    }
}

/**
 * Drive an 8x8 mesh with a deterministic schedule-driven workload and
 * fold everything observable into a flat signature, so every mode and
 * thread count is cross-checked against one reference behavior. Two
 * runs are behaviorally identical iff their signatures match. With
 * @p skip_ahead the driver jumps idle spans via the event-horizon fast
 * path (DESIGN.md §16); the signature must not change.
 */
std::vector<std::uint64_t>
runSignature(const std::string& routing, double load,
             const char* step_mode, std::int64_t cycles,
             int threads = 1, Profiler* prof = nullptr,
             bool heatmap = false, bool skip_ahead = false)
{
    SimConfig cfg = defaultConfig();
    cfg.set("routing", routing);
    cfg.set("step_mode", step_mode);
    cfg.setInt("threads", threads);
    Network net(cfg);
    const int nodes = net.mesh().numNodes();
    if (prof) {
        net.attachProfiler(prof);
        prof->beginRun();
    }
    std::unique_ptr<FlightRecorder> rec;  ///< keeps the heatmap grids
    if (heatmap) {
        rec = std::make_unique<FlightRecorder>(
            net,
            heatmapRecorderConfig(100, 4,
                                  "fp_shard_hm_" + routing + "_"
                                      + step_mode + ".json"),
            RunMetadata());
    }

    Rng gen(99);
    std::unique_ptr<InjectionSchedule> sched;
    if (load > 0.0)
        sched = std::make_unique<InjectionSchedule>(nodes, load, gen);
    std::uint64_t id = 0;
    std::uint64_t drained = 0;
    std::uint64_t hops_sum = 0;
    std::uint64_t latency_sum = 0;
    for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
        if (sched) {
            for (int slot; (slot = sched->popDue(cycle)) >= 0;) {
                const int dest =
                    static_cast<int>(gen.nextBounded(nodes));
                const int size =
                    1 + static_cast<int>(gen.nextBounded(3));
                sched->scheduleNext(slot, cycle, gen);
                if (dest == slot)
                    continue;
                Packet p;
                p.id = ++id;
                p.src = slot;
                p.dest = dest;
                p.size = size;
                p.createTime = cycle;
                p.measured = true;
                net.endpoint(slot).enqueue(p);
            }
        }
        net.step(cycle);
        if (rec)
            rec->tick(cycle);
        for (int n = 0; n < nodes; ++n) {
            for (const EjectedPacket& p :
                 net.endpoint(n).drainEjected()) {
                ++drained;
                hops_sum += static_cast<std::uint64_t>(p.hops);
                latency_sum +=
                    static_cast<std::uint64_t>(p.latency());
            }
        }
        if (skip_ahead && net.idle()) {
            HorizonTracker hz(cycle + 1, cycles);
            if (sched)
                hz.clamp(sched->nextFireCycle());
            if (hz.skips()) {
                net.skipTo(hz.cycle());
                if (rec)
                    rec->tick(hz.cycle() - 1);
                cycle = hz.cycle() - 1;
            }
        }
    }
    if (prof)
        prof->endRun(cycles);
    if (rec)  // never finished: the document stays unwritten
        std::remove(rec->config().heatmapOut.c_str());

    std::vector<std::uint64_t> sig = {drained, hops_sum, latency_sum};
    foldNetwork(net, sig);
    return sig;
}

/** Base config for the lockstep tests: 8x8 mesh, one step mode. */
SimConfig
lockstepConfig(const char* step_mode, int threads = 1)
{
    SimConfig cfg = defaultConfig();
    cfg.set("routing", "footprint");
    cfg.set("step_mode", step_mode);
    cfg.setInt("threads", threads);
    return cfg;
}

/**
 * One 2-flit packet across the 8x8 mesh, stepped with a cycle gap
 * (drivers may skip cycles, e.g. a warmup loop); a gap forces a full
 * sweep to re-seed the wake set. Returns the network totals.
 */
std::vector<std::uint64_t>
nonContiguousTotals(const char* mode, int threads)
{
    SimConfig cfg = defaultConfig();
    cfg.set("step_mode", mode);
    cfg.setInt("threads", threads);
    Network net(cfg);
    Packet p;
    p.id = 1;
    p.src = 0;
    p.dest = 63;
    p.size = 2;
    p.createTime = 0;
    net.endpoint(0).enqueue(p);
    for (std::int64_t c = 0; c < 40; ++c)
        net.step(c);
    net.step(100); // jump
    for (std::int64_t c = 101; c < 140; ++c)
        net.step(c);
    return {net.totalFlitsInjected(), net.totalFlitsEjected(),
            static_cast<std::uint64_t>(net.totalFlitsInFlight()),
            net.totalFlitsSent()};
}

/** Test-name suffix for a routing name ("dor+xordet" -> "dor_xordet"). */
std::string
routingTestName(const testing::TestParamInfo<std::string>& info)
{
    std::string name = info.param;
    std::replace(name.begin(), name.end(), '+', '_');
    return name;
}

/**
 * Step a reference and a candidate network in lockstep under the same
 * schedule-driven workload and require identical state after every
 * cycle: the network fold plus the packets each drained that cycle.
 * @p between runs on the candidate before each of its steps (the
 * band re-cut hook).
 */
void
expectLockstep(const SimConfig& ref_cfg, const SimConfig& cand_cfg,
               double load, std::int64_t cycles,
               const std::function<void(Network&, std::int64_t)>&
                   between = {})
{
    Network ref(ref_cfg);
    Network cand(cand_cfg);
    const int nodes = ref.mesh().numNodes();
    Rng gen(99);
    InjectionSchedule sched(nodes, load, gen);
    std::uint64_t id = 0;
    for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
        for (int slot; (slot = sched.popDue(cycle)) >= 0;) {
            const int dest = static_cast<int>(gen.nextBounded(nodes));
            const int size = 1 + static_cast<int>(gen.nextBounded(3));
            sched.scheduleNext(slot, cycle, gen);
            if (dest == slot)
                continue;
            Packet p;
            p.id = ++id;
            p.src = slot;
            p.dest = dest;
            p.size = size;
            p.createTime = cycle;
            p.measured = true;
            ref.endpoint(slot).enqueue(p);
            cand.endpoint(slot).enqueue(p);
        }
        if (between)
            between(cand, cycle);
        ref.step(cycle);
        cand.step(cycle);
        std::vector<std::uint64_t> ref_sig;
        std::vector<std::uint64_t> cand_sig;
        for (auto [net, sig] : {std::pair{&ref, &ref_sig},
                                std::pair{&cand, &cand_sig}}) {
            for (int n = 0; n < nodes; ++n) {
                for (const EjectedPacket& p :
                     net->endpoint(n).drainEjected()) {
                    sig->push_back(p.packetId);
                    sig->push_back(static_cast<std::uint64_t>(p.hops));
                    sig->push_back(
                        static_cast<std::uint64_t>(p.latency()));
                }
            }
            foldNetwork(*net, *sig);
        }
        ASSERT_EQ(ref_sig, cand_sig) << "diverged at cycle " << cycle;
    }
}

/**
 * Random band starts for @p shards bands over @p nodes nodes: sorted
 * distinct cuts anywhere (so mostly inside an ActiveSet word), or,
 * with @p one_node_bands, a run of single-node bands at a random spot.
 */
std::vector<int>
randomBandStarts(Rng& rng, int nodes, int shards, bool one_node_bands)
{
    std::vector<int> starts(static_cast<std::size_t>(shards), 0);
    if (one_node_bands) {
        const int at = 1
            + static_cast<int>(rng.nextBounded(
                static_cast<std::uint64_t>(nodes - shards + 1)));
        for (int s = 1; s < shards; ++s)
            starts[static_cast<std::size_t>(s)] = at + s - 1;
        return starts;
    }
    std::vector<int> cuts;
    for (int c = 1; c < nodes; ++c)
        cuts.push_back(c);
    // Partial Fisher-Yates: the first shards-1 entries become a
    // uniform sample of distinct cut points.
    for (int s = 0; s < shards - 1; ++s) {
        const auto j = static_cast<std::size_t>(s)
            + rng.nextBounded(cuts.size() - static_cast<std::size_t>(s));
        std::swap(cuts[static_cast<std::size_t>(s)], cuts[j]);
    }
    std::sort(cuts.begin(), cuts.begin() + (shards - 1));
    for (int s = 1; s < shards; ++s)
        starts[static_cast<std::size_t>(s)] =
            cuts[static_cast<std::size_t>(s - 1)];
    return starts;
}

class StepEquivalence : public testing::TestWithParam<std::string>
{};

TEST_P(StepEquivalence, ActivityMatchesFullAtLowLoad)
{
    const auto full = runSignature(GetParam(), 0.05, "full", 400);
    const auto act = runSignature(GetParam(), 0.05, "activity", 400);
    EXPECT_EQ(full, act);
}

TEST_P(StepEquivalence, ActivityMatchesFullPastSaturation)
{
    const auto full = runSignature(GetParam(), 0.6, "full", 400);
    const auto act = runSignature(GetParam(), 0.6, "activity", 400);
    EXPECT_EQ(full, act);
}

TEST_P(StepEquivalence, ActivityMatchesFullOnIdleNetwork)
{
    // Nothing ever injected: the active list should go (and stay)
    // empty, and the totals must agree with stepping everything.
    const auto full = runSignature(GetParam(), 0.0, "full", 200);
    const auto act = runSignature(GetParam(), 0.0, "activity", 200);
    EXPECT_EQ(full, act);
}

TEST_P(StepEquivalence, VerifyModeFindsNoUnderWake)
{
    // Verify mode steps every component after FP_ASSERTing that each
    // one the wake set would have skipped is genuinely quiescent; any
    // under-wake bug panics with an InvariantError here. Full and
    // verify bands list every component they own and step them in
    // parallel like activity bands; the cycle must not change.
    const auto full = runSignature(GetParam(), 0.15, "full", 300);
    EXPECT_EQ(runSignature(GetParam(), 0.15, "verify", 300), full);
    EXPECT_EQ(runSignature(GetParam(), 0.15, "full", 300, 4), full);
    EXPECT_EQ(runSignature(GetParam(), 0.15, "verify", 300, 4), full);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, StepEquivalence,
                         testing::ValuesIn(allRoutingAlgorithmNames()),
                         routingTestName);

TEST(StepEquivalence, NonContiguousCyclesStillMatch)
{
    EXPECT_EQ(nonContiguousTotals("full", 1),
              nonContiguousTotals("activity", 1));
}

class ShardEquivalence : public testing::TestWithParam<std::string>
{};

TEST_P(ShardEquivalence, TwoThreadsMatchFullAtLowLoad)
{
    const auto full = runSignature(GetParam(), 0.05, "full", 400);
    const auto sharded =
        runSignature(GetParam(), 0.05, "sharded", 400, 2);
    EXPECT_EQ(full, sharded);
}

TEST_P(ShardEquivalence, FourThreadsMatchFullAtMediumLoad)
{
    const auto full = runSignature(GetParam(), 0.15, "full", 300);
    const auto sharded =
        runSignature(GetParam(), 0.15, "sharded", 300, 4);
    EXPECT_EQ(full, sharded);
}

TEST_P(ShardEquivalence, SkipAheadMatchesPerCycleAcrossModes)
{
    // Load low enough that the network drains to quiescence between
    // arrival bursts: the skip-ahead runs jump those idle spans while
    // the reference ticks through them, and every observable total
    // must still agree bit for bit — serially and across shard seams.
    const auto full = runSignature(GetParam(), 0.01, "full", 600);
    const auto act_skip = runSignature(GetParam(), 0.01, "activity",
                                       600, 1, nullptr, false, true);
    const auto sharded_skip = runSignature(GetParam(), 0.01, "sharded",
                                           600, 4, nullptr, false, true);
    EXPECT_EQ(full, act_skip);
    EXPECT_EQ(full, sharded_skip);
}

TEST_P(ShardEquivalence, ThreadCountsAgreeNearSaturation)
{
    // Past saturation every shard is busy every cycle, so cross-shard
    // channel and wake traffic is at its densest.
    const auto full = runSignature(GetParam(), 0.45, "full", 300);
    const auto t2 = runSignature(GetParam(), 0.45, "sharded", 300, 2);
    const auto t4 = runSignature(GetParam(), 0.45, "sharded", 300, 4);
    EXPECT_EQ(full, t2);
    EXPECT_EQ(full, t4);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ShardEquivalence,
                         testing::ValuesIn(allRoutingAlgorithmNames()),
                         routingTestName);

TEST(ShardEquivalence, OneThreadMatchesActivityExactly)
{
    // "sharded" is the old name of "activity": at one thread both
    // step one band on the calling thread, identically.
    const auto act =
        runSignature("footprint", 0.30, "activity", 400);
    const auto sharded =
        runSignature("footprint", 0.30, "sharded", 400, 1);
    EXPECT_EQ(act, sharded);
}

/** The RunStats fields perfbench's run digest hashes, flattened. */
std::vector<double>
digestFields(const RunStats& s)
{
    std::vector<double> f = {
        static_cast<double>(s.cyclesRun),
        static_cast<double>(s.measuredCreated),
        static_cast<double>(s.measuredEjected),
        static_cast<double>(s.latency.count()),
        s.latency.mean(),
        s.latencyHdr.percentile(0.50),
        s.latencyHdr.percentile(0.99),
        static_cast<double>(s.hotspotLatency.count()),
        s.hops.mean(),
        s.acceptedFlitsPerNodeCycle,
        s.drained ? 1.0 : 0.0,
        static_cast<double>(s.counters.vcAllocSuccess),
        static_cast<double>(s.counters.vcAllocFail),
        s.counters.puritySum,
        static_cast<double>(s.counters.puritySamples),
        static_cast<double>(s.counters.flitsTraversed)};
    for (const std::uint64_t g : s.counters.vaGrantsByPriority)
        f.push_back(static_cast<double>(g));
    return f;
}

TEST(ShardEquivalence, TracedRunStepsEveryBandOnTheCaller)
{
    // The packet tracer records from hooks inside the phases, so a
    // traced network steps all its bands on the calling thread, one
    // phase at a time: the one path where a thread steps several
    // bands. Its results and its packet trace must match one band's.
    struct Traced
    {
        RunStats stats;
        std::string traceBody;  ///< without the header line
        std::string log;
    };
    auto run = [](int threads) {
        SimConfig cfg = defaultConfig();
        cfg.set("routing", "dbar");
        cfg.setDouble("injection_rate", 0.25);
        cfg.setInt("warmup_cycles", 200);
        cfg.setInt("measure_cycles", 400);
        cfg.setInt("drain_cycles", 2000);
        cfg.setInt("threads", threads);
        const std::string tag = "fp_traced_t" + std::to_string(threads);
        cfg.setInt("trace_packets", 400);
        cfg.set("trace_out", tag + ".jsonl");
        cfg.setBool("chrome_trace", true);
        cfg.set("chrome_trace_out", tag + ".json");
        std::ostringstream sink;
        setLogSink(&sink);
        Traced t{runExperiment(cfg), "", ""};
        setLogSink(nullptr);
        t.log = sink.str();
        std::ifstream in(tag + ".jsonl");
        std::string header;
        std::getline(in, header);
        std::ostringstream body;
        body << in.rdbuf();
        t.traceBody = body.str();
        std::remove((tag + ".jsonl").c_str());
        std::remove((tag + ".json").c_str());
        return t;
    };
    const Traced one = run(1);
    const Traced four = run(4);
    ASSERT_FALSE(one.traceBody.empty());
    EXPECT_GT(one.stats.measuredEjected, 0u);
    EXPECT_EQ(digestFields(one.stats), digestFields(four.stats));
    EXPECT_EQ(one.stats.stallClass, four.stats.stallClass);
    EXPECT_EQ(one.traceBody, four.traceBody);
    // Only the four-band network had a crew to set aside.
    EXPECT_EQ(one.log.find("calling thread"), std::string::npos);
    EXPECT_NE(four.log.find("calling thread"), std::string::npos);
}

TEST(ShardEquivalence, OddShardCountThatDoesNotDivideTheMesh)
{
    // 64 nodes into 7 bands: band sizes differ and band seams fall
    // mid-row, so band-crossing links appear in both directions.
    const auto full = runSignature("dbar", 0.20, "full", 300);
    const auto sharded =
        runSignature("dbar", 0.20, "sharded", 300, 7);
    EXPECT_EQ(full, sharded);
}

TEST(ShardEquivalence, ThreadsClampToNodeCount)
{
    // More threads than the mesh has nodes: the band count clamps to
    // the node count and the extra threads never materialize.
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 2);
    cfg.setInt("mesh_height", 2);
    cfg.set("step_mode", "sharded");
    cfg.setInt("threads", 16);
    Network net(cfg);
    Packet p;
    p.id = 1;
    p.src = 0;
    p.dest = 3;
    p.size = 3;
    p.createTime = 0;
    net.endpoint(0).enqueue(p);
    for (std::int64_t c = 0; c < 100; ++c)
        net.step(c);
    EXPECT_EQ(net.totalFlitsEjected(), 3u);
    EXPECT_EQ(net.totalFlitsInFlight(), 0);
}

TEST(ShardEquivalence, NonContiguousCyclesStillMatch)
{
    // A cycle jump re-seeds the wake bitmap; four parallel bands must
    // handle it the same way one does.
    EXPECT_EQ(nonContiguousTotals("full", 1),
              nonContiguousTotals("sharded", 4));
}

TEST(ShardEquivalence, ProfiledShardedRunIsBitIdentical)
{
    // A four-band run with the self-profiler attached and the
    // recorder's heatmap sampling every 4 cycles must produce the
    // exact signature of an unprofiled full run — profiling reads
    // clocks and network state, never writes.
    const auto full = runSignature("footprint", 0.30, "full", 300);
    Profiler prof;
    const auto profiled = runSignature("footprint", 0.30, "sharded",
                                       300, 4, &prof, true);
    EXPECT_EQ(full, profiled);

    // The profiler must actually have measured the run it rode along.
    EXPECT_EQ(prof.cycles(), 300);
    EXPECT_GT(prof.runSeconds(), 0.0);
    EXPECT_TRUE(prof.sharded());
    EXPECT_GT(prof.phaseCalls(ProfPhase::Epilogue), 0u);
    EXPECT_GT(prof.barrierWaits().count(), 0u);
    double busy = 0.0;
    for (int s = 0; s < prof.shardCount(); ++s)
        busy += prof.shardBusySeconds(s);
    EXPECT_GT(busy, 0.0);
    EXPECT_GE(prof.imbalanceRatio(), 1.0);
    // Several bands carry no per-phase split.
    EXPECT_EQ(prof.phaseCalls(ProfPhase::Compute), 0u);
    // The network reported its bands: one start per band, from 0 up.
    const std::vector<int>& bands = prof.bandStarts();
    ASSERT_EQ(static_cast<int>(bands.size()), prof.shardCount());
    EXPECT_EQ(bands[0], 0);
    EXPECT_TRUE(std::is_sorted(bands.begin(), bands.end()));
}

TEST(ShardEquivalence, ProfiledSerialModesAreBitIdentical)
{
    const auto full = runSignature("dbar", 0.20, "full", 300);
    Profiler act_prof;
    const auto act = runSignature("dbar", 0.20, "activity", 300, 1,
                                  &act_prof, true);
    EXPECT_EQ(full, act);
    EXPECT_GT(act_prof.phaseSeconds(ProfPhase::Compute), 0.0);
    EXPECT_EQ(act_prof.phaseCalls(ProfPhase::Drain), 300u);
    EXPECT_FALSE(act_prof.sharded());

    Profiler full_prof;
    const auto full_profiled = runSignature("dbar", 0.20, "full", 300,
                                            1, &full_prof, false);
    EXPECT_EQ(full, full_profiled);
    EXPECT_EQ(full_prof.phaseCalls(ProfPhase::Transmit), 300u);
}

TEST(ShardEquivalence, DisabledProfilerDetaches)
{
    // attachProfiler(nullptr) detaches a multi-band network's
    // profiler: the hot path records nothing more.
    Network net(lockstepConfig("sharded", 2));
    Profiler prof;
    net.attachProfiler(&prof);
    net.attachProfiler(nullptr);
    for (std::int64_t cycle = 0; cycle < 50; ++cycle)
        net.step(cycle);
    EXPECT_EQ(prof.phaseCalls(ProfPhase::Epilogue), 0u);
    EXPECT_EQ(prof.barrierWaits().count(), 0u);
}

TEST(ShardEquivalence, CreditRoundTripAcrossShardBoundary)
{
    // 2x2 mesh split into two bands of one row each: node 0 -> 3
    // crosses the band seam, so its flits, the ejection credits, and
    // the descriptor release all traverse band-boundary machinery.
    // After the packet drains, every credit must be back home: each
    // router's output-credit total equals a never-used network's.
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 2);
    cfg.setInt("mesh_height", 2);
    cfg.set("step_mode", "sharded");
    cfg.setInt("threads", 2);
    Network net(cfg);
    Network fresh(cfg);

    Packet p;
    p.id = 1;
    p.src = 0;
    p.dest = 3;
    p.size = 4;
    p.createTime = 0;
    net.endpoint(0).enqueue(p);
    for (std::int64_t c = 0; c < 200; ++c)
        net.step(c);

    EXPECT_EQ(net.totalFlitsInjected(), 4u);
    EXPECT_EQ(net.totalFlitsEjected(), 4u);
    EXPECT_EQ(net.totalFlitsInFlight(), 0);
    EXPECT_EQ(net.packetPool().liveCount(), 0u);
    for (int n = 0; n < 4; ++n) {
        EXPECT_EQ(net.router(n).totalOutputCredits(),
                  fresh.router(n).totalOutputCredits())
            << "credits failed to round-trip at router " << n;
    }
}

TEST(ShardEquivalence, ForcedRecutsMatchActivityEveryCycle)
{
    // Bands re-cut between steps — every few cycles, to random
    // boundaries that split ActiveSet words, and to runs of 1-node
    // bands — must leave every cycle's state identical to one-band
    // activity stepping, at 2, 3, 4, 6 and 8 threads. The measured
    // re-cut keeps running on top.
    for (const int threads : {2, 3, 4, 6, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        Rng rng(1234 + static_cast<std::uint64_t>(threads * 16));
        int draws = 0;
        expectLockstep(
            lockstepConfig("activity"),
            lockstepConfig("sharded", threads), 0.30, 300,
            [&](Network& net, std::int64_t cycle) {
                if (cycle % 5 != 0)
                    return;
                const std::vector<int> starts = randomBandStarts(
                    rng, net.mesh().numNodes(), net.shardCount(),
                    ++draws % 3 == 0);
                net.setBandStarts(starts);
                for (int s = 0; s < net.shardCount(); ++s)
                    ASSERT_EQ(net.bandStart(s),
                              starts[static_cast<std::size_t>(s)]);
            });
    }
}

TEST(ShardEquivalence, BandStartsMustTileTheMesh)
{
    Network net(lockstepConfig("sharded", 4));
    ASSERT_EQ(net.shardCount(), 4);
    // The first cut is equal node counts.
    EXPECT_EQ(net.bandStart(1), 16);
    EXPECT_EQ(net.bandStart(3), 48);
    const std::vector<int> empty_band = {0, 8, 8, 40};
    const std::vector<int> late_start = {1, 8, 16, 40};
    const std::vector<int> too_few = {0, 8, 64};
    const std::vector<int> past_end = {0, 8, 16, 64};
    EXPECT_PANIC(net.setBandStarts(empty_band), "strictly increase");
    EXPECT_PANIC(net.setBandStarts(late_start), "starting at 0");
    EXPECT_PANIC(net.setBandStarts(too_few), "one entry per band");
    EXPECT_PANIC(net.setBandStarts(past_end), "strictly increase");
    // A rejected install leaves the bands untouched.
    EXPECT_EQ(net.bandStart(1), 16);
}

TEST(ShardEquivalence, CrewStopsWithoutEverStepping)
{
    // A network destroyed right after construction must still stop and
    // join crew members that have not reached the barrier yet.
    for (int i = 0; i < 50; ++i) {
        Network net(lockstepConfig("sharded", 4));
        EXPECT_EQ(net.shardCount(), 4);
    }
}

TEST(ShardEquivalence, PanicInShardedPhaseRethrowsAndDestructs)
{
    // A flit on an out-of-range VC panics in the receiving router's
    // receive phase, on whichever crew member owns it. step() must
    // rethrow the InvariantError after the end round, and the network
    // must still stop and join its crew on destruction.
    for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        Network net(lockstepConfig("sharded", threads));
        for (std::int64_t c = 0; c < 5; ++c)
            net.step(c);
        // The last router-to-router link into the highest node: its
        // receiver sits in the last band, off the calling thread.
        const Network::LinkRecord* into_last = nullptr;
        for (const Network::LinkRecord& l : net.links()) {
            if (l.kind == Network::LinkRecord::Kind::RouterToRouter
                && l.dstNode == net.mesh().numNodes() - 1)
                into_last = &l;
        }
        ASSERT_NE(into_last, nullptr);
        Flit bad;
        bad.vc = static_cast<std::int16_t>(net.routerParams().numVcs);
        bad.head = bad.tail = true;
        into_last->flit->send(bad, 4);
        EXPECT_PANIC(net.step(5), "bad VC");
    }
}

TEST(ShardEquivalence, InFlightItemsSelfSustainWithSlowLinks)
{
    // Multi-cycle links keep items in flight across several receive
    // phases, so the receive-time in-flight flag carries the wake
    // chain there. step_mode=verify panics on any component the rule
    // would have left asleep with pending work; parallel bands (each
    // rescheduling right after its own transmit) must match one-band
    // activity stepping on every cycle.
    auto slow = [](SimConfig cfg) {
        cfg.setInt("link_latency_x", 3);
        cfg.setInt("link_latency_y", 2);
        return cfg;
    };
    expectLockstep(slow(lockstepConfig("full")),
                   slow(lockstepConfig("verify")), 0.20, 300);
    expectLockstep(slow(lockstepConfig("activity")),
                   slow(lockstepConfig("sharded", 4)), 0.20, 300);
    // A light load drains between bursts, so wakes start from quiet
    // components too.
    expectLockstep(slow(lockstepConfig("activity")),
                   slow(lockstepConfig("sharded", 5)), 0.02, 400);
}

} // namespace
} // namespace footprint
