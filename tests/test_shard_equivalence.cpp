/**
 * @file
 * Sharded-stepping equivalence tests: step_mode=sharded must be
 * observationally identical to full and activity stepping — same
 * injected/ejected totals, same per-packet hop and latency sums, same
 * per-router event counters — for every routing algorithm, any thread
 * count, and any shard count, including shard counts that do not
 * divide the mesh and thread counts above the machine's core count.
 * Also checks the shard-boundary mechanics directly: a credit loop
 * that crosses shards must round-trip every credit home, bands may be
 * re-cut anywhere between any two steps, and a panic inside a sharded
 * phase must surface from step() without stranding the crew.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "expect_panic.hpp"
#include "heatmap_doc.hpp"
#include "network/network.hpp"
#include "obs/profiler.hpp"
#include "obs/run_metadata.hpp"
#include "obs/timeseries.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "sim/horizon.hpp"
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
 * fold everything observable into a flat signature (the same workload
 * and signature as test_step_equivalence, so all modes are
 * cross-checked against one reference behavior). With @p skip_ahead
 * the driver jumps idle spans via the event-horizon fast path
 * (DESIGN.md §16); the signature must not change.
 */
std::vector<std::uint64_t>
runSignature(const std::string& routing, double load,
             const char* step_mode, std::int64_t cycles,
             int threads = 1, int shards = 0,
             Profiler* prof = nullptr, bool heatmap = false,
             bool skip_ahead = false)
{
    SimConfig cfg = defaultConfig();
    cfg.set("routing", routing);
    cfg.set("step_mode", step_mode);
    cfg.setInt("threads", threads);
    cfg.setInt("shards", shards);
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
lockstepConfig(const char* step_mode, int threads = 1, int shards = 0)
{
    SimConfig cfg = defaultConfig();
    cfg.set("routing", "footprint");
    cfg.set("step_mode", step_mode);
    cfg.setInt("threads", threads);
    cfg.setInt("shards", shards);
    return cfg;
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
                                       600, 1, 0, nullptr, false,
                                       true);
    const auto sharded_skip = runSignature(GetParam(), 0.01, "sharded",
                                           600, 4, 0, nullptr, false,
                                           true);
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

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ShardEquivalence,
    testing::ValuesIn(allRoutingAlgorithmNames()),
    [](const testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (c == '+')
                c = '_';
        }
        return name;
    });

TEST(ShardEquivalence, OneThreadMatchesActivityExactly)
{
    // threads=1 sharded takes the same phase path as the parallel
    // runs (per-shard drains, barrier epilogue), just on one thread;
    // it must match serial activity stepping, not merely full.
    const auto act =
        runSignature("footprint", 0.30, "activity", 400);
    const auto sharded =
        runSignature("footprint", 0.30, "sharded", 400, 1);
    EXPECT_EQ(act, sharded);
}

TEST(ShardEquivalence, MoreShardsThanThreads)
{
    // shards=8 on 2 threads: each worker owns several bands and the
    // barrier has fewer parties than shards.
    const auto full = runSignature("footprint", 0.20, "full", 300);
    const auto sharded =
        runSignature("footprint", 0.20, "sharded", 300, 2, 8);
    EXPECT_EQ(full, sharded);
}

TEST(ShardEquivalence, OddShardCountThatDoesNotDivideTheMesh)
{
    // 64 nodes into 7 bands: band sizes differ and band seams fall
    // mid-row, so shard-crossing links appear in both directions.
    const auto full = runSignature("dbar", 0.20, "full", 300);
    const auto sharded =
        runSignature("dbar", 0.20, "sharded", 300, 7, 7);
    EXPECT_EQ(full, sharded);
}

TEST(ShardEquivalence, ThreadsClampToNodeCount)
{
    // More threads than the mesh has nodes: shard count clamps to the
    // node count and the extra threads never materialize.
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
    // A cycle jump forces a full re-seed of the wake bitmap; sharded
    // mode must handle it the same way activity mode does.
    auto run = [](const char* mode, int threads) {
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
        return std::vector<std::uint64_t>{
            net.totalFlitsInjected(), net.totalFlitsEjected(),
            static_cast<std::uint64_t>(net.totalFlitsInFlight()),
            net.totalFlitsSent()};
    };
    EXPECT_EQ(run("full", 1), run("sharded", 4));
}

TEST(ShardEquivalence, ProfiledShardedRunIsBitIdentical)
{
    // Observability determinism satellite: a sharded run with the
    // self-profiler attached and the recorder's heatmap sampling every
    // 4 cycles must produce the exact signature of an unprofiled full
    // run — profiling reads clocks and network state, never writes.
    const auto full = runSignature("footprint", 0.30, "full", 300);
    Profiler prof;
    const auto profiled = runSignature("footprint", 0.30, "sharded",
                                       300, 4, 0, &prof, true);
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
    // The network reported its bands: one start per shard, from 0 up.
    const std::vector<int>& bands = prof.bandStarts();
    ASSERT_EQ(static_cast<int>(bands.size()), prof.shardCount());
    EXPECT_EQ(bands[0], 0);
    EXPECT_TRUE(std::is_sorted(bands.begin(), bands.end()));
}

TEST(ShardEquivalence, ProfiledSerialModesAreBitIdentical)
{
    const auto full = runSignature("dbar", 0.20, "full", 300);
    Profiler act_prof;
    const auto act = runSignature("dbar", 0.20, "activity", 300, 1, 0,
                                  &act_prof, true);
    EXPECT_EQ(full, act);
    EXPECT_GT(act_prof.phaseSeconds(ProfPhase::Compute), 0.0);
    EXPECT_EQ(act_prof.phaseCalls(ProfPhase::Drain), 300u);
    EXPECT_FALSE(act_prof.sharded());

    Profiler full_prof;
    const auto full_profiled = runSignature("dbar", 0.20, "full", 300,
                                            1, 0, &full_prof, false);
    EXPECT_EQ(full, full_profiled);
    EXPECT_EQ(full_prof.phaseCalls(ProfPhase::Transmit), 300u);
}

TEST(ShardEquivalence, DisabledProfilerDetaches)
{
    // attachProfiler(nullptr) detaches a sharded network's profiler:
    // the hot path records nothing more.
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
    // 2x2 mesh split into two shards of one row each: node 0 -> 3
    // crosses the shard seam, so its flits, the ejection credits, and
    // the descriptor release all traverse shard-boundary machinery.
    // After the packet drains, every credit must be back home: each
    // router's output-credit total equals a never-used network's.
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 2);
    cfg.setInt("mesh_height", 2);
    cfg.set("step_mode", "sharded");
    cfg.setInt("threads", 2);
    cfg.setInt("shards", 2);
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
    // bands — must leave every cycle's state identical to activity
    // stepping, at 2, 3 and 4 threads and with more shards than
    // threads. The measured re-cut keeps running on top.
    const int cases[][2] = {{2, 0}, {3, 0}, {4, 0}, {2, 6}, {3, 8}};
    for (const auto& [threads, shards] : cases) {
        SCOPED_TRACE("threads=" + std::to_string(threads)
                     + " shards=" + std::to_string(shards));
        Rng rng(1234 + static_cast<std::uint64_t>(threads * 16 + shards));
        int draws = 0;
        expectLockstep(
            lockstepConfig("activity"),
            lockstepConfig("sharded", threads, shards), 0.30, 300,
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
    Network net(lockstepConfig("sharded", 2, 4));
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
    EXPECT_PANIC(net.setBandStarts(too_few), "one entry per shard");
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
    // would have left asleep with pending work; sharded stepping
    // (which reschedules right after each shard's transmit) must
    // match activity stepping on every cycle.
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
                   slow(lockstepConfig("sharded", 3, 5)), 0.02, 400);
}

} // namespace
} // namespace footprint
