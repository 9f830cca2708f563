/**
 * @file
 * Event-horizon skip-ahead tests (DESIGN.md §16): the fast path that
 * jumps the clock over quiescent spans must be observationally
 * invisible. Covers the HorizonTracker fold itself, Network
 * idle()/skipTo() (including credits in flight as the only pending
 * event), injection landing exactly on the horizon, jump-aware window
 * closing in the flight recorder (empty windows, exact boundaries,
 * byte-identical stream records), and full runExperiment runs —
 * serial and sharded — whose statistics, timeseries bytes and
 * recorder-clocked heatmap documents must not depend on skip_ahead.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "heatmap_doc.hpp"
#include "network/network.hpp"
#include "network/traffic_manager.hpp"
#include "obs/run_metadata.hpp"
#include "obs/timeseries.hpp"
#include "sim/config.hpp"
#include "sim/horizon.hpp"
#include "sim/rng.hpp"
#include "traffic/injection.hpp"

namespace footprint {
namespace {

TEST(HorizonTracker, StartsAtTheLimitAndFoldsCandidatesDown)
{
    HorizonTracker hz(10, 1000);
    EXPECT_EQ(hz.cycle(), 1000);
    EXPECT_TRUE(hz.skips());
    hz.clamp(500);
    hz.clamp(700);  // later than current horizon: ignored
    EXPECT_EQ(hz.cycle(), 500);
    hz.clamp(10);
    EXPECT_EQ(hz.cycle(), 10);
    EXPECT_FALSE(hz.skips());  // landing on `from` skips nothing
}

TEST(HorizonTracker, PastCandidatesCannotDragTheHorizonBackwards)
{
    // A boundary already behind the clock (e.g. a long-elapsed warmup
    // end) must not produce a backwards jump.
    HorizonTracker hz(100, 1000);
    hz.clamp(40);
    hz.clamp(-5);
    EXPECT_EQ(hz.cycle(), 1000);
    hz.clamp(100);
    EXPECT_EQ(hz.cycle(), 100);
}

TEST(HorizonTracker, LimitBelowFromClampsToFrom)
{
    HorizonTracker hz(50, 20);
    EXPECT_EQ(hz.cycle(), 50);
    EXPECT_FALSE(hz.skips());
}

TEST(HorizonTracker, NeverSentinelLeavesTheLimit)
{
    HorizonTracker hz(7, 9999);
    hz.clamp(HorizonTracker::kNever);
    EXPECT_EQ(hz.cycle(), 9999);
}

/** Step net for cycles [from, to). */
void
stepRange(Network& net, std::int64_t from, std::int64_t to)
{
    for (std::int64_t c = from; c < to; ++c)
        net.step(c);
}

TEST(SkipAhead, IdleOnlyAfterEveryCreditIsHome)
{
    // After the sink ejects the tail flit, ejection credits are still
    // in flight back to the router: idle() must stay false until the
    // credit pipes drain, or a skip would erase the credit returns.
    // Checked by requiring full credit occupancy the moment idle()
    // first turns true.
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 2);
    cfg.setInt("mesh_height", 2);
    Network net(cfg);
    Network fresh(cfg);
    EXPECT_TRUE(net.idle());

    Packet p;
    p.id = 1;
    p.src = 0;
    p.dest = 3;
    p.size = 4;
    p.createTime = 0;
    net.endpoint(0).enqueue(p);
    EXPECT_FALSE(net.idle());

    std::int64_t first_idle = -1;
    for (std::int64_t c = 0; c < 200; ++c) {
        net.step(c);
        if (net.idle()) {
            first_idle = c;
            break;
        }
    }
    ASSERT_GE(first_idle, 0) << "network never quiesced";
    EXPECT_EQ(net.totalFlitsEjected(), 4u);
    EXPECT_EQ(net.totalFlitsInFlight(), 0);
    for (int n = 0; n < 4; ++n) {
        EXPECT_EQ(net.router(n).totalOutputCredits(),
                  fresh.router(n).totalOutputCredits())
            << "idle() reported true with credits missing at router "
            << n;
    }
    // And a quiescent network has nothing in flight on any link.
    for (const Network::LinkRecord& l : net.links()) {
        EXPECT_TRUE(l.flit->empty()) << "flit pipe " << l.flitId;
        EXPECT_TRUE(l.credit->empty()) << "credit pipe " << l.creditId;
    }
}

TEST(SkipAhead, SkipToIsAnExactNoOpOverAnIdleGap)
{
    // Reference: a packet at cycle 0, a dead gap, a packet at cycle
    // 500, stepping every cycle. Skip run: jump the gap in one
    // skipTo. All totals and per-router counters must agree.
    auto drive = [](bool skip) {
        SimConfig cfg = defaultConfig();
        Network net(cfg);
        auto inject = [&](std::uint64_t id, std::int64_t cycle) {
            Packet p;
            p.id = id;
            p.src = 5;
            p.dest = 58;
            p.size = 3;
            p.createTime = cycle;
            net.endpoint(5).enqueue(p);
        };
        inject(1, 0);
        std::int64_t c = 0;
        while (c < 500) {
            if (c == 500 - 1)
                break;
            net.step(c);
            ++c;
            if (skip && net.idle()) {
                HorizonTracker hz(c, 500);
                EXPECT_TRUE(hz.skips());
                net.skipTo(hz.cycle());
                c = hz.cycle();
                break;
            }
        }
        stepRange(net, c, 500);
        inject(2, 500);
        stepRange(net, 500, 600);
        return std::vector<std::uint64_t>{
            net.totalFlitsInjected(), net.totalFlitsEjected(),
            static_cast<std::uint64_t>(net.totalFlitsInFlight()),
            net.totalFlitsSent(),
            net.router(5).counters().vcAllocSuccess,
            net.router(5).counters().flitsTraversed};
    };
    EXPECT_EQ(drive(false), drive(true));
}

TEST(SkipAhead, PacketInjectedExactlyAtTheHorizonIsNotLost)
{
    // The landing cycle is the first cycle the schedule fires again:
    // the jump must land exactly there (not one past), and the fire
    // must inject normally. Run a schedule-driven workload with and
    // without skipping; totals must agree and the skip run must have
    // actually jumped.
    auto drive = [](bool skip, std::int64_t* skipped) {
        SimConfig cfg = defaultConfig();
        Network net(cfg);
        const int nodes = net.mesh().numNodes();
        Rng gen(31);
        InjectionSchedule sched(nodes, 0.0005, gen);
        const std::int64_t cycles = 4000;
        std::uint64_t id = 0;
        std::uint64_t drained = 0;
        std::uint64_t hops = 0;
        std::vector<EjectedPacket> done;
        for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
            for (int slot; (slot = sched.popDue(cycle)) >= 0;) {
                const int dest =
                    static_cast<int>(gen.nextBounded(nodes));
                sched.scheduleNext(slot, cycle, gen);
                if (dest == slot)
                    continue;
                Packet p;
                p.id = ++id;
                p.src = slot;
                p.dest = dest;
                p.size = 2;
                p.createTime = cycle;
                net.endpoint(slot).enqueue(p);
            }
            net.step(cycle);
            done.clear();
            for (int n = 0; n < nodes; ++n)
                net.endpoint(n).drainEjectedInto(done);
            for (const EjectedPacket& e : done) {
                ++drained;
                hops += static_cast<std::uint64_t>(e.hops);
            }
            if (skip && net.idle()) {
                HorizonTracker hz(cycle + 1, cycles);
                hz.clamp(sched.nextFireCycle());
                if (hz.skips()) {
                    net.skipTo(hz.cycle());
                    *skipped += hz.cycle() - (cycle + 1);
                    cycle = hz.cycle() - 1;
                }
            }
        }
        return std::vector<std::uint64_t>{id, drained, hops,
                                          net.totalFlitsInjected(),
                                          net.totalFlitsEjected()};
    };
    std::int64_t skipped_ref = 0;
    std::int64_t skipped = 0;
    const auto ref = drive(false, &skipped_ref);
    const auto fast = drive(true, &skipped);
    EXPECT_EQ(ref, fast);
    EXPECT_GT(ref[0], 0u) << "workload injected nothing";
    EXPECT_GT(skipped, 0) << "skip run never skipped";
    EXPECT_EQ(skipped_ref, 0);
}

/**
 * Recorder over a tiny idle network, interval 50, no stream; with a
 * @p sample_interval the heatmap is on too, writing to @p heatmap_name
 * in the temp directory.
 */
std::unique_ptr<FlightRecorder>
makeRecorder(const Network& net, std::int64_t sample_interval = 0,
             const std::string& heatmap_name = "")
{
    TimeseriesConfig tc;
    if (sample_interval > 0)
        tc = heatmapRecorderConfig(50, sample_interval, heatmap_name);
    tc.enabled = false;
    tc.warmupAuto = true;  // active() without a stream
    tc.interval = 50;
    return std::make_unique<FlightRecorder>(net, tc, RunMetadata());
}

TEST(SkipAhead, RecorderClosesEveryWindowInsideAJumpedSpan)
{
    // tick() lands 7.5 windows past the last tick: all seven elapsed
    // boundaries must close, in order, at their exact cycles, as
    // empty windows.
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 2);
    cfg.setInt("mesh_height", 2);
    Network net(cfg);
    auto rec = makeRecorder(net);

    rec->tick(374);  // as if the clock jumped 0 -> 374
    const auto& ws = rec->windows();
    ASSERT_EQ(ws.size(), 7u);
    for (std::size_t i = 0; i < ws.size(); ++i) {
        EXPECT_EQ(ws[i].index, static_cast<std::int64_t>(i));
        EXPECT_EQ(ws[i].startCycle, static_cast<std::int64_t>(i) * 50);
        EXPECT_EQ(ws[i].endCycle,
                  static_cast<std::int64_t>(i + 1) * 50);
        EXPECT_EQ(ws[i].offeredFlits, 0u);
        EXPECT_EQ(ws[i].acceptedFlits, 0u);
        EXPECT_EQ(ws[i].latencyCount, 0u);
        EXPECT_EQ(ws[i].activeNodes, 0);
    }
    EXPECT_EQ(rec->nextWindowBoundary(), 399);
    // Empty windows are no evidence of steady state.
    EXPECT_FALSE(rec->detector().converged());
}

TEST(SkipAhead, JumpedWindowRecordsAreByteIdenticalToPerCycleOnes)
{
    // Same network, same (absent) traffic: one recorder ticked every
    // cycle, one ticked once at the end of the span. The serialized
    // window records must match byte for byte, and so must the
    // heatmaps they clock: the jump replays every gauge sample due
    // before each boundary it crosses.
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 2);
    cfg.setInt("mesh_height", 2);
    Network net(cfg);
    auto per_cycle = makeRecorder(net, 7, "fp_skip_hm_per_cycle.json");
    auto jumped = makeRecorder(net, 7, "fp_skip_hm_jumped.json");

    for (std::int64_t c = 0; c <= 374; ++c)
        per_cycle->tick(c);
    jumped->tick(374);
    // Neither recorder finishes, so both documents stay unwritten.
    std::remove(per_cycle->config().heatmapOut.c_str());
    std::remove(jumped->config().heatmapOut.c_str());

    ASSERT_EQ(per_cycle->windows().size(), jumped->windows().size());
    for (std::size_t i = 0; i < jumped->windows().size(); ++i) {
        EXPECT_EQ(per_cycle->windows()[i], jumped->windows()[i]);
        EXPECT_EQ(per_cycle->windowJson(per_cycle->windows()[i]),
                  jumped->windowJson(jumped->windows()[i]));
    }
    ASSERT_EQ(jumped->heatmapWindows().size(), 7u);
    EXPECT_EQ(jumped->heatmapWindows()[0].samples, 8);  // offsets 0..49
    EXPECT_EQ(per_cycle->heatmapJson(), jumped->heatmapJson());
}

/** Read a whole file; empty string when it cannot be opened. */
std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

SimConfig
lowLoadRunConfig(const char* step_mode, bool skip_ahead)
{
    SimConfig cfg = defaultConfig();
    cfg.set("routing", "footprint");
    cfg.set("traffic", "uniform");
    cfg.setDouble("injection_rate", 0.002);
    cfg.set("step_mode", step_mode);
    cfg.setInt("threads",
               std::string(step_mode) == "sharded" ? 4 : 1);
    cfg.setInt("warmup_cycles", 400);
    cfg.setInt("measure_cycles", 2000);
    cfg.setInt("drain_cycles", 3000);
    cfg.setBool("skip_ahead", skip_ahead);
    return cfg;
}

/** The stats fields a skip must leave untouched, flattened. */
std::vector<double>
statsFingerprint(const RunStats& s)
{
    return {static_cast<double>(s.cyclesRun),
            static_cast<double>(s.measuredCreated),
            static_cast<double>(s.measuredEjected),
            s.latency.mean(),
            s.latency.max(),
            static_cast<double>(s.latencyHdr.percentile(0.99)),
            s.hops.mean(),
            s.offeredFlitsPerNodeCycle,
            s.acceptedFlitsPerNodeCycle,
            s.drained ? 1.0 : 0.0};
}

TEST(SkipAhead, RunExperimentIsInvariantUnderSkipAndTimeseries)
{
    // Full end-to-end invariance at the driver level: the measured
    // statistics AND the streamed timeseries bytes (window boundaries
    // fall inside jumped spans at this load) AND the heatmap document
    // closed on those windows (its gauge samples replayed inside the
    // jumps) must be identical with skip-ahead on and off; the skip
    // run must actually skip.
    auto run = [](bool skip, const char* ts_path, const char* hm_path) {
        SimConfig cfg = lowLoadRunConfig("activity", skip);
        cfg.setBool("timeseries", true);
        cfg.setInt("timeseries_interval", 300);
        cfg.set("timeseries_out", ts_path);
        cfg.setBool("heatmap", true);
        cfg.setInt("heatmap_sample_interval", 7);
        cfg.set("heatmap_out", hm_path);
        return runExperiment(cfg);
    };
    const RunStats s_off =
        run(false, "skip_ts_off.jsonl", "skip_hm_off.json");
    const RunStats s_on = run(true, "skip_ts_on.jsonl", "skip_hm_on.json");

    EXPECT_EQ(s_off.cyclesSkipped, 0);
    EXPECT_GT(s_on.cyclesSkipped, 0);
    EXPECT_EQ(statsFingerprint(s_off), statsFingerprint(s_on));

    // Drop the header line before comparing: it stamps a hash of the
    // full config, which differs in the skip_ahead key by design.
    // Every window record after it must match byte for byte.
    auto records = [](const std::string& bytes) {
        return bytes.substr(bytes.find('\n') + 1);
    };
    const std::string bytes_off = slurp("skip_ts_off.jsonl");
    const std::string bytes_on = slurp("skip_ts_on.jsonl");
    ASSERT_FALSE(bytes_off.empty());
    EXPECT_EQ(records(bytes_off), records(bytes_on));
    std::remove("skip_ts_off.jsonl");
    std::remove("skip_ts_on.jsonl");

    const std::string hm_off = slurp("skip_hm_off.json");
    const std::string hm_on = slurp("skip_hm_on.json");
    ASSERT_FALSE(hm_off.empty());
    EXPECT_EQ(heatmapWithoutMeta(hm_off), heatmapWithoutMeta(hm_on));
    // The heatmap's windows are the recorder's windows.
    std::vector<std::pair<std::int64_t, std::int64_t>> recorder;
    for (const WindowRecord& w : s_on.windows)
        recorder.emplace_back(w.startCycle, w.endCycle);
    EXPECT_EQ(heatmapWindowBounds(hm_on), recorder);
    EXPECT_EQ(heatmapWindowBounds(hm_off), recorder);
    std::remove("skip_hm_off.json");
    std::remove("skip_hm_on.json");
}

TEST(SkipAhead, ShardedSkipMatchesFullPerCycleStepping)
{
    // Shard-seam horizons: the sharded epilogue computes idleness
    // over the union of shards, so a jump must be safe even when the
    // last in-flight flit crossed a seam. Compare against serial full
    // stepping with skipping off.
    const RunStats ref = runExperiment(lowLoadRunConfig("full", false));
    const RunStats fast =
        runExperiment(lowLoadRunConfig("sharded", true));
    EXPECT_GT(fast.cyclesSkipped, 0);
    EXPECT_EQ(statsFingerprint(ref), statsFingerprint(fast));
}

TEST(SkipAhead, PeriodicObserversSeeTheirExactDueCycles)
{
    // Auditor and watchdog run on fixed intervals; with skipping on
    // at near-zero load their due cycles sit inside idle spans. The
    // run must land on each due cycle: equal event/violation counts
    // with skip on and off prove no observation was lost or shifted.
    auto run = [](bool skip) {
        SimConfig cfg = lowLoadRunConfig("activity", skip);
        cfg.setBool("audit", true);  // enables auditor + watchdog
        cfg.setInt("audit_interval", 171);
        cfg.setInt("watchdog_interval", 133);
        return runExperiment(cfg);
    };
    const RunStats off = run(false);
    const RunStats on = run(true);
    EXPECT_GT(on.cyclesSkipped, 0);
    EXPECT_EQ(off.auditViolations, on.auditViolations);
    EXPECT_EQ(off.watchdogEvents, on.watchdogEvents);
    EXPECT_EQ(statsFingerprint(off), statsFingerprint(on));
}

TEST(SkipAhead, ConfigKeyDefaultsOnAndDisables)
{
    EXPECT_TRUE(defaultConfig().getBool("skip_ahead"));
    const RunStats off =
        runExperiment(lowLoadRunConfig("activity", false));
    EXPECT_EQ(off.cyclesSkipped, 0);
}

} // namespace
} // namespace footprint
