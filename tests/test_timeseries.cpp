/**
 * @file
 * Tests for the streaming flight recorder (DESIGN.md §15): config
 * parsing and its fatal degenerate values, per-window
 * latency-histogram mergeability, steady-state detector convergence,
 * window math against a driven network, JSONL record shape,
 * warmup=auto, measured-before-steady flagging, saturation-onset
 * extraction, the network-wide occupancy
 * gauges read at window close, and bit-identical window records (and
 * recorder-clocked heatmap documents) across the full / activity /
 * sharded step modes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "heatmap_doc.hpp"
#include "network/network.hpp"
#include "network/traffic_manager.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/run_metadata.hpp"
#include "obs/timeseries.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"

namespace footprint {
namespace {

TEST(TimeseriesConfig, FromSimReadsDefaults)
{
    const TimeseriesConfig tc =
        TimeseriesConfig::fromSim(defaultConfig());
    EXPECT_FALSE(tc.enabled);
    EXPECT_EQ(tc.outPath, "timeseries.jsonl");
    EXPECT_EQ(tc.interval, 1000);
    EXPECT_EQ(tc.steadyWindows, 8);
    EXPECT_DOUBLE_EQ(tc.steadyTolerance, 0.02);
    EXPECT_FALSE(tc.warmupAuto);
    EXPECT_EQ(tc.warmupMax, 50000);
    EXPECT_FALSE(tc.active());
}

TEST(TimeseriesConfig, FromSimClampsDegenerateValues)
{
    // Degenerate recorder values are not clamped. With the recorder
    // on, a value outside its config-table range ends fromSim itself
    // in fatal: naming the key; the rules the table cannot state
    // (a strict bound, a bound set by another key) pass fromSim as
    // given and end the run in fatal: before any cycle runs.
    struct Case
    {
        const char* key;
        const char* value;
        const char* message;
        bool atRead;  ///< fromSim rejects it (a row's range)
    };
    const Case cases[] = {
        {"timeseries_interval", "0", "timeseries_interval must be >= 1",
         true},
        {"steady_windows", "1",
         "steady_windows must be in \\[2, 2147483647\\]", true},
        {"steady_tolerance", "-0.5", "steady_tolerance must be > 0",
         false},
        {"warmup_max_cycles", "-100",
         "warmup_max_cycles must be >= timeseries_interval", false},
    };
    for (const Case& c : cases) {
        SimConfig cfg = defaultConfig();
        cfg.setInt("mesh_width", 4);
        cfg.setInt("mesh_height", 4);
        cfg.setBool("timeseries", true);
        cfg.set("timeseries_out", "");
        cfg.set("warmup", "auto");
        cfg.set(c.key, c.value);
        const std::string message = std::string("fatal: ") + c.message;
        if (c.atRead) {
            EXPECT_EXIT(TimeseriesConfig::fromSim(cfg),
                        testing::ExitedWithCode(1), message)
                << c.key << "=" << c.value;
            continue;
        }
        const TimeseriesConfig tc = TimeseriesConfig::fromSim(cfg);
        EXPECT_TRUE(tc.active());
        EXPECT_EQ(tc.interval, cfg.getInt("timeseries_interval"));
        EXPECT_EQ(tc.steadyWindows, cfg.getInt("steady_windows"));
        EXPECT_DOUBLE_EQ(tc.steadyTolerance,
                         cfg.getDouble("steady_tolerance"));
        EXPECT_EQ(tc.warmupMax, cfg.getInt("warmup_max_cycles"));
        EXPECT_EXIT(runExperiment(cfg), testing::ExitedWithCode(1),
                    message)
            << c.key << "=" << c.value;
    }
}

TEST(TimeseriesConfig, WarmupAutoActivatesRecorderWithoutStream)
{
    SimConfig cfg = defaultConfig();
    cfg.set("warmup", "auto");
    const TimeseriesConfig tc = TimeseriesConfig::fromSim(cfg);
    EXPECT_FALSE(tc.enabled);
    EXPECT_TRUE(tc.warmupAuto);
    EXPECT_TRUE(tc.active());
}

TEST(TimeseriesConfig, NewKeysAreRegistered)
{
    for (const char* key :
         {"timeseries", "timeseries_out", "timeseries_interval",
          "steady_windows", "steady_tolerance", "warmup",
          "warmup_max_cycles", "console", "console_interval_ms"}) {
        EXPECT_TRUE(SimConfig::isKnownKey(key))
            << key << " must be a registered config key";
    }
}

/** Hand-build a window with the given latency mean and rate. */
WindowRecord
makeWindow(std::int64_t index, double latency_mean,
           std::uint64_t accepted, std::int64_t interval = 100)
{
    WindowRecord w;
    w.index = index;
    w.startCycle = index * interval;
    w.endCycle = (index + 1) * interval;
    w.latencyCount = 50;
    w.latencyMean = latency_mean;
    w.acceptedFlits = accepted;
    return w;
}

TEST(SteadyStateDetector, ConvergesOnFlatSeries)
{
    SteadyStateDetector det(4, 0.02);
    EXPECT_FALSE(det.converged());
    for (std::int64_t i = 0; i < 4; ++i) {
        det.addWindow(makeWindow(i, 20.0, 500), 16);
        // Needs the full trailing ring before it may converge.
        EXPECT_EQ(det.converged(), i == 3);
    }
    EXPECT_EQ(det.steadyCycle(), 400);
    // The detected cycle is latched at first convergence.
    det.addWindow(makeWindow(4, 20.0, 500), 16);
    EXPECT_EQ(det.steadyCycle(), 400);
}

TEST(SteadyStateDetector, RejectsDriftingLatency)
{
    SteadyStateDetector det(4, 0.02);
    // Latency grows 20% per window: never within a 2% half-width.
    double lat = 20.0;
    for (std::int64_t i = 0; i < 12; ++i, lat *= 1.2)
        det.addWindow(makeWindow(i, lat, 500), 16);
    EXPECT_FALSE(det.converged());
    EXPECT_EQ(det.steadyCycle(), -1);
    EXPECT_GT(det.lastLatencySpread(), 0.02);
}

TEST(SteadyStateDetector, RejectsDriftingThroughputEvenIfLatencyFlat)
{
    SteadyStateDetector det(4, 0.02);
    std::uint64_t accepted = 100;
    for (std::int64_t i = 0; i < 12; ++i, accepted += 40)
        det.addWindow(makeWindow(i, 20.0, accepted), 16);
    EXPECT_FALSE(det.converged());
}

TEST(SteadyStateDetector, EmptyWindowResetsTheRing)
{
    SteadyStateDetector det(3, 0.02);
    det.addWindow(makeWindow(0, 20.0, 500), 16);
    det.addWindow(makeWindow(1, 20.0, 500), 16);
    // A window with no ejections (e.g. drain tail / dead network)
    // invalidates the trailing means instead of polluting them.
    WindowRecord empty = makeWindow(2, 0.0, 0);
    empty.latencyCount = 0;
    det.addWindow(empty, 16);
    det.addWindow(makeWindow(3, 20.0, 500), 16);
    det.addWindow(makeWindow(4, 20.0, 500), 16);
    EXPECT_FALSE(det.converged());
    det.addWindow(makeWindow(5, 20.0, 500), 16);
    EXPECT_TRUE(det.converged());
    EXPECT_EQ(det.steadyCycle(), 600);
}

/** Drive a network with the recorder attached, uniform load. */
void
driveUniform(Network& net, FlightRecorder& rec, std::int64_t cycles,
             double load, std::uint64_t seed = 23)
{
    const int nodes = net.mesh().numNodes();
    Rng gen(seed);
    std::uint64_t id = 0;
    for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
        for (int n = 0; n < nodes; ++n) {
            if (gen.nextBool(load)) {
                Packet p;
                p.id = ++id;
                p.src = n;
                p.dest = static_cast<int>(gen.nextBounded(nodes));
                if (p.dest == n)
                    continue;
                p.size = 1 + static_cast<int>(gen.nextBounded(3));
                p.createTime = cycle;
                net.endpoint(n).enqueue(p);
                rec.onOffered(p.size);
            }
        }
        net.step(cycle);
        for (int n = 0; n < nodes; ++n)
            for (const EjectedPacket& e :
                 net.endpoint(n).drainEjected())
                rec.onEjected(e.latency());
        rec.tick(cycle);
    }
    rec.finish(cycles);
}

TimeseriesConfig
recorderConfig(std::int64_t interval)
{
    TimeseriesConfig tc;
    tc.enabled = true;
    tc.outPath = "";  // no stream; in-memory windows only
    tc.interval = interval;
    return tc;
}

TEST(FlightRecorder, WindowsTileTheRunWithConservedFlits)
{
    SimConfig cfg = defaultConfig();
    Network net(cfg);
    FlightRecorder rec(net, recorderConfig(100), RunMetadata());
    driveUniform(net, rec, 250, 0.05);

    // [0,100), [100,200), and the partial trailing [200,250).
    ASSERT_EQ(rec.windows().size(), 3u);
    const auto& w = rec.windows();
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(w[i].index, static_cast<std::int64_t>(i));
        if (i > 0) {
            EXPECT_EQ(w[i].startCycle, w[i - 1].endCycle);
        }
    }
    EXPECT_EQ(w[2].endCycle, 250);

    // Window deltas of the network counters must sum to the totals.
    std::uint64_t accepted = 0;
    std::uint64_t va_grants = 0;
    std::uint64_t packets = 0;
    for (const WindowRecord& rw : w) {
        accepted += rw.acceptedFlits;
        va_grants += rw.vaGrants[0] + rw.vaGrants[1] + rw.vaGrants[2] +
                     rw.vaGrants[3] + rw.vaGrants[4];
        packets += rw.packetsEjected;
    }
    EXPECT_EQ(accepted, net.totalFlitsEjected());
    EXPECT_EQ(va_grants, net.aggregateCounters().vcAllocSuccess);
    EXPECT_GT(packets, 0u);
}

TEST(FlightRecorder, PerRegimeGrantsSumToVcAllocSuccess)
{
    SimConfig cfg = defaultConfig();
    cfg.set("routing", "footprint");
    Network net(cfg);
    FlightRecorder rec(net, recorderConfig(200), RunMetadata());
    driveUniform(net, rec, 400, 0.2);
    const Router::Counters total = net.aggregateCounters();
    std::uint64_t by_regime = 0;
    for (int r = 0; r < kNumVaRegimes; ++r)
        by_regime += total.vaGrantsByPriority[static_cast<std::size_t>(
            r)];
    EXPECT_EQ(by_regime, total.vcAllocSuccess);
    EXPECT_GT(by_regime, 0u);
}

TEST(FlightRecorder, MergedWindowHistogramEqualsRunWideHistogram)
{
    // The mergeability property: per-window histograms merged window
    // by window must be indistinguishable from one histogram fed
    // every sample — identical counts and quantiles.
    SimConfig cfg = defaultConfig();
    Network net(cfg);
    FlightRecorder rec(net, recorderConfig(50), RunMetadata());

    HdrHistogram direct;
    const int nodes = net.mesh().numNodes();
    Rng gen(31);
    std::uint64_t id = 0;
    for (std::int64_t cycle = 0; cycle < 300; ++cycle) {
        for (int n = 0; n < nodes; ++n) {
            if (gen.nextBool(0.1)) {
                Packet p;
                p.id = ++id;
                p.src = n;
                p.dest = static_cast<int>(gen.nextBounded(nodes));
                if (p.dest == n)
                    continue;
                p.size = 1;
                p.createTime = cycle;
                net.endpoint(n).enqueue(p);
                rec.onOffered(p.size);
            }
        }
        net.step(cycle);
        for (int n = 0; n < nodes; ++n) {
            for (const EjectedPacket& e :
                 net.endpoint(n).drainEjected()) {
                rec.onEjected(e.latency());
                direct.add(
                    static_cast<std::uint64_t>(e.latency()));
            }
        }
        rec.tick(cycle);
    }
    rec.finish(300);

    const HdrHistogram& merged = rec.mergedLatencyHist();
    ASSERT_GT(direct.count(), 0u);
    EXPECT_EQ(merged.count(), direct.count());
    EXPECT_EQ(merged.max(), direct.max());
    EXPECT_DOUBLE_EQ(merged.mean(), direct.mean());
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_DOUBLE_EQ(merged.percentile(q), direct.percentile(q));

    // And the per-window latency counts sum to the total.
    std::uint64_t window_count = 0;
    for (const WindowRecord& w : rec.windows())
        window_count += w.latencyCount;
    EXPECT_EQ(window_count, direct.count());
}

TEST(FlightRecorder, WindowJsonHasSchemaFieldsAndHeaderHasSchema)
{
    SimConfig cfg = defaultConfig();
    Network net(cfg);
    FlightRecorder rec(net, recorderConfig(100), RunMetadata());
    driveUniform(net, rec, 120, 0.05);
    ASSERT_FALSE(rec.windows().empty());

    const std::string header = rec.headerJson();
    EXPECT_NE(header.find("\"schema\":\"footprint.timeseries/1\""),
              std::string::npos);
    EXPECT_NE(header.find("\"meta\":{\"seed\":"), std::string::npos);
    EXPECT_NE(header.find("\"mesh\""), std::string::npos);

    const std::string line = rec.windowJson(rec.windows().front());
    for (const char* field :
         {"\"window\"", "\"start\"", "\"end\"", "\"offered_flits\"",
          "\"accepted_flits\"", "\"packets\"", "\"offered_rate\"",
          "\"accepted_rate\"", "\"latency\"", "\"in_flight\"",
          "\"active_nodes\"", "\"va_grants\"", "\"va_fails\"",
          "\"watchdog_events\"", "\"escape\"", "\"busy\"",
          "\"footprint\"", "\"idle\"", "\"reclaim\"", "\"p99\"",
          "\"p999\"", "\"vc_occ\"", "\"fp_occ\"", "\"inj_backlog\"",
          "\"link_util\""}) {
        EXPECT_NE(line.find(field), std::string::npos)
            << "window record is missing " << field;
    }
}

TEST(FlightRecorder, OccupancyGaugesMatchNetworkAtWindowClose)
{
    // The four network-wide gauges are read at window close: compare
    // each closed window against direct Network reads taken right
    // after the tick that closed it. 0.3 packets of 1-3 flits per
    // node-cycle saturates the 8x8 mesh, so every gauge sees traffic.
    SimConfig cfg = defaultConfig();
    Network net(cfg);
    FlightRecorder rec(net, recorderConfig(100), RunMetadata());
    const int nodes = net.mesh().numNodes();
    const double flit_channels =
        static_cast<double>(net.linkFabric().flitCount());
    Rng gen(41);
    std::uint64_t id = 0;
    std::uint64_t sent_base = net.totalFlitsSent();
    std::int64_t backlog_seen = 0;
    std::int64_t fp_seen = 0;
    for (std::int64_t cycle = 0; cycle < 500; ++cycle) {
        for (int n = 0; n < nodes; ++n) {
            if (gen.nextBool(0.3)) {
                Packet p;
                p.id = ++id;
                p.src = n;
                p.dest = static_cast<int>(gen.nextBounded(nodes));
                if (p.dest == n)
                    continue;
                p.size = 1 + static_cast<int>(gen.nextBounded(3));
                p.createTime = cycle;
                net.endpoint(n).enqueue(p);
            }
        }
        net.step(cycle);
        for (int n = 0; n < nodes; ++n)
            (void)net.endpoint(n).drainEjected();
        rec.tick(cycle);
        if ((cycle + 1) % 100 != 0)
            continue;

        ASSERT_EQ(rec.windows().size(),
                  static_cast<std::size_t>((cycle + 1) / 100));
        const WindowRecord& w = rec.windows().back();
        std::int64_t vc_occ = 0;
        std::int64_t fp_occ = 0;
        std::int64_t backlog = 0;
        for (int n = 0; n < nodes; ++n) {
            vc_occ += net.router(n).inputBufferedFlits();
            fp_occ += net.router(n).occupiedOutVcs();
            backlog += net.endpoint(n).sourceBacklogFlits();
        }
        EXPECT_EQ(w.vcOcc, vc_occ) << "window " << w.index;
        EXPECT_EQ(w.fpOcc, fp_occ) << "window " << w.index;
        EXPECT_EQ(w.injBacklog, backlog) << "window " << w.index;
        const std::uint64_t sent = net.totalFlitsSent();
        EXPECT_DOUBLE_EQ(w.linkUtil,
                         static_cast<double>(sent - sent_base)
                             / (flit_channels * 100.0))
            << "window " << w.index;
        sent_base = sent;
        backlog_seen += backlog;
        fp_seen += fp_occ;
    }
    EXPECT_EQ(rec.windows().size(), 5u);
    EXPECT_GT(backlog_seen, 0);
    EXPECT_GT(fp_seen, 0);
}

// ---------------------------------------------------------------
// runExperiment integration.
// ---------------------------------------------------------------

SimConfig
runConfig(double rate)
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", 4);
    cfg.set("routing", "footprint");
    cfg.set("traffic", "uniform");
    cfg.setDouble("injection_rate", rate);
    cfg.setInt("warmup_cycles", 300);
    cfg.setInt("measure_cycles", 1500);
    cfg.setInt("drain_cycles", 4000);
    cfg.setInt("timeseries_interval", 100);
    return cfg;
}

TEST(TimeseriesRun, StreamIsWrittenAndWellFormed)
{
    const std::string path = "ts_run_stream.jsonl";
    SimConfig cfg = runConfig(0.1);
    cfg.setBool("timeseries", true);
    cfg.set("timeseries_out", path);
    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.drained);
    EXPECT_EQ(stats.timeseriesPath, path);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    // Header plus at least the warmup+measure windows.
    ASSERT_GE(lines.size(), 2u);
    EXPECT_NE(
        lines[0].find("\"schema\":\"footprint.timeseries/1\""),
        std::string::npos);
    // The header carries the run metadata stamp.
    EXPECT_NE(lines[0].find("\"seed\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"config_hash\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"window\":0"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TimeseriesRun, TooShortWarmupIsFlagged)
{
    // With a 100-cycle warmup the 8-window detector cannot possibly
    // have converged by measurement start: the run must carry the
    // measured-before-steady flag instead of silently reporting
    // biased numbers.
    SimConfig cfg = runConfig(0.1);
    cfg.setBool("timeseries", true);
    cfg.set("timeseries_out", "ts_short_warmup.jsonl");
    cfg.setInt("warmup_cycles", 100);
    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.measuredBeforeSteady);
    EXPECT_EQ(stats.warmupUsed, 100);
    std::remove("ts_short_warmup.jsonl");
}

TEST(TimeseriesRun, WarmupAutoEndsWarmupAtConvergence)
{
    SimConfig cfg = runConfig(0.1);
    cfg.set("warmup", "auto");
    cfg.setInt("warmup_max_cycles", 20000);
    // Wider windows and a looser tolerance than the default: a 4x4
    // mesh at 10% load has too few packets per 100-cycle window for
    // a 2% half-width to be statistically reachable.
    cfg.setInt("timeseries_interval", 500);
    cfg.setDouble("steady_tolerance", 0.08);
    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.drained);
    // Converged strictly before the cap, on a window boundary.
    ASSERT_GE(stats.steadyStateCycle, 0);
    EXPECT_LT(stats.warmupUsed, 20000);
    EXPECT_EQ(stats.warmupUsed, stats.steadyStateCycle);
    EXPECT_EQ(stats.warmupUsed % 500, 0);
    EXPECT_FALSE(stats.measuredBeforeSteady);
    EXPECT_GT(stats.measuredEjected, 0u);
}

TEST(TimeseriesRun, SaturatedRunReportsOnsetAndNoSteadyState)
{
    // Far past saturation: accepted lags offered with a growing
    // backlog, so onset must be detected; the 2%-tolerance detector
    // must not declare such a run steady before measurement.
    SimConfig cfg = runConfig(0.95);
    cfg.setBool("timeseries", true);
    cfg.set("timeseries_out", "ts_saturated.jsonl");
    cfg.setInt("measure_cycles", 2000);
    cfg.setInt("drain_cycles", 300);
    const RunStats stats = runExperiment(cfg);
    EXPECT_GE(stats.saturationOnsetCycle, 0);
    EXPECT_TRUE(stats.measuredBeforeSteady);
    std::remove("ts_saturated.jsonl");
}

TEST(TimeseriesRun, WindowRecordsAreIdenticalAcrossStepModes)
{
    // The determinism contract: recorder windows — and hence every
    // steady-state / saturation decision — must be bit-identical
    // across the serial and parallel stepping engines, and so must the
    // heatmap grids the recorder keeps on those windows.
    struct ModeRun
    {
        std::vector<std::string> records;
        std::int64_t steadyCycle = -1;
        std::string heatmap;  ///< without its meta header
    };
    auto run = [](const std::string& mode, int threads) {
        SimConfig cfg = runConfig(0.25);
        cfg.setBool("timeseries", true);
        const std::string path = "ts_mode_" + mode
            + std::to_string(threads) + ".jsonl";
        const std::string hm_path = "hm_mode_" + mode
            + std::to_string(threads) + ".json";
        cfg.set("timeseries_out", path);
        cfg.setBool("heatmap", true);
        cfg.set("heatmap_out", hm_path);
        cfg.set("step_mode", mode);
        cfg.setInt("threads", threads);
        const RunStats stats = runExperiment(cfg);
        std::ifstream in(path);
        std::vector<std::string> lines;
        for (std::string line; std::getline(in, line);)
            if (!line.empty())
                lines.push_back(line);
        std::remove(path.c_str());
        std::ifstream hm_in(hm_path);
        std::ostringstream hm;
        hm << hm_in.rdbuf();
        std::remove(hm_path.c_str());

        // Each heatmap window is one recorder window.
        const auto bounds = heatmapWindowBounds(hm.str());
        EXPECT_EQ(bounds.size(), stats.windows.size()) << mode;
        for (std::size_t i = 0;
             i < std::min(bounds.size(), stats.windows.size()); ++i) {
            EXPECT_EQ(bounds[i],
                      std::make_pair(stats.windows[i].startCycle,
                                     stats.windows[i].endCycle))
                << mode << " window " << i;
        }
        // Drop the headers: config_hash differs across step modes by
        // construction (step_mode is part of the config identity).
        ModeRun r;
        r.records.assign(lines.begin() + 1, lines.end());
        r.steadyCycle = stats.steadyStateCycle;
        r.heatmap = heatmapWithoutMeta(hm.str());
        return r;
    };

    const ModeRun full = run("full", 1);
    const ModeRun act = run("activity", 1);
    const ModeRun shard2 = run("sharded", 2);
    const ModeRun shard4 = run("sharded", 4);
    ASSERT_GT(full.records.size(), 5u);
    ASSERT_FALSE(full.heatmap.empty());
    for (const ModeRun* other : {&act, &shard2, &shard4}) {
        EXPECT_EQ(full.records, other->records);
        EXPECT_EQ(full.steadyCycle, other->steadyCycle);
        EXPECT_EQ(full.heatmap, other->heatmap);
    }
}

TEST(TimeseriesRun, CmeshWindowRatesArePerTerminal)
{
    // A cmesh router hosts `concentration` terminals. The window rates
    // share RunStats' per-terminal basis; per router they would read
    // 4x the run's accepted rate here.
    SimConfig cfg = runConfig(0.1);
    cfg.set("topology", "cmesh");
    cfg.setInt("concentration", 4);
    cfg.setInt("mesh_width", 2);
    cfg.setInt("mesh_height", 2);
    cfg.setBool("timeseries", true);
    cfg.set("timeseries_out", "");
    const RunStats stats = runExperiment(cfg);
    ASSERT_TRUE(stats.drained);
    ASSERT_GT(stats.acceptedFlitsPerNodeCycle, 0.0);

    // windowJson prints each window's rates on the recorder's basis.
    const Network net(cfg);
    const FlightRecorder rec(net, TimeseriesConfig::fromSim(cfg),
                             RunMetadata());
    const std::int64_t measure_end =
        stats.warmupUsed + cfg.getInt("measure_cycles");
    double sum = 0.0;
    int windows = 0;
    for (const WindowRecord& w : stats.windows) {
        if (w.startCycle < stats.warmupUsed || w.endCycle > measure_end)
            continue;
        const std::string json = rec.windowJson(w);
        double rate = -1.0;
        ASSERT_EQ(std::sscanf(json.c_str() + json.find("\"accepted_rate\""),
                              "\"accepted_rate\":%lf", &rate),
                  1);
        sum += rate;
        ++windows;
    }
    ASSERT_EQ(windows, 15);
    EXPECT_NEAR(sum / windows, stats.acceptedFlitsPerNodeCycle,
                0.1 * stats.acceptedFlitsPerNodeCycle);
}

} // namespace
} // namespace footprint
