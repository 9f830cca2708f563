/**
 * @file
 * Integration tests for the traffic manager: full warmup / measure /
 * drain runs across algorithms and traffic modes, deadlock freedom
 * under load, hotspot measurement methodology, and trace replay.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <type_traits>

#include "network/traffic_manager.hpp"
#include "sim/config.hpp"
#include "traffic/trace_gen.hpp"

namespace footprint {
namespace {

SimConfig
quickConfig(const std::string& routing, const std::string& traffic,
            double rate)
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", 4);
    cfg.set("routing", routing);
    cfg.set("traffic", traffic);
    cfg.setDouble("injection_rate", rate);
    cfg.setInt("warmup_cycles", 300);
    cfg.setInt("measure_cycles", 800);
    cfg.setInt("drain_cycles", 4000);
    return cfg;
}

using AlgoTraffic = std::tuple<std::string, std::string>;

class RunTest : public testing::TestWithParam<AlgoTraffic>
{};

TEST_P(RunTest, LowLoadRunDrainsWithSaneStats)
{
    const auto [algo, traffic] = GetParam();
    SimConfig cfg = quickConfig(algo, traffic, 0.1);
    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.drained)
        << algo << "/" << traffic << " failed to drain at low load";
    EXPECT_FALSE(stats.saturated);
    EXPECT_GT(stats.measuredEjected, 0u);
    EXPECT_EQ(stats.measuredEjected, stats.measuredCreated);
    EXPECT_GT(stats.avgLatency(), 2.0);
    EXPECT_LT(stats.avgLatency(), 60.0);
    EXPECT_GT(stats.hops.mean(), 1.0);
}

TEST_P(RunTest, ModerateLoadDoesNotDeadlock)
{
    const auto [algo, traffic] = GetParam();
    SimConfig cfg = quickConfig(algo, traffic, 0.3);
    const RunStats stats = runExperiment(cfg);
    // The run may saturate (partially adaptive algorithms on adverse
    // patterns) but must make continuous forward progress.
    EXPECT_GT(stats.measuredEjected, stats.measuredCreated / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AlgoTrafficMatrix, RunTest,
    testing::Combine(testing::ValuesIn(allRoutingAlgorithmNames()),
                     testing::Values("uniform", "transpose",
                                     "shuffle")),
    [](const testing::TestParamInfo<AlgoTraffic>& info) {
        std::string name = std::get<0>(info.param) + "_"
            + std::get<1>(info.param);
        for (char& c : name) {
            if (c == '+')
                c = 'X';
        }
        return name;
    });

TEST(RunInput, OutOfRangeRunValuesAreFatal)
{
    // Out-of-range run inputs end in fatal: before any cycle runs,
    // each with a message naming its key. A key is checked only when
    // the feature that reads it runs, so each case also runs clean
    // without that feature.
    struct Case
    {
        const char* key;
        const char* value;
        const char* with;  ///< "key=value" enabling the feature, or nullptr
        const char* message;
    };
    const Case cases[] = {
        {"warmup_cycles", "-5", nullptr, "warmup_cycles must be >= 0"},
        {"fp_vc_cap", "-3", nullptr,
         "fp_vc_cap must be in \\[0, 2147483647\\], got -3"},
        {"warmup", "bogus", nullptr, "warmup must be auto or empty"},
        {"timeseries_interval", "0", "timeseries=true",
         "timeseries_interval must be >= 1"},
        {"timeseries_interval", "0", "heatmap=true",
         "timeseries_interval must be >= 1"},
        {"warmup_max_cycles", "-1", "warmup=auto",
         "warmup_max_cycles must be >= timeseries_interval"},
        {"steady_windows", "0", "timeseries=true",
         "steady_windows must be in \\[2, 2147483647\\]"},
        {"steady_tolerance", "-1", "timeseries=true",
         "steady_tolerance must be > 0"},
        {"heatmap_sample_interval", "0", "heatmap=true",
         "heatmap_sample_interval must be >= 1"},
        {"audit_interval", "0", "audit=true",
         "audit_interval must be >= 1"},
        {"watchdog_interval", "0", "audit=true",
         "watchdog_interval must be >= 1"},
        {"background_rate", "2", "traffic=hotspot",
         "background_rate must be in"},
        {"background_rate", "-1", "traffic=hotspot",
         "background_rate must be in"},
        {"shards", "100000", nullptr, "shards must be at most"},
        {"injection_rate", "2", nullptr, "injection_rate must be in"},
        // Router credits are int16_t: a deeper buffer never counts as
        // holding all its credits again.
        {"vc_buf_size", "32768", nullptr,
         "vc_buf_size must be in \\[1, 32767\\]"},
        // 0 is "auto" (num_vcs / 2); a negative threshold is not.
        {"congestion_threshold", "-5", nullptr,
         "congestion_threshold must be in \\[0, 2147483647\\]"},
        // 0 is "auto" / "off"; a negative bound is not.
        {"watchdog_max_hops", "-1", "audit=true",
         "watchdog_max_hops must be in \\[0, 2147483647\\]"},
        {"watchdog_max_age", "-1", "audit=true",
         "watchdog_max_age must be >= 0"},
        // Each of these is read into an int: past INT_MAX it would
        // wrap (to 0, -1 or 1) after its range check.
        {"threads", "4294967296", nullptr, "threads must be in"},
        {"output_fifo_size", "4294967296", nullptr,
         "output_fifo_size must be in"},
        {"shards", "4294967295", nullptr, "shards must be in"},
        {"fp_vc_cap", "4294967295", nullptr, "fp_vc_cap must be in"},
        {"congestion_threshold", "4294967291", nullptr,
         "congestion_threshold must be in"},
        {"mesh_width", "4294967298", nullptr, "mesh_width must be in"},
        {"steady_windows", "4294967297", "timeseries=true",
         "steady_windows must be in"},
        {"watchdog_max_hops", "4294967295", "audit=true",
         "watchdog_max_hops must be in"},
    };
    for (const Case& c : cases) {
        SimConfig cfg = quickConfig("footprint", "uniform", 0.05);
        cfg.set("timeseries_out", "");
        cfg.set(c.key, c.value);
        if (c.with) {
            EXPECT_TRUE(runExperiment(cfg).drained) << c.key;
            ASSERT_TRUE(cfg.parseAssignment(c.with));
        }
        EXPECT_EXIT(runExperiment(cfg), testing::ExitedWithCode(1),
                    std::string("fatal: ") + c.message)
            << c.key << "=" << c.value << " with "
            << (c.with ? c.with : "defaults");
    }
    // Only DBAR and Footprint read congestion_threshold.
    for (const char* routing : {"dor", "oddeven", "dbar"}) {
        SimConfig cfg = quickConfig(routing, "uniform", 0.05);
        cfg.set("congestion_threshold", "-5");
        if (std::string(routing) == "dbar") {
            EXPECT_EXIT(runExperiment(cfg), testing::ExitedWithCode(1),
                        "fatal: congestion_threshold must be in");
        } else {
            EXPECT_TRUE(runExperiment(cfg).drained) << routing;
        }
    }
}

TEST(RunInput, UnopenableOutputFileIsFatalBeforeCycleZero)
{
    // Every artifact file opens before the run's first cycle, so a
    // path in a missing directory ends the run in fatal: naming the
    // file's kind. The console draws at its first cycle, so stderr
    // starting with the fatal shows that no cycle ran.
    const std::string missing = (std::filesystem::temp_directory_path()
                                 / "fp_no_such_dir" / "out")
                                    .string();
    struct Case
    {
        const char* key;
        const char* with;  ///< "key=value" turning the writer on
        const char* kind;
    };
    const Case cases[] = {
        {"timeseries_out", "timeseries=true", "timeseries"},
        {"heatmap_out", "heatmap=true", "heatmap"},
        {"profile_out", "profile=true", "profile"},
        {"chrome_trace_out", "chrome_trace=true", "chrome trace"},
        {"trace_out", "trace_packets=10", "packet trace"},
    };
    for (const Case& c : cases) {
        SimConfig cfg = quickConfig("footprint", "uniform", 0.05);
        cfg.setBool("console", true);
        cfg.set(c.key, missing);
        ASSERT_TRUE(cfg.parseAssignment(c.with));
        EXPECT_EXIT(runExperiment(cfg), testing::ExitedWithCode(1),
                    std::string("^fatal: cannot open ") + c.kind
                        + " file: ")
            << c.key;
    }
}

TEST(RunDeterminism, SameSeedSameResult)
{
    SimConfig cfg = quickConfig("footprint", "uniform", 0.2);
    const RunStats a = runExperiment(cfg);
    const RunStats b = runExperiment(cfg);
    EXPECT_EQ(a.measuredCreated, b.measuredCreated);
    EXPECT_EQ(a.measuredEjected, b.measuredEjected);
    EXPECT_DOUBLE_EQ(a.avgLatency(), b.avgLatency());
    EXPECT_EQ(a.counters.vcAllocFail, b.counters.vcAllocFail);
}

TEST(RunDeterminism, DifferentSeedsDiffer)
{
    SimConfig cfg = quickConfig("footprint", "uniform", 0.2);
    const RunStats a = runExperiment(cfg);
    cfg.setInt("seed", 99);
    const RunStats b = runExperiment(cfg);
    EXPECT_NE(a.avgLatency(), b.avgLatency());
}

TEST(AcceptedThroughput, TracksOfferedBelowSaturation)
{
    SimConfig cfg = quickConfig("dor", "uniform", 0.2);
    cfg.setInt("measure_cycles", 2000);
    const RunStats stats = runExperiment(cfg);
    EXPECT_NEAR(stats.acceptedFlitsPerNodeCycle, 0.2, 0.03);
}

TEST(AcceptedThroughput, VariablePacketSizesCountFlits)
{
    SimConfig cfg = quickConfig("dor", "uniform", 0.2);
    cfg.set("packet_size", "uniform1-6");
    cfg.setInt("measure_cycles", 2000);
    const RunStats stats = runExperiment(cfg);
    EXPECT_NEAR(stats.acceptedFlitsPerNodeCycle, 0.2, 0.04);
}

TEST(HotspotMode, OnlyBackgroundIsMeasured)
{
    SimConfig cfg = quickConfig("footprint", "hotspot", 0.3);
    cfg.setDouble("background_rate", 0.2);
    const RunStats stats = runExperiment(cfg);
    EXPECT_GT(stats.measuredEjected, 0u);
    // Hotspot packets were generated and ejected but never measured.
    EXPECT_GT(stats.hotspotLatency.count(), 0u);
}

TEST(HotspotMode, HotspotPressureRaisesBackgroundLatency)
{
    SimConfig low = quickConfig("dbar", "hotspot", 0.05);
    low.setDouble("background_rate", 0.2);
    SimConfig high = quickConfig("dbar", "hotspot", 0.45);
    high.setDouble("background_rate", 0.2);
    const RunStats a = runExperiment(low);
    const RunStats b = runExperiment(high);
    EXPECT_GT(b.avgLatency(), a.avgLatency());
}

TEST(TraceMode, ReplaysAllPackets)
{
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path = (dir / "fp_tm_trace.txt").string();
    const Mesh mesh(4, 4);
    AppProfile prof = parsecProfile("dedup");
    const auto count = writeTraceFile(path, mesh, prof, 500, 5);
    ASSERT_GT(count, 0u);

    SimConfig cfg = quickConfig("footprint", "trace", 0.0);
    cfg.set("trace_file", path);
    cfg.setInt("warmup_cycles", 0);
    cfg.setInt("measure_cycles", 500);
    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.drained);
    EXPECT_EQ(stats.measuredCreated, count);
    EXPECT_EQ(stats.measuredEjected, count);
    std::remove(path.c_str());
}

TEST(TraceMode, HonorsPerEventPacketSizes)
{
    // Regression: replayed packets must use the trace's size field,
    // not the synthetic packet_size distribution.
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path = (dir / "fp_tm_sizes.txt").string();
    std::int64_t total_flits = 0;
    {
        TraceWriter w(path);
        for (int i = 0; i < 20; ++i) {
            const int size = 1 + (i % 5);
            w.append(TraceEvent{i * 3, i % 16, (i + 5) % 16, size});
            total_flits += size;
        }
    }
    SimConfig cfg = quickConfig("dor", "trace", 0.0);
    cfg.set("trace_file", path);
    cfg.setInt("warmup_cycles", 0);
    cfg.setInt("measure_cycles", 100);
    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.drained);
    // Accepted throughput is measured in flits: it must reflect the
    // multi-flit sizes (window 100 cycles, 16 nodes).
    EXPECT_NEAR(stats.acceptedFlitsPerNodeCycle,
                static_cast<double>(total_flits) / (16.0 * 100.0),
                0.01);
    std::remove(path.c_str());
}

TEST(OfferedLoad, TraceCountsTheWindowsFlitsExactly)
{
    // Offered load is measured, not copied from injection_rate: the
    // flits of the packets created in the measurement window, per
    // terminal per cycle. The trace spans the window on both sides.
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path = (dir / "fp_tm_offered.txt").string();
    std::int64_t window_flits = 0;
    {
        TraceWriter w(path);
        for (int i = 0; i < 60; ++i) {
            const TraceEvent e{i * 5, i % 16, (i + 3) % 16, 1 + i % 4};
            if (e.cycle >= 50 && e.cycle < 250)
                window_flits += e.size;
            w.append(e);
        }
    }
    SimConfig cfg = quickConfig("dor", "trace", 0.1);
    cfg.set("trace_file", path);
    cfg.setInt("warmup_cycles", 50);
    cfg.setInt("measure_cycles", 200);
    const RunStats stats = runExperiment(cfg);
    EXPECT_DOUBLE_EQ(stats.offeredFlitsPerNodeCycle,
                     static_cast<double>(window_flits) / (16.0 * 200.0));
    std::remove(path.c_str());
}

TEST(OfferedLoad, HotspotCountsEveryFlowClass)
{
    // The eight Table-3 flows at 0.4 plus background at 0.1 from the
    // other eight nodes of the 4x4 mesh: (8 x 0.4 + 8 x 0.1) / 16.
    SimConfig cfg = quickConfig("dbar", "hotspot", 0.4);
    cfg.setDouble("background_rate", 0.1);
    cfg.setInt("measure_cycles", 2000);
    const RunStats stats = runExperiment(cfg);
    EXPECT_NEAR(stats.offeredFlitsPerNodeCycle, 0.25, 0.01);
}

TEST(Saturation, OversubscribedRunIsFlagged)
{
    SimConfig cfg = quickConfig("dor", "transpose", 0.9);
    cfg.setInt("drain_cycles", 1500);
    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.saturated);
    EXPECT_FALSE(stats.drained);
}

TEST(PurityCounters, PopulatedUnderContention)
{
    SimConfig cfg = quickConfig("footprint", "uniform", 0.35);
    const RunStats stats = runExperiment(cfg);
    EXPECT_GT(stats.counters.vcAllocFail, 0u);
    EXPECT_GE(stats.counters.purity(), 0.0);
    EXPECT_LE(stats.counters.purity(), 1.0);
    EXPECT_GE(stats.counters.holDegree(), 0.0);
}

/**
 * FNV-1a digest of every RunStats field except the offered load (a
 * measured quantity, pinned by its own tests).
 */
std::string
statsDigest(const RunStats& s)
{
    std::uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](auto v) {
        std::uint64_t bits = 0;
        if constexpr (std::is_floating_point_v<decltype(v)>)
            bits = std::bit_cast<std::uint64_t>(static_cast<double>(v));
        else
            bits = static_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ULL;
        }
    };
    auto mixStr = [&](const std::string& str) {
        mix(str.size());
        for (const char c : str)
            mix(c);
    };
    auto mixAcc = [&](const StatAccumulator& a) {
        mix(a.count());
        mix(a.sum());
        mix(a.min());
        mix(a.max());
        mix(a.variance());
    };
    auto mixHdr = [&](const HdrHistogram& hd) {
        mix(hd.count());
        mix(hd.overflowCount());
        mix(hd.max());
        mix(hd.mean());
        for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999})
            mix(hd.percentile(q));
    };
    mixAcc(s.latency);
    mix(s.latencyHist.count());
    mix(s.latencyHist.overflowCount());
    for (std::size_t b = 0; b < s.latencyHist.numBins(); ++b)
        mix(s.latencyHist.binCount(b));
    mixHdr(s.latencyHdr);
    mixAcc(s.hotspotLatency);
    mixHdr(s.hotspotLatencyHdr);
    mixAcc(s.hops);
    mix(s.acceptedFlitsPerNodeCycle);
    mix(s.measuredCreated);
    mix(s.measuredEjected);
    mix(s.drained);
    mix(s.saturated);
    mixStr(s.stallClass);
    mix(s.auditViolations);
    mix(s.watchdogEvents);
    mixStr(s.stateDumpPath);
    mixStr(s.profilePath);
    mixStr(s.heatmapPath);
    mixStr(s.timeseriesPath);
    for (const WindowRecord& w : s.windows) {
        for (const auto v : {w.index, w.startCycle, w.endCycle,
                             w.flitsInFlight, w.vcOcc, w.fpOcc,
                             w.injBacklog})
            mix(v);
        for (const auto v : {w.offeredFlits, w.acceptedFlits,
                             w.packetsEjected, w.latencyCount,
                             w.latencyMax, w.vaFails, w.watchdogEvents})
            mix(v);
        for (const auto v : {w.latencyMean, w.latencyP50, w.latencyP99,
                             w.latencyP999, w.linkUtil})
            mix(v);
        mix(w.activeNodes);
        for (const auto g : w.vaGrants)
            mix(g);
    }
    mix(s.steadyStateCycle);
    mix(s.saturationOnsetCycle);
    mix(s.warmupUsed);
    mix(s.measuredBeforeSteady);
    mix(s.counters.vcAllocSuccess);
    mix(s.counters.vcAllocFail);
    mix(s.counters.puritySum);
    mix(s.counters.puritySamples);
    mix(s.counters.flitsTraversed);
    for (const auto g : s.counters.vaGrantsByPriority)
        mix(g);
    mix(s.cyclesRun);
    mix(s.cyclesSkipped);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

TEST(RunDigest, EveryTrafficModeMatchesItsPin)
{
    // Exact results of every traffic mode and every driver feature
    // that shares the run loop, pinned so a refactor of the loop (or a
    // change in the RNG draw order) cannot shift them unnoticed.
    const auto dir = std::filesystem::temp_directory_path();
    const std::string trace = (dir / "fp_tm_digest_trace.txt").string();
    ASSERT_GT(writeTraceFile(trace, Mesh(4, 4),
                             parsecProfile("blackscholes"), 1100, 3),
              0u);
    struct Case
    {
        const char* name;
        const char* routing;
        const char* traffic;
        double rate;
        std::vector<std::pair<const char*, const char*>> overrides;
        const char* digest;
    };
    const Case cases[] = {
        {"uniform_0.1", "footprint", "uniform", 0.1, {},
         "a1e2a93dc9f6136d"},
        {"uniform_0.45", "footprint", "uniform", 0.45, {},
         "bfa262b827cb7403"},
        {"uniform_0.9", "footprint", "uniform", 0.9, {},
         "22c839b53e62a2ef"},
        {"uniform_0.005_skip", "footprint", "uniform", 0.005,
         {{"skip_ahead", "true"}}, "cfea504fccffd4b2"},
        {"transpose", "footprint", "transpose", 0.2, {},
         "d4b8426db246a330"},
        {"shuffle", "footprint", "shuffle", 0.2, {}, "a465291673aa7797"},
        {"hotspot_default_bg", "footprint", "hotspot", 0.3, {},
         "b7609e160664a95e"},
        {"hotspot_bg_0.15", "footprint", "hotspot", 0.3,
         {{"background_rate", "0.15"}}, "896174572e8731cb"},
        {"trace_skip", "footprint", "trace", 0.0,
         {{"trace_file", trace.c_str()}, {"skip_ahead", "true"}},
         "91170756d204101c"},
        {"trace_noskip", "footprint", "trace", 0.0,
         {{"trace_file", trace.c_str()}, {"skip_ahead", "false"}},
         "343955926f3cc2ba"},
        {"var_size", "footprint", "uniform", 0.2,
         {{"packet_size", "uniform1-6"}}, "94cfd27e8a8ad86e"},
        {"cmesh_uniform", "dor", "uniform", 0.1,
         {{"topology", "cmesh"}, {"mesh_width", "2"},
          {"mesh_height", "2"}, {"concentration", "4"}},
         "cec76005ba381a08"},
        {"cmesh_hotspot", "dor", "hotspot", 0.2,
         {{"topology", "cmesh"}, {"mesh_width", "2"},
          {"mesh_height", "2"}, {"concentration", "4"}},
         "d809f2097e3071c7"},
        {"torus_dor", "dor", "uniform", 0.2, {{"topology", "torus"}},
         "87a3c51dd7a6869a"},
        {"warmup_auto", "footprint", "uniform", 0.2,
         {{"warmup", "auto"}, {"timeseries_interval", "100"},
          {"warmup_max_cycles", "600"}},
         "5a2a60a479cd9237"},
        {"timeseries_mem", "footprint", "uniform", 0.2,
         {{"timeseries", "true"}, {"timeseries_out", ""},
          {"timeseries_interval", "100"}},
         "9e7292bf5e4eeed6"},
        {"audit", "footprint", "uniform", 0.3,
         {{"audit", "true"}, {"audit_interval", "50"}},
         "fef943a86a1faa30"},
        {"sharded", "footprint", "uniform", 0.3,
         {{"step_mode", "sharded"}, {"threads", "2"}},
         "fef943a86a1faa30"},
        {"dbar_hotspot", "dbar", "hotspot", 0.3, {}, "1c7dab802f45833c"},
        {"oddeven", "oddeven", "transpose", 0.2, {}, "16be94993add4a24"},
    };
    for (const Case& c : cases) {
        SimConfig cfg = quickConfig(c.routing, c.traffic, c.rate);
        for (const auto& [key, value] : c.overrides)
            cfg.set(key, value);
        EXPECT_EQ(statsDigest(runExperiment(cfg)), c.digest) << c.name;
    }
    std::remove(trace.c_str());
}

} // namespace
} // namespace footprint
