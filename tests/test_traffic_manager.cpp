/**
 * @file
 * Integration tests for the traffic manager: full warmup / measure /
 * drain runs across algorithms and traffic modes, deadlock freedom
 * under load, hotspot measurement methodology, and trace replay.
 */

#include <gtest/gtest.h>

#include <filesystem>

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
    // each with a message naming its key.
    struct Case
    {
        const char* key;
        const char* value;
        const char* observer;  ///< bool key switched on, or nullptr
        const char* message;
    };
    const Case cases[] = {
        {"warmup_cycles", "-5", nullptr, "warmup_cycles must be >= 0"},
        {"fp_vc_cap", "-3", nullptr, "fp_vc_cap must be >= 0"},
        {"timeseries_interval", "0", "timeseries",
         "timeseries_interval must be >= 1"},
        {"timeseries_interval", "0", "heatmap",
         "timeseries_interval must be >= 1"},
        {"audit_interval", "0", "audit", "audit_interval must be >= 1"},
        {"shards", "100000", nullptr, "shards must be at most"},
        {"injection_rate", "2", nullptr, "injection_rate must be in"},
    };
    for (const Case& c : cases) {
        SimConfig cfg = quickConfig("footprint", "uniform", 0.05);
        cfg.set("timeseries_out", "");
        cfg.set(c.key, c.value);
        if (c.observer)
            cfg.setBool(c.observer, true);
        EXPECT_EXIT(runExperiment(cfg), testing::ExitedWithCode(1),
                    std::string("fatal: ") + c.message)
            << c.key << "=" << c.value
            << (c.observer ? std::string(" with ") + c.observer : "");
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

} // namespace
} // namespace footprint
