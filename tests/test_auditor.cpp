/**
 * @file
 * Tests for the runtime invariant auditor and the forensic state-dump
 * path: clean audits across all routing algorithms under saturating
 * hotspot load, fault-seeded detection latency (a leaked credit must
 * be caught within one audit interval), and dump-on-abort artifacts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "network/network.hpp"
#include "network/traffic_manager.hpp"
#include "obs/auditor.hpp"
#include "obs/run_metadata.hpp"
#include "obs/state_dump.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"

namespace footprint {
namespace {

SimConfig
meshConfig()
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", 4);
    return cfg;
}

std::string
readFile(const std::filesystem::path& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ------------------------------------------------ clean-network runs

class AuditAlgo : public testing::TestWithParam<std::string>
{};

TEST_P(AuditAlgo, SaturatedHotspotRunsWithZeroViolations)
{
    SimConfig cfg = meshConfig();
    cfg.set("routing", GetParam());
    cfg.set("traffic", "hotspot");
    cfg.setDouble("injection_rate", 1.0); // ~2x saturation
    cfg.setDouble("background_rate", 0.9);
    cfg.setInt("warmup_cycles", 300);
    cfg.setInt("measure_cycles", 600);
    cfg.setInt("drain_cycles", 1500);
    cfg.setBool("audit", true);
    cfg.setInt("audit_interval", 250);

    const RunStats stats = runExperiment(cfg);
    EXPECT_EQ(stats.auditViolations, 0u)
        << GetParam() << " violated invariants under saturation";
    // Saturation is congestion, never deadlock, for every algorithm.
    if (!stats.drained) {
        EXPECT_EQ(stats.stallClass, "tree_saturation") << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AuditAlgo,
                         testing::Values("dor", "oddeven", "dbar",
                                         "footprint"));

// ------------------------------------------------ fault seeding

TEST(Auditor, LeakedCreditCaughtWithinOneAuditInterval)
{
    SimConfig cfg = meshConfig();
    Network net(cfg);

    InvariantAuditor::Params params;
    params.interval = 100;
    InvariantAuditor auditor(net, params);

    // Light traffic so the audited state is not trivially empty.
    std::uint64_t id = 1;
    for (int node = 0; node < 4; ++node) {
        Packet p;
        p.id = id++;
        p.src = node;
        p.dest = 15 - node;
        p.size = 3;
        p.createTime = 0;
        net.endpoint(node).enqueue(p);
    }

    constexpr std::int64_t kLeakCycle = 150;
    std::int64_t caught_at = -1;
    for (std::int64_t cycle = 0; cycle < 300; ++cycle) {
        net.step(cycle);
        if (cycle == kLeakCycle)
            net.router(5).debugLeakCredit(portOf(Dir::East), 1);
        auditor.tick(cycle);
        if (caught_at < 0 && !auditor.clean())
            caught_at = cycle;
    }

    ASSERT_GT(auditor.auditsRun(), 0u);
    ASSERT_FALSE(auditor.clean());
    // Detection latency: no later than the first audit after the leak.
    ASSERT_GE(caught_at, kLeakCycle);
    EXPECT_LE(caught_at, kLeakCycle + params.interval);

    ASSERT_FALSE(auditor.violations().empty());
    const auto& v = auditor.violations().front();
    EXPECT_EQ(v.check, "credit_conservation");
    EXPECT_EQ(v.node, 5);
    EXPECT_NE(v.toString().find("credit_conservation"),
              std::string::npos);
}

TEST(Auditor, CleanIdleNetworkAuditsClean)
{
    SimConfig cfg = meshConfig();
    Network net(cfg);
    InvariantAuditor::Params params;
    InvariantAuditor auditor(net, params);
    EXPECT_EQ(auditor.auditNow(0), 0u);
    EXPECT_TRUE(auditor.clean());
    EXPECT_EQ(auditor.auditsRun(), 1u);
}

// ------------------------------------------------ forensic dumps

TEST(StateDump, SaturatedRunWithDumpOnAbortWritesSchemaValidFile)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() / "fp_test_state_dump.json";
    fs::remove(path);

    SimConfig cfg = meshConfig();
    cfg.set("traffic", "hotspot");
    cfg.setDouble("injection_rate", 1.0);
    cfg.setDouble("background_rate", 0.9);
    cfg.setInt("warmup_cycles", 200);
    cfg.setInt("measure_cycles", 400);
    cfg.setInt("drain_cycles", 800);
    cfg.setBool("audit", true);
    cfg.setBool("dump_on_abort", true);
    cfg.set("dump_path", path.string());

    const RunStats stats = runExperiment(cfg);
    ASSERT_FALSE(stats.drained);
    EXPECT_EQ(stats.stateDumpPath, path.string());
    ASSERT_TRUE(fs::exists(path));

    const std::string dump = readFile(path);
    EXPECT_EQ(dump.rfind("{\"schema\":\"footprint.state_dump/1\"", 0),
              0u);
    EXPECT_NE(dump.find("\"reason\":"), std::string::npos);
    EXPECT_NE(dump.find("\"stall\":{\"class\":\"tree_saturation\""),
              std::string::npos);
    EXPECT_NE(dump.find("\"config_hash\":"), std::string::npos);
    EXPECT_NE(dump.find("\"routers\":["), std::string::npos);
    EXPECT_NE(dump.find("\"endpoints\":["), std::string::npos);
    EXPECT_NE(dump.find("\"channels\":["), std::string::npos);
    fs::remove(path);
}

TEST(StateDump, DrainedCleanRunWritesNoDump)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() / "fp_test_no_dump.json";
    fs::remove(path);

    SimConfig cfg = meshConfig();
    cfg.setDouble("injection_rate", 0.05);
    cfg.setInt("warmup_cycles", 100);
    cfg.setInt("measure_cycles", 200);
    cfg.setInt("drain_cycles", 2000);
    cfg.setBool("audit", true);
    cfg.setBool("dump_on_abort", true);
    cfg.set("dump_path", path.string());

    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.drained);
    EXPECT_EQ(stats.auditViolations, 0u);
    EXPECT_TRUE(stats.stateDumpPath.empty());
    EXPECT_FALSE(fs::exists(path));
}

TEST(StateDump, PanicPathProducesDumpBeforeRethrow)
{
    // The supervisory pattern runExperiment uses: catch the
    // InvariantError, serialize forensics, rethrow. Exercised here at
    // the Network level by underflowing a credit counter.
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() / "fp_test_panic_dump.json";
    fs::remove(path);

    SimConfig cfg = meshConfig();
    Network net(cfg);
    const RunMetadata meta = RunMetadata::fromConfig(cfg);

    bool threw = false;
    try {
        // Drain all credits of one output VC, then one more.
        for (int i = 0; i <= cfg.getInt("vc_buf_size"); ++i)
            net.router(5).debugLeakCredit(portOf(Dir::East), 1);
    } catch (const InvariantError& e) {
        threw = true;
        StateDumpContext ctx;
        ctx.cycle = 42;
        ctx.reason = std::string("panic: ") + e.what();
        EXPECT_TRUE(dumpStateToFile(path.string(), net, meta, ctx));
    }
    ASSERT_TRUE(threw);
    const std::string dump = readFile(path);
    EXPECT_NE(dump.find("\"reason\":\"panic: "), std::string::npos);
    EXPECT_NE(dump.find("\"cycle\":42"), std::string::npos);
    fs::remove(path);
}

TEST(StateDump, UnwritablePathWarnsInsteadOfAborting)
{
    SimConfig cfg = meshConfig();
    Network net(cfg);
    StateDumpContext ctx;
    ctx.reason = "test";
    setQuiet(true);
    EXPECT_FALSE(dumpStateToFile("/nonexistent_dir/x/y.json", net,
                                 RunMetadata(), ctx));
    setQuiet(false);
}

} // namespace
} // namespace footprint
