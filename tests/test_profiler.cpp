/**
 * @file
 * Unit tests for the simulator self-profiler: phase attribution, RAII
 * scopes, sharded accumulators with the serial scratch merge, and the
 * footprint.profile/1 row/document emitters.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/run_metadata.hpp"

namespace footprint {
namespace {

TEST(Profiler, PhaseNamesCoverAllPhases)
{
    EXPECT_STREQ(profPhaseName(ProfPhase::Inject), "inject");
    EXPECT_STREQ(profPhaseName(ProfPhase::Drain), "drain");
    EXPECT_STREQ(profPhaseName(ProfPhase::Compute), "compute");
    EXPECT_STREQ(profPhaseName(ProfPhase::Transmit), "transmit");
    EXPECT_STREQ(profPhaseName(ProfPhase::Epilogue), "epilogue");
    EXPECT_STREQ(profPhaseName(ProfPhase::Collect), "collect");
}

TEST(Profiler, AddPhaseAccumulatesTimeAndCalls)
{
    Profiler prof;
    prof.addPhaseNs(ProfPhase::Compute, 1500);
    prof.addPhaseNs(ProfPhase::Compute, 500);
    prof.addPhaseNs(ProfPhase::Drain, 250);
    EXPECT_DOUBLE_EQ(prof.phaseSeconds(ProfPhase::Compute), 2e-6);
    EXPECT_EQ(prof.phaseCalls(ProfPhase::Compute), 2u);
    EXPECT_EQ(prof.phaseCalls(ProfPhase::Drain), 1u);
    EXPECT_EQ(prof.phaseCalls(ProfPhase::Transmit), 0u);
}

TEST(Profiler, ScopeRecordsElapsedTime)
{
    Profiler prof;
    {
        ProfileScope scope(&prof, ProfPhase::Transmit);
        // Burn a little time so the scope measures something nonzero.
        volatile int x = 0;
        for (int i = 0; i < 10000; ++i)
            x = x + i;
        (void)x;
    }
    EXPECT_EQ(prof.phaseCalls(ProfPhase::Transmit), 1u);
    EXPECT_GT(prof.phaseSeconds(ProfPhase::Transmit), 0.0);
}

TEST(Profiler, NullScopeIsNoOp)
{
    // The hot path's disabled configuration: scope on a null profiler.
    ProfileScope scope(nullptr, ProfPhase::Compute);
    SUCCEED();
}

TEST(Profiler, RunClockAnchorsCycles)
{
    Profiler prof;
    prof.beginRun();
    prof.endRun(1234);
    EXPECT_EQ(prof.cycles(), 1234);
    EXPECT_GE(prof.runSeconds(), 0.0);
}

TEST(Profiler, ShardedAccumulatorsAndImbalance)
{
    Profiler prof;
    prof.configureSharded(4, 2, 2);
    ASSERT_TRUE(prof.sharded());
    ASSERT_EQ(prof.shardCount(), 4);
    // Shard busy: 1ms, 2ms, 3ms, 2ms -> mean 2ms, max 3ms.
    prof.addShardBusyNs(0, 1000000);
    prof.addShardBusyNs(1, 2000000);
    prof.addShardBusyNs(2, 3000000);
    prof.addShardBusyNs(3, 2000000);
    EXPECT_DOUBLE_EQ(prof.shardBusySeconds(2), 3e-3);
    EXPECT_DOUBLE_EQ(prof.imbalanceRatio(), 1.5);
}

TEST(Profiler, BalancedShardsReportRatioOne)
{
    Profiler prof;
    prof.configureSharded(2, 2, 2);
    prof.addShardBusyNs(0, 5000);
    prof.addShardBusyNs(1, 5000);
    EXPECT_DOUBLE_EQ(prof.imbalanceRatio(), 1.0);
}

TEST(Profiler, UnshardedImbalanceIsZero)
{
    Profiler prof;
    EXPECT_FALSE(prof.sharded());
    EXPECT_DOUBLE_EQ(prof.imbalanceRatio(), 0.0);
}

TEST(Profiler, BarrierWaitsMergeFromScratch)
{
    Profiler prof;
    prof.configureSharded(4, 2, 2);
    // One simulated cycle: both chunks wait at three barriers.
    for (int chunk = 0; chunk < 2; ++chunk) {
        prof.recordBarrierWaitNs(chunk, 100);
        prof.recordBarrierWaitNs(chunk, 1000);
        prof.recordBarrierWaitNs(chunk, 10000);
    }
    // Not yet merged: the histogram only fills from the serial fold.
    EXPECT_EQ(prof.barrierWaits().count(), 0u);
    prof.mergeCycleScratch();
    EXPECT_EQ(prof.barrierWaits().count(), 6u);
    EXPECT_EQ(prof.barrierWaits().max(), 10000u);
    // Scratch is consumed: merging again adds nothing.
    prof.mergeCycleScratch();
    EXPECT_EQ(prof.barrierWaits().count(), 6u);
}

TEST(Profiler, BarrierScratchBoundsWaitsPerCycle)
{
    Profiler prof;
    prof.configureSharded(1, 1, 1);
    // Pathological cycle recording more waits than the scratch holds:
    // the excess is dropped, never written out of bounds.
    for (int i = 0; i < 100; ++i)
        prof.recordBarrierWaitNs(0, 50);
    prof.mergeCycleScratch();
    EXPECT_LE(prof.barrierWaits().count(), 8u);
    EXPECT_GT(prof.barrierWaits().count(), 0u);
}

TEST(Profiler, JsonRowHasPhaseTableAndShardedBlock)
{
    Profiler prof;
    prof.configureSharded(2, 2, 2);
    const std::vector<int> bands = {0, 120};
    prof.setShardBands(bands, 7);
    prof.beginRun();
    prof.addPhaseNs(ProfPhase::Epilogue, 1000);
    prof.addShardBusyNs(0, 4000);
    prof.addShardBusyNs(1, 2000);
    prof.recordBarrierWaitNs(0, 300);
    prof.mergeCycleScratch();
    prof.endRun(10);

    const std::string row = prof.toJsonRow("sat16/dor@t2", "sharded", 2);
    EXPECT_NE(row.find("\"name\":\"sat16/dor@t2\""), std::string::npos);
    EXPECT_NE(row.find("\"mode\":\"sharded\""), std::string::npos);
    EXPECT_NE(row.find("\"threads\":2"), std::string::npos);
    EXPECT_NE(row.find("\"cycles\":10"), std::string::npos);
    for (const char* phase :
         {"inject", "drain", "compute", "transmit", "epilogue",
          "collect"})
        EXPECT_NE(row.find(std::string("\"name\":\"") + phase + "\""),
                  std::string::npos)
            << phase;
    EXPECT_NE(row.find("\"sharded\":{"), std::string::npos);
    EXPECT_NE(row.find("\"shard_busy_seconds\":["), std::string::npos);
    EXPECT_NE(row.find("\"imbalance_ratio\":"), std::string::npos);
    EXPECT_NE(row.find("\"p999_ns\":"), std::string::npos);
    // Where the bands ended up, and how often a re-cut moved them.
    EXPECT_NE(row.find("\"band_starts\":[0,120]"), std::string::npos);
    EXPECT_NE(row.find("\"recuts\":7}"), std::string::npos);
}

TEST(Profiler, SerialRowHasNullShardedBlock)
{
    Profiler prof;
    prof.beginRun();
    prof.addPhaseNs(ProfPhase::Compute, 1000);
    prof.endRun(5);
    const std::string row = prof.toJsonRow("low/dor", "activity", 1);
    EXPECT_NE(row.find("\"sharded\":null"), std::string::npos);
}

TEST(Profiler, DocumentWrapsRowsWithSchema)
{
    Profiler prof;
    prof.beginRun();
    prof.endRun(1);
    const std::vector<std::string> rows = {
        prof.toJsonRow("a", "full", 1),
        prof.toJsonRow("b", "activity", 1),
    };
    const std::string doc = profileDocument(RunMetadata(), rows);
    EXPECT_EQ(doc.find("{\"schema\":\"footprint.profile/1\""), 0u);
    EXPECT_NE(doc.find("\"rows\":["), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"a\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"b\""), std::string::npos);
    EXPECT_NE(doc.find("\"meta\":{\"seed\":"), std::string::npos);
}

TEST(Profiler, WriteDocumentRoundTrips)
{
    Profiler prof;
    prof.beginRun();
    prof.endRun(1);
    const std::string path = testing::TempDir() + "fp_profile_ut.json";
    ASSERT_TRUE(writeProfileDocument(
        path, RunMetadata(), {prof.toJsonRow("x", "full", 1)}));
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    EXPECT_NE(buf.str().find("footprint.profile/1"),
              std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace footprint
