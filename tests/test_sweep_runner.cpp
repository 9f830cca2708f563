/**
 * @file
 * Tests for the parallel sweep engine: deterministic job expansion and
 * seed derivation, costliest-first dispatch and its recorded schedule,
 * thread-count-invariant results and artifacts,
 * per-job artifact-path isolation, fatal errors for empty grid axes,
 * what its curves and saturation estimates measure on a small mesh,
 * and the sweep CLI helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "exec/exec_context.hpp"
#include "exec/sweep_runner.hpp"
#include "expect_panic.hpp"
#include "network/sweep.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"

namespace footprint {
namespace {

SimConfig
tinyBase()
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", 4);
    cfg.setInt("warmup_cycles", 100);
    cfg.setInt("measure_cycles", 300);
    cfg.setInt("drain_cycles", 1500);
    cfg.setInt("seed", 7);
    return cfg;
}

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.base = tinyBase();
    spec.rates = {0.05, 0.15};
    spec.routings = {"dor", "dbar"};
    spec.meshes = {{4, 4}};
    spec.traffics = {"uniform"};
    spec.seeds = 2;
    return spec;
}

constexpr MeshSize kTiny{4, 4};

/**
 * DOR on the 4x4 mesh with phases long enough for stable curves: one
 * sweep over @p traffics at @p rates.
 */
SweepResult
runTinyLadder(const std::vector<std::string>& traffics,
              std::vector<double> rates, std::int64_t drain_cycles)
{
    SweepSpec spec;
    spec.base = tinyBase();
    spec.base.setInt("warmup_cycles", 200);
    spec.base.setInt("measure_cycles", 600);
    spec.base.setInt("drain_cycles", drain_cycles);
    spec.rates = std::move(rates);
    spec.routings = {"dor"};
    spec.meshes = {kTiny};
    spec.traffics = traffics;
    ExecContext ctx(2);
    return SweepRunner(ctx).run(spec);
}

TEST(SweepExpand, CanonicalOrderAndDerivedSeeds)
{
    const SweepSpec spec = tinySpec();
    const std::vector<SimJob> jobs = SweepRunner::expand(spec);
    // 1 mesh x 2 routings x 1 traffic x 2 replicates x (1 probe + 2
    // rates) = 12 jobs.
    ASSERT_EQ(jobs.size(), 12u);

    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].index, i);
        EXPECT_EQ(jobs[i].seed, deriveStreamSeed(7, i));
        EXPECT_EQ(static_cast<std::uint64_t>(
                      jobs[i].cfg.getInt("seed")),
                  jobs[i].seed);
        seeds.insert(jobs[i].seed);
    }
    EXPECT_EQ(seeds.size(), jobs.size()) << "job seeds must be unique";

    // Row-major order: routing varies before replicate, probe first.
    EXPECT_TRUE(jobs[0].probe);
    EXPECT_EQ(jobs[0].routing, "dor");
    EXPECT_DOUBLE_EQ(jobs[1].rate, 0.05);
    EXPECT_DOUBLE_EQ(jobs[2].rate, 0.15);
    EXPECT_EQ(jobs[3].replicate, 1);
    EXPECT_EQ(jobs[6].routing, "dbar");
    EXPECT_EQ(jobs[6].replicate, 0);

    // Materialized configs carry the grid coordinates.
    EXPECT_EQ(jobs[1].cfg.getStr("routing"), "dor");
    EXPECT_EQ(jobs[1].cfg.getInt("mesh_width"), 4);
    EXPECT_DOUBLE_EQ(jobs[1].cfg.getDouble("injection_rate"), 0.05);
}

TEST(SweepExpand, ExpansionIsReproducible)
{
    const SweepSpec spec = tinySpec();
    const auto a = SweepRunner::expand(spec);
    const auto b = SweepRunner::expand(spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].cfg.toString(), b[i].cfg.toString());
    }
}

TEST(SweepExpand, IsolatesPerJobArtifactPaths)
{
    SweepSpec spec = tinySpec();
    spec.base.setBool("profile", true);
    spec.base.setBool("heatmap", true);
    spec.base.setInt("trace_packets", 5);
    spec.base.setBool("dump_on_abort", true);
    // An empty timeseries_out means in-memory windows: it stays empty.
    spec.base.setBool("timeseries", true);
    spec.base.set("timeseries_out", "");
    const std::vector<SimJob> jobs = SweepRunner::expand(spec);
    std::set<std::string> profiles;
    std::set<std::string> heatmaps;
    std::set<std::string> traces;
    std::set<std::string> dumps;
    for (const SimJob& job : jobs) {
        profiles.insert(job.cfg.getStr("profile_out"));
        heatmaps.insert(job.cfg.getStr("heatmap_out"));
        traces.insert(job.cfg.getStr("trace_out"));
        dumps.insert(job.cfg.getStr("dump_path"));
        EXPECT_EQ(job.cfg.getStr("timeseries_out"), "");
    }
    // Every job writes its own files — no clobbering across threads.
    EXPECT_EQ(profiles.size(), jobs.size());
    EXPECT_EQ(heatmaps.size(), jobs.size());
    EXPECT_EQ(traces.size(), jobs.size());
    EXPECT_EQ(dumps.size(), jobs.size());
    EXPECT_EQ(jobs[3].cfg.getStr("profile_out"), "profile.job3.json");
    EXPECT_EQ(jobs[3].cfg.getStr("heatmap_out"), "heatmap.job3.json");
    EXPECT_EQ(jobs[3].cfg.getStr("trace_out"), "trace.job3.jsonl");
}

TEST(SweepExpand, NoSeedReplicateIsFatal)
{
    SweepSpec spec = tinySpec();
    spec.seeds = 0;
    EXPECT_EXIT(SweepRunner::expand(spec), testing::ExitedWithCode(1),
                "fatal: sweep_seeds must be >= 1, got 0");
    spec.seeds = -3;
    EXPECT_EXIT(SweepRunner::expand(spec), testing::ExitedWithCode(1),
                "fatal: sweep_seeds must be >= 1, got -3");
}

TEST(SweepExpand, EmptyRoutingListIsFatal)
{
    SweepSpec spec = tinySpec();
    spec.routings = splitList(",");
    EXPECT_EXIT(SweepRunner::expand(spec), testing::ExitedWithCode(1),
                "fatal: sweep_routings names no routing algorithm");
}

TEST(SweepExpand, EmptyMeshListIsFatal)
{
    SweepSpec spec = tinySpec();
    spec.meshes.clear(); // what sweep_meshes=, parses to
    EXPECT_EXIT(SweepRunner::expand(spec), testing::ExitedWithCode(1),
                "fatal: sweep_meshes names no mesh size");
}

TEST(SweepExpand, EmptyTrafficListIsFatal)
{
    SweepSpec spec = tinySpec();
    spec.traffics = splitList(" , ");
    EXPECT_EXIT(SweepRunner::expand(spec), testing::ExitedWithCode(1),
                "fatal: sweep_traffics names no traffic pattern");
}

TEST(SweepExpand, EmptyRateListIsFatal)
{
    SweepSpec spec = tinySpec();
    spec.rates.clear();
    EXPECT_EXIT(SweepRunner::expand(spec), testing::ExitedWithCode(1),
                "fatal: sweep_rates names no offered rate");
}

TEST(SweepExpand, RateOutsideUnitIntervalIsFatal)
{
    // Rejected before any worker thread starts a job.
    for (const double rate : {1.5, 0.0}) {
        SweepSpec spec = tinySpec();
        spec.rates = {0.05, rate};
        EXPECT_EXIT(SweepRunner::expand(spec), testing::ExitedWithCode(1),
                    "fatal: sweep_rates must lie in \\(0, 1\\]")
            << "rate=" << rate;
    }
}

TEST(SweepDispatch, CostliestJobsStartFirst)
{
    SweepSpec spec = tinySpec();
    spec.meshes = {{4, 4}, {6, 6}};
    spec.rates = {0.01, 0.15};  // 0.01 lies below the probe rate
    spec.seeds = 1;
    const std::vector<SimJob> jobs = SweepRunner::expand(spec);
    // Expansion: 4x4 dor = probe 0, rates 1-2; 4x4 dbar = 3, 4-5;
    // 6x6 dor = 6, 7-8; 6x6 dbar = 9, 10-11. Dispatch: the larger
    // mesh first, rate points by descending rate, probes last, ties
    // by job index.
    EXPECT_EQ(SweepRunner::dispatchOrder(jobs),
              (std::vector<std::size_t>{8, 11, 7, 10, 6, 9, 2, 5, 1, 4,
                                        0, 3}));
}

TEST(SweepRun, ScheduleRecordsEveryJobInJobOrder)
{
    const SweepSpec spec = tinySpec();
    ExecContext seq(1);
    const SweepResult result = SweepRunner(seq).run(spec);
    const std::vector<std::size_t> order =
        SweepRunner::dispatchOrder(SweepRunner::expand(spec));
    ASSERT_EQ(result.schedule.size(), result.jobs.size());
    for (const auto& [start, end] : result.schedule) {
        EXPECT_GE(start, 0.0);
        EXPECT_LE(start, end);
        EXPECT_LE(end, result.wallSeconds);
    }
    // One worker runs the jobs back to back in dispatch order, so
    // entries are indexed by job, not by start position.
    for (std::size_t k = 1; k < order.size(); ++k) {
        EXPECT_LE(result.schedule[order[k - 1]][1],
                  result.schedule[order[k]][0])
            << "dispatch position " << k;
    }

    // timing.schedule carries the same [start, end] pairs.
    const std::string doc = benchResultsJson(spec, result);
    const std::string key = "\"schedule\": [";
    const auto at = doc.find(key);
    ASSERT_NE(at, std::string::npos);
    const char* p = doc.c_str() + at + key.size();
    for (const auto& [start, end] : result.schedule) {
        char* after = nullptr;
        ASSERT_EQ(*p, '[');
        EXPECT_EQ(std::strtod(p + 1, &after), start);
        ASSERT_EQ(std::string(after, 2), ", ");
        EXPECT_EQ(std::strtod(after + 2, &after), end);
        ASSERT_EQ(*after, ']');
        p = after + 1;
        if (*p == ',')
            p += 2;
    }
    EXPECT_EQ(std::string(p, 2), "]}");
}

TEST(SweepRun, ResultsAreIdenticalForAnyThreadCount)
{
    const SweepSpec spec = tinySpec();
    ExecContext seq(1);
    ExecContext par(4);
    const SweepResult a = SweepRunner(seq).run(spec);
    const SweepResult b = SweepRunner(par).run(spec);

    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].index, b.jobs[i].index);
        EXPECT_EQ(a.jobs[i].seed, b.jobs[i].seed);
        EXPECT_DOUBLE_EQ(a.jobs[i].point.accepted,
                         b.jobs[i].point.accepted);
        EXPECT_DOUBLE_EQ(a.jobs[i].point.latency,
                         b.jobs[i].point.latency);
        EXPECT_EQ(a.jobs[i].point.saturated,
                  b.jobs[i].point.saturated);
        EXPECT_EQ(a.jobs[i].cycles, b.jobs[i].cycles);
    }
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.cells[i].saturation, b.cells[i].saturation);
        ASSERT_EQ(a.cells[i].curve.size(), b.cells[i].curve.size());
        for (std::size_t j = 0; j < a.cells[i].curve.size(); ++j) {
            EXPECT_DOUBLE_EQ(a.cells[i].curve[j].latency,
                             b.cells[i].curve[j].latency);
        }
    }
    // The exported artifact, minus wall-clock metadata, is
    // byte-identical — the CI determinism gate in C++ form.
    EXPECT_EQ(benchResultsJson(spec, a, /*include_timing=*/false),
              benchResultsJson(spec, b, /*include_timing=*/false));
}

TEST(SweepRun, ProducesSaturationPerCell)
{
    SweepSpec spec = tinySpec();
    spec.routings = {"dor"};
    ExecContext ctx(2);
    const SweepResult result = SweepRunner(ctx).run(spec);
    ASSERT_EQ(result.cells.size(), 1u);
    const SweepCell& cell = result.cell(kTiny, "dor", "uniform");
    EXPECT_EQ(&cell, &result.cells[0]);
    EXPECT_GT(cell.saturation, 0.0);
    EXPECT_GT(cell.zeroLoad, 0.0);
    // Two replicates' rate points, probes excluded, in job order.
    ASSERT_EQ(cell.curve.size(), 4u);
    EXPECT_DOUBLE_EQ(cell.curve[0].latency, result.jobs[1].point.latency);
    EXPECT_DOUBLE_EQ(cell.curve[3].latency, result.jobs[5].point.latency);
    EXPECT_GT(result.jobsPerSec, 0.0);
    EXPECT_EQ(result.baseSeed, 7u);
}

TEST(SweepRun, CellsAreSortedAndLookedUpByKey)
{
    SweepSpec spec = tinySpec();
    spec.routings = {"dor", "dbar"};
    spec.traffics = {"uniform", "transpose"};
    spec.rates = {0.05};
    spec.seeds = 1;
    ExecContext ctx(4);
    const SweepResult result = SweepRunner(ctx).run(spec);
    ASSERT_EQ(result.cells.size(), 4u);
    // Sorted by (mesh, routing, traffic), not in expansion order.
    EXPECT_EQ(result.cells[0].routing, "dbar");
    EXPECT_EQ(result.cells[0].traffic, "transpose");
    EXPECT_EQ(result.cells[3].routing, "dor");
    EXPECT_EQ(result.cells[3].traffic, "uniform");
    for (const SweepCell& c : result.cells)
        EXPECT_EQ(&result.cell(c.mesh, c.routing, c.traffic), &c);
    EXPECT_PANIC(result.cell(kTiny, "footprint", "uniform"),
                 "sweep has no cell 4x4/footprint/uniform");
}

TEST(ZeroLoadLatency, IsSmallAndPositive)
{
    const SweepResult result =
        runTinyLadder({"uniform"}, {0.05}, 3000);
    const JobResult& probe = result.jobs.front();
    ASSERT_TRUE(probe.probe);
    EXPECT_DOUBLE_EQ(probe.point.offered, kZeroLoadProbeRate);
    EXPECT_GT(probe.point.latency, 3.0);
    EXPECT_LT(probe.point.latency, 15.0);
    EXPECT_DOUBLE_EQ(result.cell(kTiny, "dor", "uniform").zeroLoad,
                     probe.point.latency);
}

TEST(LatencyThroughputCurve, LatencyIncreasesWithLoad)
{
    const SweepResult result =
        runTinyLadder({"uniform"}, {0.05, 0.2, 0.35}, 3000);
    const std::vector<CurvePoint>& points =
        result.cell(kTiny, "dor", "uniform").curve;
    ASSERT_EQ(points.size(), 3u);
    EXPECT_LT(points[0].latency, points[2].latency);
    for (const CurvePoint& p : points) {
        EXPECT_GT(p.latency, 0.0);
        EXPECT_NEAR(p.accepted, p.offered, 0.05);
        EXPECT_FALSE(p.saturated) << "offered " << p.offered;
    }
}

TEST(LatencyThroughputCurve, OverloadedPointIsMarkedSaturated)
{
    const SweepResult result = runTinyLadder({"transpose"}, {0.9}, 1200);
    const std::vector<CurvePoint>& points =
        result.cell(kTiny, "dor", "transpose").curve;
    ASSERT_EQ(points.size(), 1u);
    EXPECT_TRUE(points[0].saturated);
    // Accepted throughput saturates below offered.
    EXPECT_LT(points[0].accepted, 0.6);
}

TEST(SaturationThroughput, LiesInPlausibleRange)
{
    const SweepResult result =
        runTinyLadder({"uniform"}, linspace(0.1, 0.9, 9), 1500);
    // 4x4 uniform with DOR: saturation well above 0.2 and below 1.0.
    const double sat = result.cell(kTiny, "dor", "uniform").saturation;
    EXPECT_GT(sat, 0.2);
    EXPECT_LT(sat, 1.0);
}

TEST(SaturationThroughput, AdversePatternSaturatesEarlier)
{
    const SweepResult result = runTinyLadder(
        {"uniform", "transpose"}, linspace(0.1, 0.9, 9), 1500);
    EXPECT_LT(result.cell(kTiny, "dor", "transpose").saturation,
              result.cell(kTiny, "dor", "uniform").saturation);
}

TEST(BenchResultsJson, CarriesSchemaAndSections)
{
    SweepSpec spec = tinySpec();
    spec.routings = {"dor"};
    spec.rates = {0.05};
    spec.seeds = 1;
    ExecContext ctx(1);
    const SweepResult result = SweepRunner(ctx).run(spec);
    const std::string doc = benchResultsJson(spec, result);
    EXPECT_NE(doc.find("\"schema\": \"footprint.bench/1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"timing\""), std::string::npos);
    EXPECT_NE(doc.find("\"results\""), std::string::npos);
    EXPECT_NE(doc.find("\"saturation\""), std::string::npos);
    EXPECT_NE(doc.find("\"config_hash\""), std::string::npos);
    EXPECT_NE(doc.find("\"latency_factor\": 3}"), std::string::npos);
    // Timing is confined to its own object, absent in canonical form.
    const std::string canonical =
        benchResultsJson(spec, result, /*include_timing=*/false);
    EXPECT_EQ(canonical.find("\"timing\""), std::string::npos);
    EXPECT_EQ(canonical.find("wall_seconds"), std::string::npos);
}

TEST(SweepHelpers, ParseMeshSizeAndRates)
{
    EXPECT_EQ(parseMeshSize("8x8").width, 8);
    EXPECT_EQ(parseMeshSize("16x4").height, 4);
    EXPECT_EQ(parseMeshSize("8").width, 8);
    EXPECT_EQ(parseMeshSize("8").height, 8);

    const auto listed = parseRateSpec("0.05, 0.1,0.2");
    ASSERT_EQ(listed.size(), 3u);
    EXPECT_DOUBLE_EQ(listed[1], 0.1);

    const auto spaced = parseRateSpec("0.1:0.5:5");
    ASSERT_EQ(spaced.size(), 5u);
    EXPECT_DOUBLE_EQ(spaced.front(), 0.1);
    EXPECT_DOUBLE_EQ(spaced.back(), 0.5);

    const auto parts = splitList("a, b ,c");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "b");
}

TEST(Linspace, EndpointsAndSpacing)
{
    const auto v = linspace(0.1, 0.5, 5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v.front(), 0.1);
    EXPECT_DOUBLE_EQ(v.back(), 0.5);
    EXPECT_NEAR(v[1] - v[0], 0.1, 1e-12);
    EXPECT_NEAR(v[3] - v[2], 0.1, 1e-12);
}

TEST(FormatCurve, ContainsLabelAndNumbers)
{
    std::vector<CurvePoint> pts{{0.1, 0.1, 12.0, false},
                                {0.5, 0.4, 900.0, true}};
    const std::string s = formatCurve("dor/uniform", pts);
    EXPECT_NE(s.find("dor/uniform"), std::string::npos);
    EXPECT_NE(s.find("offered=0.100"), std::string::npos);
    EXPECT_NE(s.find("[saturated]"), std::string::npos);
}

TEST(DeriveStreamSeed, DeterministicAndWellSeparated)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const std::uint64_t s = deriveStreamSeed(42, i);
        EXPECT_EQ(s, deriveStreamSeed(42, i));
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 1000u);
    // Different bases give different streams.
    EXPECT_NE(deriveStreamSeed(1, 0), deriveStreamSeed(2, 0));
}

} // namespace
} // namespace footprint
