/**
 * @file
 * Tests for the parallel sweep engine: deterministic job expansion and
 * seed derivation, thread-count-invariant results and artifacts,
 * per-job artifact-path isolation, and the sweep CLI helpers.
 */

#include <gtest/gtest.h>

#include <set>

#include "exec/exec_context.hpp"
#include "exec/sweep_runner.hpp"
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
    ASSERT_EQ(a.saturation.size(), b.saturation.size());
    for (std::size_t i = 0; i < a.saturation.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.saturation[i].throughput,
                         b.saturation[i].throughput);
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
    ASSERT_EQ(result.saturation.size(), 1u);
    EXPECT_EQ(result.saturation[0].routing, "dor");
    EXPECT_GT(result.saturation[0].throughput, 0.0);
    EXPECT_GT(result.saturation[0].zeroLoadLatency, 0.0);
    EXPECT_GT(result.jobsPerSec, 0.0);
    EXPECT_EQ(result.baseSeed, 7u);
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
