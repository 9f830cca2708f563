/**
 * @file
 * Tests for the shared JSON formatting helpers, the packet lifecycle
 * tracer's JSONL records, and the end-to-end runExperiment
 * integration: the config-driven packet trace and the flight
 * recorder's in-memory windows.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "network/traffic_manager.hpp"
#include "obs/packet_tracer.hpp"
#include "obs/run_metadata.hpp"
#include "obs/sink.hpp"
#include "router/packet_pool.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"

namespace footprint {
namespace {

// ---------------------------------------------------------------- sinks

TEST(Sink, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("x\x01y")), "x\\u0001y");
}

TEST(Sink, FormatTelemetryValue)
{
    EXPECT_EQ(formatTelemetryValue(0.0), "0");
    EXPECT_EQ(formatTelemetryValue(42.0), "42");
    EXPECT_EQ(formatTelemetryValue(-3.0), "-3");
    EXPECT_EQ(formatTelemetryValue(0.5), "0.5");
    EXPECT_EQ(formatTelemetryValue(0.123456789), "0.123457");
}

// --------------------------------------------------------------- tracer

/**
 * Single-flit packet with its constants in a pooled descriptor, the
 * way the tracer sees flits from a real network.
 */
Flit
testFlit(PacketPool& pool, std::uint64_t id)
{
    Packet p;
    p.id = id;
    p.src = 1;
    p.dest = 6;
    p.size = 1;
    p.createTime = 4;
    const std::uint32_t d = pool.alloc(p);
    pool.get(d).injectTime = 5;
    return makeFlit(p, 0, d);
}

/** The header line a tracer writes before any packet record. */
const std::string kTraceHeader =
    "{\"schema\":\"footprint.packet_trace/1\",\"meta\":"
    + RunMetadata().toJson() + "}\n";

TEST(RunMetadata, ExecutionKnobsLeaveTheConfigHashAlone)
{
    // The hash names the experiment: how the program runs it (console,
    // worker count, bench output path) must not change it, and any
    // experiment key must.
    const SimConfig base = defaultConfig();
    const std::string hash = RunMetadata::fromConfig(base).configHash;
    SimConfig knobs = base;
    for (const char* kv : {"console=true", "console_interval_ms=5",
                           "jobs=3", "bench_out=x.json"})
        ASSERT_TRUE(knobs.parseAssignment(kv));
    EXPECT_EQ(RunMetadata::fromConfig(knobs).configHash, hash);
    for (const char* kv : {"seed=2", "injection_rate=0.2"}) {
        SimConfig changed = base;
        ASSERT_TRUE(changed.parseAssignment(kv));
        EXPECT_NE(RunMetadata::fromConfig(changed).configHash, hash)
            << kv;
    }
}

TEST(PacketTracer, TracedFilterIsIdPrefix)
{
    std::ostringstream out;
    PacketTracer tracer(out, 10, RunMetadata());
    EXPECT_EQ(out.str(), kTraceHeader);
    EXPECT_FALSE(tracer.traced(0));
    EXPECT_TRUE(tracer.traced(1));
    EXPECT_TRUE(tracer.traced(10));
    EXPECT_FALSE(tracer.traced(11));
}

TEST(PacketTracer, CompletedPacketGoldenRecord)
{
    std::ostringstream out;
    PacketPool pool;
    PacketTracer tracer(out, 10, RunMetadata());
    tracer.setPool(&pool);
    const Flit f = testFlit(pool, 3);
    // Two hops: one with a 2-cycle VA stall and a 1-cycle SA stall,
    // one that clears the minimum pipeline in a single cycle.
    tracer.onHopArrive(f, 1, 5);
    tracer.onVaGrant(f, 1, 7);
    tracer.onSwitchTraverse(f, 1, 8);
    tracer.onHopArrive(f, 2, 9);
    tracer.onVaGrant(f, 2, 9);
    tracer.onSwitchTraverse(f, 2, 9);
    tracer.onEject(f, 6, 12);
    EXPECT_EQ(tracer.packetsCompleted(), 1u);
    EXPECT_EQ(tracer.packetsInFlight(), 0u);
    EXPECT_EQ(out.str(),
              kTraceHeader
                  + "{\"packet\":3,\"src\":1,\"dest\":6,\"size\":1,"
                    "\"class\":\"bg\",\"create\":4,\"inject\":5,"
                    "\"eject\":12,\"latency\":8,\"hops\":["
                    "{\"node\":1,\"arrive\":5,\"va\":7,\"st\":8,"
                    "\"va_stall\":2,\"sa_stall\":1},"
                    "{\"node\":2,\"arrive\":9,\"va\":9,\"st\":9,"
                    "\"va_stall\":0,\"sa_stall\":0}]}\n");
}

TEST(PacketTracer, FlushEmitsIncompletePacketsInIdOrder)
{
    std::ostringstream out;
    PacketPool pool;
    PacketTracer tracer(out, 10, RunMetadata());
    tracer.setPool(&pool);
    tracer.onHopArrive(testFlit(pool, 7), 1, 5);
    tracer.onHopArrive(testFlit(pool, 2), 1, 6);
    tracer.flush();
    EXPECT_EQ(tracer.packetsInFlight(), 0u);
    const std::string text = out.str();
    // id order, regardless of event order.
    EXPECT_LT(text.find("\"packet\":2"), text.find("\"packet\":7"));
    EXPECT_NE(text.find("\"eject\":-1"), std::string::npos);
    EXPECT_NE(text.find("\"complete\":false"), std::string::npos);
}

TEST(PacketTracer, UntracedEjectIsIgnored)
{
    std::ostringstream out;
    PacketPool pool;
    PacketTracer tracer(out, 10, RunMetadata());
    tracer.setPool(&pool);
    tracer.onEject(testFlit(pool, 3), 6, 12);
    EXPECT_EQ(tracer.packetsCompleted(), 0u);
    EXPECT_EQ(out.str(), kTraceHeader);
}

// ----------------------------------------------- runExperiment wiring

TEST(TelemetryIntegration, ConfigDrivenTrace)
{
    namespace fs = std::filesystem;
    const fs::path trace =
        fs::temp_directory_path() / "fp_test_trace.jsonl";

    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", 4);
    cfg.setDouble("injection_rate", 0.1);
    cfg.setInt("warmup_cycles", 200);
    cfg.setInt("measure_cycles", 400);
    cfg.setInt("drain_cycles", 2000);
    cfg.set("trace_out", trace.string());
    cfg.setInt("trace_packets", 20);

    setQuiet(true);
    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.drained);

    // A metadata record first, then one packet record per traced
    // packet with per-hop stalls.
    std::ifstream tin(trace);
    ASSERT_TRUE(tin.is_open());
    std::string tmeta;
    ASSERT_TRUE(std::getline(tin, tmeta));
    EXPECT_EQ(tmeta.rfind("{\"schema\":\"footprint.packet_trace/1\"", 0),
              0u);
    EXPECT_NE(tmeta.find("\"meta\":{"), std::string::npos);
    std::size_t lines = 0;
    bool sawStall = false;
    for (std::string line; std::getline(tin, line); ++lines) {
        EXPECT_EQ(line.rfind("{\"packet\":", 0), 0u);
        EXPECT_NE(line.find("\"hops\":["), std::string::npos);
        sawStall = sawStall
            || line.find("\"va_stall\":") != std::string::npos;
    }
    EXPECT_EQ(lines, 20u);
    EXPECT_TRUE(sawStall);
    tin.close();

    fs::remove(trace);
}

TEST(TelemetryIntegration, InMemoryWindowsSeeTraffic)
{
    // An explicitly empty timeseries_out keeps the recorder's windows
    // in RunStats without writing a stream.
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setDouble("injection_rate", 0.1);
    cfg.setInt("warmup_cycles", 200);
    cfg.setInt("measure_cycles", 400);
    cfg.setInt("drain_cycles", 2000);
    cfg.setBool("timeseries", true);
    cfg.set("timeseries_out", "");
    cfg.setInt("timeseries_interval", 50);

    setQuiet(true);
    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.drained);
    EXPECT_TRUE(stats.timeseriesPath.empty());
    ASSERT_GE(stats.windows.size(), 12u);  // 600+ cycles at 50

    // Traffic flowed during measurement, so the network held flits
    // and moved them across links; utilisation is a fraction of
    // link-cycles.
    double fp_occ = 0.0;
    double link_util = 0.0;
    for (const WindowRecord& w : stats.windows) {
        if (w.startCycle < 200 || w.endCycle > 600)
            continue;
        fp_occ += static_cast<double>(w.fpOcc);
        link_util += w.linkUtil;
        EXPECT_LE(w.linkUtil, 1.0);
    }
    EXPECT_GT(fp_occ, 0.0);
    EXPECT_GT(link_util, 0.0);
}

} // namespace
} // namespace footprint
