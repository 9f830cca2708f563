/**
 * @file
 * Tests for the Chrome trace-event exporter: JSON shape of the
 * streaming writer, end-to-end timeline production through a
 * config-driven runExperiment run, and the flight recorder's window
 * aggregates as counter tracks.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "network/traffic_manager.hpp"
#include "obs/run_metadata.hpp"
#include "obs/trace_event.hpp"
#include "sim/config.hpp"

namespace footprint {
namespace {

std::size_t
countOccurrences(const std::string& hay, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle);
         pos != std::string::npos; pos = hay.find(needle, pos + 1))
        ++n;
    return n;
}

TEST(ChromeTraceWriter, EmptyTraceIsAValidDocument)
{
    std::ostringstream os;
    {
        ChromeTraceWriter w(os, RunMetadata());
    }
    const std::string doc = os.str();
    EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ms\","
                        "\"traceEvents\":[", 0), 0u);
    EXPECT_NE(doc.find("],\"metadata\":{"), std::string::npos);
}

TEST(ChromeTraceWriter, EmitsAllEventKinds)
{
    std::ostringstream os;
    ChromeTraceWriter w(os, RunMetadata());
    w.processName(1, "packets");
    w.threadName(1, 7, "pkt 7");
    w.completeEvent("pkt", 1, 7, 100, 25, "\"hops\":3");
    w.instantEvent("phase: measure", 300);
    w.counterEvent("net.vc_occ", 2, 300, 12.5);
    w.close();
    EXPECT_EQ(w.eventsWritten(), 5u);

    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"name\":\"process_name\",\"ph\":\"M\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"thread_name\",\"ph\":\"M\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ts\":100"), std::string::npos);
    EXPECT_NE(doc.find("\"dur\":25"), std::string::npos);
    EXPECT_NE(doc.find("\"args\":{\"hops\":3}"), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
    // No trailing comma before the closing bracket.
    EXPECT_EQ(doc.find(",\n]"), std::string::npos);
}

TEST(ChromeTraceWriter, CloseIsIdempotentAndAppendsMetadata)
{
    std::ostringstream os;
    RunMetadata meta;
    meta.seed = 99;
    meta.configHash = "cafe";
    meta.gitDescribe = "test";
    ChromeTraceWriter w(os, meta);
    w.instantEvent("x", 1);
    w.close();
    w.close();
    const std::string doc = os.str();
    EXPECT_EQ(countOccurrences(doc, "\"metadata\":"), 1u);
    EXPECT_NE(doc.find("\"seed\":99"), std::string::npos);
    EXPECT_NE(doc.find("\"config_hash\":\"cafe\""), std::string::npos);
}

TEST(ChromeTraceIntegration, ConfigDrivenRunWritesTimeline)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() / "fp_test_trace.json";
    fs::remove(path);

    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setDouble("injection_rate", 0.1);
    cfg.setInt("warmup_cycles", 100);
    cfg.setInt("measure_cycles", 300);
    cfg.setInt("drain_cycles", 2000);
    cfg.setBool("chrome_trace", true);
    cfg.set("chrome_trace_out", path.string());

    const RunStats stats = runExperiment(cfg);
    EXPECT_TRUE(stats.drained);
    ASSERT_TRUE(fs::exists(path));

    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();

    EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
    // Packet lifecycles: whole-packet slices + per-hop slices on the
    // "packets" process, plus the driver's phase markers.
    EXPECT_NE(doc.find("\"name\":\"process_name\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"pkt\""), std::string::npos);
    EXPECT_GT(countOccurrences(doc, "\"ph\":\"X\""), 10u);
    EXPECT_NE(doc.find("\"name\":\"phase: measure\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"phase: drain\""),
              std::string::npos);
    // Run metadata lands in the document footer.
    EXPECT_NE(doc.find("\"metadata\":{\"seed\":"), std::string::npos);
    // No recorder ran, so there are no counter tracks.
    EXPECT_EQ(doc.find("\"ph\":\"C\""), std::string::npos);
    fs::remove(path);
}

TEST(ChromeTraceIntegration, TimeseriesWindowsBecomeCounterTracks)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() / "fp_test_trace_counters.json";
    fs::remove(path);

    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setDouble("injection_rate", 0.1);
    cfg.setInt("warmup_cycles", 100);
    cfg.setInt("measure_cycles", 300);
    cfg.setInt("drain_cycles", 2000);
    cfg.setBool("chrome_trace", true);
    cfg.set("chrome_trace_out", path.string());
    cfg.setBool("timeseries", true);
    cfg.set("timeseries_out", "");
    cfg.setInt("timeseries_interval", 100);

    const RunStats stats = runExperiment(cfg);
    ASSERT_FALSE(stats.windows.empty());
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();

    // One sample per window on each aggregate track, stamped at the
    // window's end cycle, on the "network" process.
    for (const char* track :
         {"in_flight", "vc_occ", "fp_occ", "inj_backlog", "link_util"}) {
        EXPECT_EQ(countOccurrences(doc, std::string("\"name\":\"")
                                            + track + "\",\"ph\":\"C\""),
                  stats.windows.size())
            << track;
    }
    EXPECT_NE(doc.find("\"ts\":"
                       + std::to_string(stats.windows[0].endCycle)),
              std::string::npos);
    EXPECT_NE(doc.find("{\"name\":\"network\"}"), std::string::npos);
    fs::remove(path);
}

} // namespace
} // namespace footprint
