/**
 * @file
 * Unit tests for the flight recorder's spatial heatmap grids: config
 * reading and clamping, grid windows on the recorder's own windows,
 * grid geometry, link-utilization delta math on a tiny mesh with a
 * known traffic pattern, and the footprint.heatmap/1 document shape.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "heatmap_doc.hpp"
#include "network/network.hpp"
#include "obs/run_metadata.hpp"
#include "obs/timeseries.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"

namespace footprint {
namespace {

TEST(HeatmapConfig, FromSimReadsDefaults)
{
    const TimeseriesConfig tc = TimeseriesConfig::fromSim(defaultConfig());
    EXPECT_FALSE(tc.heatmap);
    EXPECT_FALSE(tc.runs());
    EXPECT_EQ(tc.heatmapOut, "heatmap.json");
    EXPECT_EQ(tc.interval, 1000);
    EXPECT_EQ(tc.heatmapSampleInterval, 8);
}

TEST(HeatmapConfig, FromSimClampsDegenerateValues)
{
    // A sample interval longer than the window degrades to one
    // sample per window. Intervals below 1 are fatal where fromSim
    // reads them (RunInput.OutOfRangeRunValuesAreFatal). The heatmap
    // alone runs the recorder but asks for no verdict.
    SimConfig cfg = defaultConfig();
    cfg.setBool("heatmap", true);
    cfg.setInt("timeseries_interval", 10);
    cfg.setInt("heatmap_sample_interval", 50);
    const TimeseriesConfig tc = TimeseriesConfig::fromSim(cfg);
    EXPECT_TRUE(tc.heatmap);
    EXPECT_TRUE(tc.runs());
    EXPECT_FALSE(tc.active());
    EXPECT_EQ(tc.interval, 10);
    EXPECT_EQ(tc.heatmapSampleInterval, 10);
}

TEST(HeatmapCollector, DisabledCollectorRecordsNothing)
{
    // With the heatmap off the recorder keeps its windows, no grids.
    SimConfig cfg = defaultConfig();
    Network net(cfg);
    TimeseriesConfig tc;
    tc.enabled = true;
    tc.outPath = "";
    tc.interval = 20;
    FlightRecorder rec(net, tc, RunMetadata());
    for (std::int64_t cycle = 0; cycle < 50; ++cycle) {
        net.step(cycle);
        rec.tick(cycle);
    }
    rec.finish(50);
    EXPECT_EQ(rec.windows().size(), 3u);
    EXPECT_TRUE(rec.heatmapWindows().empty());
}

/** Drive the default 8x8 mesh under uniform Bernoulli load. */
void
driveUniform(Network& net, FlightRecorder& rec, std::int64_t cycles,
             double load)
{
    const int nodes = net.mesh().numNodes();
    Rng gen(17);
    std::uint64_t id = 0;
    std::vector<EjectedPacket> done;
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
            }
        }
        net.step(cycle);
        rec.tick(cycle);
        done.clear();
        for (int n = 0; n < nodes; ++n)
            net.endpoint(n).drainEjectedInto(done);
    }
    rec.finish(cycles);
}

TEST(HeatmapCollector, WindowsTileTheRunAndCountSamples)
{
    SimConfig cfg = defaultConfig();
    Network net(cfg);
    const TimeseriesConfig tc =
        heatmapRecorderConfig(100, 3, "fp_heatmap_tiles.json");
    FlightRecorder rec(net, tc, RunMetadata());
    driveUniform(net, rec, 250, 0.05);
    std::remove(tc.heatmapOut.c_str());

    // [0,100), [100,200), and the partial trailing [200,250).
    ASSERT_EQ(rec.heatmapWindows().size(), 3u);
    const auto& w = rec.heatmapWindows();
    EXPECT_EQ(w[0].startCycle, 0);
    EXPECT_EQ(w[0].endCycle, 100);
    EXPECT_EQ(w[1].startCycle, 100);
    EXPECT_EQ(w[1].endCycle, 200);
    EXPECT_EQ(w[2].startCycle, 200);
    EXPECT_EQ(w[2].endCycle, 250);
    // Samples at offsets 0, 3, ..., 99 -> 34 per full window (the
    // last one on the window's closing cycle, taken before the
    // close); the 50-cycle tail samples offsets 0, 3, ..., 48 -> 17.
    EXPECT_EQ(w[0].samples, 34);
    EXPECT_EQ(w[1].samples, 34);
    EXPECT_EQ(w[2].samples, 17);

    const auto nodes =
        static_cast<std::size_t>(net.mesh().numNodes());
    for (const HeatmapWindow& win : w) {
        for (const auto& dir : win.linkUtil)
            EXPECT_EQ(dir.size(), nodes);
        EXPECT_EQ(win.injectUtil.size(), nodes);
        EXPECT_EQ(win.ejectUtil.size(), nodes);
        EXPECT_EQ(win.vcOcc.size(), nodes);
        EXPECT_EQ(win.fpOcc.size(), nodes);
        EXPECT_EQ(win.escOcc.size(), nodes);
        EXPECT_EQ(win.injBacklog.size(), nodes);
    }

    // Traffic flowed, so the gauges and link counters saw it.
    const auto sum = [](const std::vector<double>& g) {
        return std::accumulate(g.begin(), g.end(), 0.0);
    };
    EXPECT_GT(sum(w[0].injectUtil), 0.0);
    EXPECT_GT(sum(w[0].ejectUtil), 0.0);
    EXPECT_GT(sum(w[0].linkUtil[0]) + sum(w[0].linkUtil[1])
                  + sum(w[0].linkUtil[2]) + sum(w[0].linkUtil[3]),
              0.0);
    EXPECT_GT(sum(w[0].vcOcc) + sum(w[1].vcOcc), 0.0);
    EXPECT_GT(sum(w[0].fpOcc) + sum(w[1].fpOcc), 0.0);
}

TEST(HeatmapCollector, EastboundPacketLandsOnEastLinkGrid)
{
    // 2x2 mesh, one 2-flit packet from node 0 to its east neighbor
    // (node 1): the only router-to-router traffic is node 0's east
    // link, and the deltas are exact flit counts.
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 2);
    cfg.setInt("mesh_height", 2);
    cfg.set("routing", "dor");
    Network net(cfg);
    const TimeseriesConfig tc =
        heatmapRecorderConfig(60, 1, "fp_heatmap_east.json");
    FlightRecorder rec(net, tc, RunMetadata());

    Packet p;
    p.id = 1;
    p.src = 0;
    p.dest = 1;
    p.size = 2;
    p.createTime = 0;
    net.endpoint(0).enqueue(p);
    std::vector<EjectedPacket> drained;
    for (std::int64_t cycle = 0; cycle < 60; ++cycle) {
        net.step(cycle);
        rec.tick(cycle);
        net.endpoint(1).drainEjectedInto(drained);
    }
    rec.finish(60);
    std::remove(tc.heatmapOut.c_str());
    ASSERT_EQ(drained.size(), 1u);

    ASSERT_EQ(rec.heatmapWindows().size(), 1u);
    const HeatmapWindow& w = rec.heatmapWindows()[0];
    const double cycles = 60.0;
    // All flits enter at node 0, cross its east link, leave at node 1.
    EXPECT_DOUBLE_EQ(w.injectUtil[0] * cycles, 2.0);
    EXPECT_DOUBLE_EQ(w.linkUtil[0][0] * cycles, 2.0);  // east @ node 0
    EXPECT_DOUBLE_EQ(w.ejectUtil[1] * cycles, 2.0);
    // Nothing else moved.
    EXPECT_DOUBLE_EQ(w.injectUtil[1] + w.injectUtil[2]
                         + w.injectUtil[3],
                     0.0);
    EXPECT_DOUBLE_EQ(w.ejectUtil[0] + w.ejectUtil[2] + w.ejectUtil[3],
                     0.0);
    for (int d = 0; d < 4; ++d) {
        for (int n = 0; n < 4; ++n) {
            if (d == 0 && n == 0)
                continue;
            EXPECT_DOUBLE_EQ(w.linkUtil[d][n], 0.0)
                << "dir " << d << " node " << n;
        }
    }
}

TEST(HeatmapCollector, JsonDocumentHasSchemaAndTiledWindows)
{
    SimConfig cfg = defaultConfig();
    Network net(cfg);
    const TimeseriesConfig tc =
        heatmapRecorderConfig(50, 5, "fp_heatmap_doc.json");
    FlightRecorder rec(net, tc, RunMetadata());
    driveUniform(net, rec, 100, 0.05);

    // finish wrote the document to heatmapOut.
    const std::string doc = rec.heatmapJson();
    std::ifstream in(tc.heatmapOut);
    std::stringstream written;
    written << in.rdbuf();
    std::remove(tc.heatmapOut.c_str());
    EXPECT_EQ(written.str(), doc);
    EXPECT_EQ(doc.find("{\"schema\":\"footprint.heatmap/1\""), 0u);
    EXPECT_NE(doc.find("\"mesh\":{\"width\":8,\"height\":8}"),
              std::string::npos);
    EXPECT_NE(doc.find("\"window\":50"), std::string::npos);
    EXPECT_NE(doc.find("\"sample_interval\":5"), std::string::npos);
    for (const char* metric :
         {"link_util", "inject_util", "eject_util", "vc_occ",
          "fp_occ", "esc_occ", "inj_backlog"})
        EXPECT_NE(doc.find(metric), std::string::npos) << metric;
    for (const char* dir : {"east", "west", "north", "south"})
        EXPECT_NE(doc.find(std::string("\"") + dir + "\":["),
                  std::string::npos)
            << dir;
    EXPECT_NE(doc.find("\"start\":0,\"end\":50"), std::string::npos);
    EXPECT_NE(doc.find("\"start\":50,\"end\":100"),
              std::string::npos);
    EXPECT_NE(doc.find("\"meta\":{\"seed\":"), std::string::npos);
}

} // namespace
} // namespace footprint
