/**
 * @file
 * Unit tests for the metrics library: two-level adaptiveness,
 * congestion-tree extraction, and the cost model.
 */

#include <gtest/gtest.h>

#include "metrics/adaptiveness.hpp"
#include "metrics/congestion_tree.hpp"
#include "metrics/cost_model.hpp"
#include "network/network.hpp"
#include "sim/config.hpp"

namespace footprint {
namespace {

TEST(Adaptiveness, DorAllowsExactlyOnePath)
{
    const Mesh mesh(8, 8);
    // 0 -> 63 has 3432 minimal paths; DOR allows one.
    EXPECT_NEAR(pathAdaptiveness(mesh, "dor", 0, 63), 1.0 / 3432.0,
                1e-12);
    // Along a row there is only one minimal path anyway.
    EXPECT_DOUBLE_EQ(pathAdaptiveness(mesh, "dor", 0, 7), 1.0);
}

TEST(Adaptiveness, FullyAdaptiveAllowsAllPaths)
{
    const Mesh mesh(8, 8);
    for (const char* algo : {"dbar", "footprint"}) {
        EXPECT_DOUBLE_EQ(pathAdaptiveness(mesh, algo, 0, 63), 1.0);
        EXPECT_DOUBLE_EQ(portAdaptiveness(mesh, algo, 0, 63), 1.0);
        EXPECT_DOUBLE_EQ(pathAdaptiveness(mesh, algo, 5, 40), 1.0);
    }
}

TEST(Adaptiveness, OddEvenIsBetweenDorAndFullyAdaptive)
{
    const Mesh mesh(8, 8);
    const double oe = pathAdaptiveness(mesh, "oddeven", 0, 63);
    EXPECT_GT(oe, pathAdaptiveness(mesh, "dor", 0, 63));
    EXPECT_LT(oe, 1.0);
    const double oe_port = portAdaptiveness(mesh, "oddeven", 0, 63);
    EXPECT_GT(oe_port, portAdaptiveness(mesh, "dor", 0, 63));
    EXPECT_LT(oe_port, 1.0);
}

TEST(Adaptiveness, DorPortAdaptivenessBelowOneOffDiagonal)
{
    const Mesh mesh(8, 8);
    const double p = portAdaptiveness(mesh, "dor", 0, 63);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
}

TEST(Adaptiveness, SameNodeIsFullyAdaptive)
{
    const Mesh mesh(4, 4);
    EXPECT_DOUBLE_EQ(portAdaptiveness(mesh, "dor", 3, 3), 1.0);
    EXPECT_DOUBLE_EQ(pathAdaptiveness(mesh, "dor", 3, 3), 1.0);
}

TEST(Adaptiveness, VcAdaptivenessPerEquation2)
{
    // Only Footprint selects VCs adaptively: (V-1)/V on non-escape
    // channels; every baseline scores 0.
    EXPECT_DOUBLE_EQ(vcAdaptiveness("footprint", 10), 0.9);
    EXPECT_DOUBLE_EQ(vcAdaptiveness("footprint", 2), 0.5);
    EXPECT_DOUBLE_EQ(vcAdaptiveness("dor", 10), 0.0);
    EXPECT_DOUBLE_EQ(vcAdaptiveness("oddeven", 10), 0.0);
    EXPECT_DOUBLE_EQ(vcAdaptiveness("dbar", 10), 0.0);
    EXPECT_DOUBLE_EQ(vcAdaptiveness("dor+xordet", 10), 0.0);
}

TEST(Adaptiveness, ReportOrdersAlgorithmsAsTable1)
{
    const Mesh mesh(4, 4);
    const auto dor = adaptivenessReport(mesh, "dor", 10);
    const auto oe = adaptivenessReport(mesh, "oddeven", 10);
    const auto fp = adaptivenessReport(mesh, "footprint", 10);
    EXPECT_LT(dor.pathAdaptiveness, oe.pathAdaptiveness);
    EXPECT_LT(oe.pathAdaptiveness, fp.pathAdaptiveness);
    EXPECT_DOUBLE_EQ(fp.pathAdaptiveness, 1.0);
    EXPECT_DOUBLE_EQ(fp.portAdaptiveness, 1.0);
    EXPECT_GT(fp.vcAdaptiveness, dor.vcAdaptiveness);
}

TEST(CostModel, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0);
    EXPECT_EQ(ceilLog2(2), 1);
    EXPECT_EQ(ceilLog2(3), 2);
    EXPECT_EQ(ceilLog2(64), 6);
    EXPECT_EQ(ceilLog2(65), 7);
}

TEST(CostModel, PaperConfiguration)
{
    // 8x8 mesh (64 nodes) with 16 VCs: 16 x (6 owner + 1 busy) + 5
    // counter bits = 117 bits/port — the same order as the ~132 bits
    // the paper quotes (~one flit of storage).
    const FootprintCost cost = footprintCost(16, 64);
    EXPECT_EQ(cost.ownerBitsPerVc, 6);
    EXPECT_EQ(cost.idleCounterBits, 5);
    EXPECT_EQ(cost.bitsPerPort(), 117);
    EXPECT_LT(cost.flitEquivalents(128), 1.0);
    EXPECT_GT(cost.flitEquivalents(128), 0.5);
}

TEST(CostModel, ScalesWithNetworkSize)
{
    const FootprintCost small = footprintCost(10, 16);
    const FootprintCost large = footprintCost(10, 256);
    EXPECT_LT(small.bitsPerPort(), large.bitsPerPort());
    EXPECT_EQ(large.ownerBitsPerVc, 8);
}

TEST(CongestionTree, EmptyNetworkHasNoTree)
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", 4);
    Network net(cfg);
    const auto tree = extractCongestionTree(net, 13);
    EXPECT_EQ(tree.numBranches(), 0);
    EXPECT_EQ(tree.totalVcs(), 0);
    EXPECT_DOUBLE_EQ(tree.avgThickness(), 0.0);
}

TEST(CongestionTree, CapturesBufferedTraffic)
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", 4);
    Network net(cfg);
    // Oversubscribe node 13 from two sources.
    std::uint64_t id = 0;
    for (int i = 0; i < 12; ++i) {
        Packet p;
        p.id = ++id;
        p.src = i % 2 == 0 ? 4 : 12;
        p.dest = 13;
        p.size = 4;
        p.createTime = 0;
        net.endpoint(p.src).enqueue(p);
    }
    for (std::int64_t c = 0; c < 25; ++c)
        net.step(c);
    const auto tree = extractCongestionTree(net, 13);
    EXPECT_GT(tree.numBranches(), 0);
    EXPECT_GT(tree.totalVcs(), 0);
    EXPECT_GE(tree.maxThickness(), 1);
    EXPECT_GE(tree.totalVcs(), tree.numBranches());
    const std::string s = tree.toString();
    EXPECT_NE(s.find("dest=13"), std::string::npos);

    // No other destination has a tree.
    EXPECT_EQ(extractCongestionTree(net, 2).totalVcs(), 0);
    EXPECT_EQ(totalCongestionVcs(net, {13, 2}), tree.totalVcs());
}

} // namespace
} // namespace footprint
