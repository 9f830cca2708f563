/**
 * @file
 * Tests for the topology kinds of Mesh (DESIGN.md §18): port-map
 * consistency, wraparound and dateline legality, terminal mapping
 * under concentration, link-latency plumbing into delivered packets,
 * and torus-DOR deadlock freedom at saturation under the auditor.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "network/network.hpp"
#include "network/traffic_manager.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "topo/mesh.hpp"

namespace footprint {
namespace {

std::vector<Mesh>
allTopologies()
{
    std::vector<Mesh> topos;
    topos.push_back(Mesh(5, 3));
    topos.push_back(Mesh::torus(4, 4));
    topos.push_back(Mesh::cmesh(4, 4, 4));
    topos.push_back(Mesh::ring(6));
    return topos;
}

TEST(Topology, ForwardAndReverseMapsAreInverses)
{
    for (const Mesh& topo : allTopologies()) {
        for (int n = 0; n < topo.numNodes(); ++n) {
            for (int p = 0; p < kNumPorts; ++p) {
                const PortRef f = topo.forward(n, p);
                ASSERT_EQ(f.valid(), topo.reverse(n, p).valid())
                    << topo.kindName() << " node " << n << " port "
                    << p;
                if (!f.valid())
                    continue;
                // What n transmits on p arrives at f; f's reverse map
                // for that input port must point straight back.
                EXPECT_EQ(topo.reverse(f.node, f.port),
                          (PortRef{n, p}))
                    << topo.kindName() << " node " << n << " port "
                    << p;
            }
        }
    }
}

TEST(Topology, NeighborIsSymmetric)
{
    for (const Mesh& topo : allTopologies()) {
        for (int n = 0; n < topo.numNodes(); ++n) {
            for (Dir d :
                 {Dir::East, Dir::West, Dir::North, Dir::South}) {
                if (!topo.hasNeighbor(n, d))
                    continue;
                const int m = topo.neighbor(n, d);
                ASSERT_TRUE(topo.hasNeighbor(m, opposite(d)));
                EXPECT_EQ(topo.neighbor(m, opposite(d)), n)
                    << topo.kindName() << " node " << n;
            }
        }
    }
}

TEST(Topology, LocalPortLoopsBackToSelf)
{
    for (const Mesh& topo : allTopologies()) {
        for (int n = 0; n < topo.numNodes(); ++n) {
            const PortRef f = topo.forward(n, portOf(Dir::Local));
            EXPECT_EQ(f, (PortRef{n, portOf(Dir::Local)}));
            EXPECT_FALSE(topo.hasNeighbor(n, Dir::Local));
        }
    }
}

TEST(Topology, MeshTopologyMatchesMeshConnectivity)
{
    // A plain mesh's port maps and minimal-path queries match
    // coordinate arithmetic: a neighbor one step away inside the
    // grid, Manhattan distance, and X-then-Y productive directions.
    const Mesh mesh(5, 3);
    for (int n = 0; n < mesh.numNodes(); ++n) {
        const Coord c = mesh.coordOf(n);
        for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South}) {
            Coord nc = c;
            switch (d) {
              case Dir::East: ++nc.x; break;
              case Dir::West: --nc.x; break;
              case Dir::North: ++nc.y; break;
              case Dir::South: --nc.y; break;
              case Dir::Local: break;
            }
            const bool inside = nc.x >= 0 && nc.x < 5 && nc.y >= 0
                && nc.y < 3;
            ASSERT_EQ(mesh.hasNeighbor(n, d), inside);
            EXPECT_EQ(mesh.neighbor(n, d), inside ? mesh.nodeId(nc) : -1);
            const PortRef link = inside
                ? PortRef{mesh.nodeId(nc), portOf(opposite(d))}
                : PortRef{};
            EXPECT_EQ(mesh.forward(n, portOf(d)), link);
        }
    }
    Dir buf[2];
    for (int s = 0; s < mesh.numNodes(); ++s) {
        for (int d = 0; d < mesh.numNodes(); ++d) {
            const Coord cs = mesh.coordOf(s);
            const Coord cd = mesh.coordOf(d);
            EXPECT_EQ(mesh.hopDistance(s, d),
                      std::abs(cs.x - cd.x) + std::abs(cs.y - cd.y));
            std::vector<Dir> expect;
            if (cd.x != cs.x)
                expect.push_back(cd.x > cs.x ? Dir::East : Dir::West);
            if (cd.y != cs.y)
                expect.push_back(cd.y > cs.y ? Dir::North : Dir::South);
            const int n = mesh.minimalDirsInto(s, d, buf);
            EXPECT_EQ(std::vector<Dir>(buf, buf + n), expect);
        }
    }
}

TEST(Topology, TorusWrapsBothDimensions)
{
    const Mesh topo = Mesh::torus(4, 4);
    for (int n = 0; n < topo.numNodes(); ++n) {
        // Every torus router has all four neighbors.
        for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South})
            EXPECT_TRUE(topo.hasNeighbor(n, d));
    }
    // Edge nodes wrap to the far side.
    EXPECT_EQ(topo.neighbor(topo.nodeId(Coord{3, 0}), Dir::East),
              topo.nodeId(Coord{0, 0}));
    EXPECT_EQ(topo.neighbor(topo.nodeId(Coord{0, 2}), Dir::West),
              topo.nodeId(Coord{3, 2}));
    EXPECT_EQ(topo.neighbor(topo.nodeId(Coord{1, 3}), Dir::North),
              topo.nodeId(Coord{1, 0}));
    EXPECT_EQ(topo.neighbor(topo.nodeId(Coord{2, 0}), Dir::South),
              topo.nodeId(Coord{2, 3}));
}

TEST(Topology, DatelineCrossesOnlyOnWrapLinks)
{
    const Mesh torus = Mesh::torus(4, 4);
    for (int n = 0; n < torus.numNodes(); ++n) {
        const Coord c = torus.coordOf(n);
        EXPECT_EQ(torus.datelineCrossing(n, Dir::East), c.x == 3);
        EXPECT_EQ(torus.datelineCrossing(n, Dir::West), c.x == 0);
        EXPECT_EQ(torus.datelineCrossing(n, Dir::North), c.y == 3);
        EXPECT_EQ(torus.datelineCrossing(n, Dir::South), c.y == 0);
    }
    // Unwrapped topologies never cross a dateline.
    const Mesh mesh(4, 4);
    for (int n = 0; n < mesh.numNodes(); ++n) {
        for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South})
            EXPECT_FALSE(mesh.datelineCrossing(n, d));
    }
}

TEST(Topology, WrapAwareHopDistanceTakesShortWayAround)
{
    const Mesh torus = Mesh::torus(8, 8);
    EXPECT_EQ(torus.hopDistance(0, 7), 1);   // wrap West
    EXPECT_EQ(torus.hopDistance(0, 4), 4);   // exact tie
    EXPECT_EQ(torus.hopDistance(0, 63), 2);  // wrap both dims
    const Mesh ring = Mesh::ring(8);
    EXPECT_EQ(ring.hopDistance(0, 7), 1);
    EXPECT_EQ(ring.hopDistance(0, 3), 3);
}

TEST(Topology, MinimalDirsWrapAndBreakTiesEast)
{
    const Mesh torus = Mesh::torus(8, 8);
    Dir buf[2];
    // 0 -> 7: one hop West around the wrap.
    ASSERT_EQ(torus.minimalDirsInto(0, 7, buf), 1);
    EXPECT_EQ(buf[0], Dir::West);
    // 0 -> 4: exact tie in x breaks East.
    ASSERT_EQ(torus.minimalDirsInto(0, 4, buf), 1);
    EXPECT_EQ(buf[0], Dir::East);
    // Every minimal dir must reduce the wrap-aware distance.
    for (int s = 0; s < torus.numNodes(); s += 3) {
        for (int d = 0; d < torus.numNodes(); ++d) {
            const int n = torus.minimalDirsInto(s, d, buf);
            for (int i = 0; i < n; ++i) {
                const int next = torus.neighbor(s, buf[i]);
                EXPECT_EQ(torus.hopDistance(next, d),
                          torus.hopDistance(s, d) - 1);
            }
        }
    }
}

TEST(Topology, TorusDorWalksAreMinimalAndTerminate)
{
    const Mesh torus = Mesh::torus(5, 5);
    for (int s = 0; s < torus.numNodes(); ++s) {
        for (int d = 0; d < torus.numNodes(); ++d) {
            int cur = s;
            int hops = 0;
            while (true) {
                const Dir dir = dorDir(torus, cur, d);
                if (dir == Dir::Local)
                    break;
                cur = torus.neighbor(cur, dir);
                ASSERT_LE(++hops, torus.hopDistance(s, d))
                    << "DOR detour from " << s << " to " << d;
            }
            EXPECT_EQ(cur, d);
            EXPECT_EQ(hops, torus.hopDistance(s, d));
        }
    }
}

TEST(Topology, CmeshTerminalMapping)
{
    const Mesh topo = Mesh::cmesh(4, 4, 4);
    EXPECT_EQ(topo.concentration(), 4);
    EXPECT_EQ(topo.numNodes(), 16);
    EXPECT_EQ(topo.numTerminals(), 64);
    EXPECT_EQ(topo.terminalRouter(13), 3);
    EXPECT_EQ(topo.terminalIndex(13), 1);
    EXPECT_EQ(topo.terminalOf(3, 1), 13);
    for (int t = 0; t < topo.numTerminals(); ++t) {
        EXPECT_EQ(topo.terminalOf(topo.terminalRouter(t),
                                  topo.terminalIndex(t)),
                  t);
    }
}

TEST(Topology, FromConfigBuildsEachKind)
{
    SimConfig cfg = defaultConfig();
    EXPECT_EQ(Mesh::fromConfig(cfg).kind(), TopologyKind::Mesh);
    cfg.set("topology", "torus");
    EXPECT_EQ(Mesh::fromConfig(cfg).kind(), TopologyKind::Torus);
    cfg.set("topology", "cmesh");
    cfg.setInt("concentration", 2);
    EXPECT_EQ(Mesh::fromConfig(cfg).kind(), TopologyKind::CMesh);
    cfg = defaultConfig();
    cfg.set("topology", "ring");
    cfg.setInt("mesh_width", 8);
    cfg.setInt("mesh_height", 1);
    EXPECT_EQ(Mesh::fromConfig(cfg).kind(), TopologyKind::Ring);
}

TEST(TopologyDeath, InvalidShapesAreFatal)
{
    EXPECT_EXIT(Mesh::torus(2, 4), testing::ExitedWithCode(1),
                "torus needs width >= 3 and height >= 3");
    EXPECT_EXIT(Mesh::ring(2), testing::ExitedWithCode(1),
                "ring needs >= 3 nodes");
    SimConfig cfg = defaultConfig();
    cfg.set("topology", "hypercube");
    EXPECT_EXIT(Mesh::fromConfig(cfg), testing::ExitedWithCode(1),
                "unknown topology");
    cfg = defaultConfig();
    cfg.setInt("concentration", 4);
    EXPECT_EXIT(Mesh::fromConfig(cfg), testing::ExitedWithCode(1),
                "requires topology=cmesh");
    cfg = defaultConfig();
    cfg.set("topology", "ring");  // keeps mesh_height = 8
    EXPECT_EXIT(Mesh::fromConfig(cfg), testing::ExitedWithCode(1),
                "ring requires mesh_height=1");
}

TEST(TopologyDeath, UnsupportedRoutingPairsAreFatal)
{
    // Adaptive algorithms have no dateline discipline: wrapped
    // topologies must reject them at construction.
    SimConfig cfg = defaultConfig();
    cfg.set("topology", "torus");
    cfg.set("routing", "footprint");
    EXPECT_EXIT(Network net(cfg), testing::ExitedWithCode(1),
                "supports routing=dor only");
    cfg.set("routing", "dor+xordet");
    EXPECT_EXIT(Network net(cfg), testing::ExitedWithCode(1),
                "supports routing=dor only");
    cfg.set("routing", "dor");
    cfg.setInt("num_vcs", 1);
    EXPECT_EXIT(Network net(cfg), testing::ExitedWithCode(1),
                "num_vcs >= 2");
}

/**
 * Deliver one single-flit packet three x-hops away and return its
 * latency. Only link_latency_x varies, so the latency delta between
 * two calls isolates exactly the router-to-router x links crossed.
 */
std::int64_t
deliveryLatency(const std::string& topology, int latency_x, int dest)
{
    SimConfig cfg = defaultConfig();
    cfg.set("topology", topology);
    cfg.setInt("mesh_width", topology == "ring" ? 8 : 4);
    cfg.setInt("mesh_height", topology == "ring" ? 1 : 4);
    cfg.set("routing", "dor");
    if (topology == "cmesh")
        cfg.setInt("concentration", 2);
    cfg.setInt("link_latency_x", latency_x);
    Network net(cfg);

    Packet p;
    p.id = 1;
    p.src = 0;
    p.dest = dest;
    p.size = 1;
    p.createTime = 0;
    p.measured = true;
    net.endpoint(0).enqueue(p);
    std::vector<EjectedPacket> done;
    for (std::int64_t cycle = 0; cycle < 300; ++cycle) {
        net.step(cycle);
        net.endpoint(dest).drainEjectedInto(done);
        if (!done.empty())
            return done[0].latency();
    }
    ADD_FAILURE() << topology << ": packet not delivered";
    return -1;
}

TEST(Topology, LinkLatencyReachesDeliveredPackets)
{
    for (const char* topology : {"mesh", "cmesh"}) {
        // 0 -> 3 crosses three x links; each extra cycle of x-link
        // latency costs exactly three cycles end to end.
        const std::int64_t base = deliveryLatency(topology, 1, 3);
        const std::int64_t slow = deliveryLatency(topology, 4, 3);
        EXPECT_EQ(slow - base, 3 * 3) << topology;
    }
    // With wraparound, DOR crosses exactly one x link to the last
    // node in the row: 0 -> 3 on the 4-wide torus, 0 -> 7 on the
    // 8-node ring, one West wrap hop each.
    {
        const std::int64_t base = deliveryLatency("torus", 1, 3);
        const std::int64_t slow = deliveryLatency("torus", 4, 3);
        EXPECT_EQ(slow - base, 1 * 3) << "torus";
    }
    {
        const std::int64_t base = deliveryLatency("ring", 1, 7);
        const std::int64_t slow = deliveryLatency("ring", 4, 7);
        EXPECT_EQ(slow - base, 1 * 3) << "ring";
    }
}

TEST(Topology, TorusDorStaysDeadlockFreeAtSaturation)
{
    // Drive an 8x8 torus far past its uniform-DOR saturation load
    // with the invariant auditor and watchdog on: the dateline VC
    // discipline must keep the wrap rings deadlock-free (a deadlock
    // shows up as watchdog events / nonzero violations).
    SimConfig cfg = defaultConfig();
    cfg.set("topology", "torus");
    cfg.setInt("mesh_width", 8);
    cfg.setInt("mesh_height", 8);
    cfg.set("routing", "dor");
    cfg.set("traffic", "uniform");
    cfg.setDouble("injection_rate", 0.8);
    cfg.setInt("warmup_cycles", 200);
    cfg.setInt("measure_cycles", 400);
    cfg.setInt("drain_cycles", 400);
    cfg.setBool("audit", true);
    cfg.setInt("audit_interval", 100);
    const RunStats stats = runExperiment(cfg);
    EXPECT_EQ(stats.auditViolations, 0u);
    EXPECT_EQ(stats.watchdogEvents, 0u);
    // Past saturation the run must still make forward progress.
    EXPECT_GT(stats.measuredEjected, 0u);
}

TEST(Topology, RingAndCmeshCompleteUniformRuns)
{
    for (const char* topology : {"ring", "cmesh"}) {
        SimConfig cfg = defaultConfig();
        cfg.set("topology", topology);
        if (std::string(topology) == "ring") {
            cfg.setInt("mesh_width", 8);
            cfg.setInt("mesh_height", 1);
            cfg.set("routing", "dor");
        } else {
            cfg.setInt("mesh_width", 4);
            cfg.setInt("mesh_height", 4);
            cfg.setInt("concentration", 4);
            cfg.set("routing", "footprint");
        }
        cfg.set("traffic", "uniform");
        cfg.setDouble("injection_rate", 0.05);
        cfg.setInt("warmup_cycles", 100);
        cfg.setInt("measure_cycles", 300);
        cfg.setInt("drain_cycles", 2000);
        cfg.setBool("audit", true);
        const RunStats stats = runExperiment(cfg);
        EXPECT_TRUE(stats.drained) << topology;
        EXPECT_EQ(stats.auditViolations, 0u) << topology;
        EXPECT_GT(stats.measuredEjected, 0u) << topology;
    }
}

} // namespace
} // namespace footprint
