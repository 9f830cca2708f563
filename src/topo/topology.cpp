#include "topo/topology.hpp"

#include <cstdlib>

#include "sim/config.hpp"
#include "sim/log.hpp"

namespace footprint {

const char*
topologyKindName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Mesh: return "mesh";
      case TopologyKind::Torus: return "torus";
      case TopologyKind::CMesh: return "cmesh";
      case TopologyKind::Ring: return "ring";
    }
    return "?";
}

Topology::Topology(TopologyKind kind, int width, int height,
                   bool wrap_x, bool wrap_y, int concentration)
    : kind_(kind), grid_(width, height), wrapX_(wrap_x),
      wrapY_(wrap_y), concentration_(concentration)
{
    if (concentration_ < 1)
        fatal("concentration must be >= 1");
    buildPortMaps();
}

Topology
Topology::mesh(int width, int height)
{
    return Topology(TopologyKind::Mesh, width, height, false, false, 1);
}

Topology
Topology::torus(int width, int height)
{
    // A wrapped dimension of extent 2 would alias the mesh link and
    // the wrap link between the same node pair (two parallel East
    // links); extent >= 3 keeps every (node, port) pair unique.
    if (width < 3 || height < 3)
        fatal("torus needs width >= 3 and height >= 3");
    return Topology(TopologyKind::Torus, width, height, true, true, 1);
}

Topology
Topology::cmesh(int width, int height, int concentration)
{
    if (concentration < 1)
        fatal("cmesh concentration must be >= 1");
    return Topology(TopologyKind::CMesh, width, height, false, false,
                    concentration);
}

Topology
Topology::ring(int nodes)
{
    if (nodes < 3)
        fatal("ring needs >= 3 nodes");
    return Topology(TopologyKind::Ring, nodes, 1, true, false, 1);
}

Topology
Topology::fromConfig(const SimConfig& cfg)
{
    const std::string name = cfg.getStr("topology");
    const int w = static_cast<int>(cfg.getInt("mesh_width"));
    const int h = static_cast<int>(cfg.getInt("mesh_height"));
    const int c = static_cast<int>(cfg.getInt("concentration"));
    if (c != 1 && name != "cmesh")
        fatal("concentration > 1 requires topology=cmesh");

    Topology topo = [&]() -> Topology {
        if (name == "mesh")
            return mesh(w, h);
        if (name == "torus")
            return torus(w, h);
        if (name == "cmesh")
            return cmesh(w, h, c);
        if (name == "ring") {
            if (h != 1)
                fatal("ring requires mesh_height=1 (got "
                      + std::to_string(h) + ")");
            return ring(w);
        }
        fatal("unknown topology '" + name
              + "' (want mesh, torus, cmesh, or ring)");
    }();

    // Each per-dimension latency defaults to link_latency.
    const int base = static_cast<int>(cfg.getInt("link_latency"));
    const int lx = cfg.contains("link_latency_x")
        ? static_cast<int>(cfg.getInt("link_latency_x"))
        : base;
    const int ly = cfg.contains("link_latency_y")
        ? static_cast<int>(cfg.getInt("link_latency_y"))
        : base;
    const int ll = cfg.contains("link_latency_local")
        ? static_cast<int>(cfg.getInt("link_latency_local"))
        : base;
    topo.setLinkLatencies(lx, ly, ll);
    return topo;
}

void
Topology::setLinkLatencies(int x, int y, int local)
{
    if (x < 1 || y < 1 || local < 1)
        fatal("link latencies must be >= 1 cycle");
    latencyX_ = x;
    latencyY_ = y;
    latencyLocal_ = local;
}

void
Topology::buildPortMaps()
{
    const int n = grid_.numNodes();
    const int w = grid_.width();
    const int h = grid_.height();
    fwd_.assign(static_cast<std::size_t>(n) * kNumPorts, PortRef{});
    rev_.assign(static_cast<std::size_t>(n) * kNumPorts, PortRef{});
    for (int node = 0; node < n; ++node) {
        const Coord c = grid_.coordOf(node);
        for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South}) {
            Coord nc = c;
            switch (d) {
              case Dir::East: ++nc.x; break;
              case Dir::West: --nc.x; break;
              case Dir::North: ++nc.y; break;
              case Dir::South: --nc.y; break;
              case Dir::Local: break;
            }
            if (wrapX_) {
                nc.x = (nc.x + w) % w;
            }
            if (wrapY_) {
                nc.y = (nc.y + h) % h;
            }
            if (nc.x < 0 || nc.x >= w || nc.y < 0 || nc.y >= h)
                continue; // mesh edge: no link through this port
            const int nbr = grid_.nodeId(nc);
            const int op = portOf(opposite(d));
            fwd_[flat(node, portOf(d))] = PortRef{nbr, op};
            rev_[flat(nbr, op)] = PortRef{node, portOf(d)};
        }
        // Local: a router's output Local feeds its own endpoint, whose
        // injection link feeds the router's input Local back.
        fwd_[flat(node, portOf(Dir::Local))] =
            PortRef{node, portOf(Dir::Local)};
        rev_[flat(node, portOf(Dir::Local))] =
            PortRef{node, portOf(Dir::Local)};
    }
}

int
Topology::minimalDirsInto(int cur, int dest, Dir out[2]) const
{
    if (!hasWrap())
        return grid_.minimalDirsInto(cur, dest, out);
    const Coord cc = grid_.coordOf(cur);
    const Coord cd = grid_.coordOf(dest);
    int n = 0;
    if (cd.x != cc.x) {
        if (!wrapX_) {
            out[n++] = cd.x > cc.x ? Dir::East : Dir::West;
        } else {
            const int w = grid_.width();
            const int east = (cd.x - cc.x + w) % w;
            // Exact ties (even extent, dest half-way around) go East.
            out[n++] = east <= w - east ? Dir::East : Dir::West;
        }
    }
    if (cd.y != cc.y) {
        if (!wrapY_) {
            out[n++] = cd.y > cc.y ? Dir::North : Dir::South;
        } else {
            const int h = grid_.height();
            const int north = (cd.y - cc.y + h) % h;
            out[n++] = north <= h - north ? Dir::North : Dir::South;
        }
    }
    return n;
}

int
Topology::hopDistance(int a, int b) const
{
    if (!hasWrap())
        return grid_.hopDistance(a, b);
    const Coord ca = grid_.coordOf(a);
    const Coord cb = grid_.coordOf(b);
    int dx = std::abs(ca.x - cb.x);
    int dy = std::abs(ca.y - cb.y);
    if (wrapX_)
        dx = dx < grid_.width() - dx ? dx : grid_.width() - dx;
    if (wrapY_)
        dy = dy < grid_.height() - dy ? dy : grid_.height() - dy;
    return dx + dy;
}

bool
Topology::datelineCrossing(int node, Dir d) const
{
    const Coord c = grid_.coordOf(node);
    switch (d) {
      case Dir::East:
        return wrapX_ && c.x == grid_.width() - 1;
      case Dir::West:
        return wrapX_ && c.x == 0;
      case Dir::North:
        return wrapY_ && c.y == grid_.height() - 1;
      case Dir::South:
        return wrapY_ && c.y == 0;
      case Dir::Local: break;
    }
    return false;
}

} // namespace footprint
