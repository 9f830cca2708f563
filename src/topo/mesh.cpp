#include "topo/mesh.hpp"

#include <cstdlib>

#include "sim/config.hpp"
#include "sim/log.hpp"

namespace footprint {

namespace {

/** Hops between two coordinates along one dimension of extent @p n. */
int
dimDistance(int a, int b, int n, bool wrap)
{
    const int d = std::abs(a - b);
    return wrap && n - d < d ? n - d : d;
}

} // namespace

Dir
dirOf(int port)
{
    FP_ASSERT(port >= 0 && port < kNumPorts, "bad port index " << port);
    return static_cast<Dir>(port);
}

Dir
opposite(Dir d)
{
    switch (d) {
      case Dir::East: return Dir::West;
      case Dir::West: return Dir::East;
      case Dir::North: return Dir::South;
      case Dir::South: return Dir::North;
      case Dir::Local: break;
    }
    FP_PANIC("opposite() of Local port is undefined");
}

std::string
dirName(Dir d)
{
    switch (d) {
      case Dir::East: return "E";
      case Dir::West: return "W";
      case Dir::North: return "N";
      case Dir::South: return "S";
      case Dir::Local: return "L";
    }
    return "?";
}

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

Mesh::Mesh(int width, int height)
    : Mesh(TopologyKind::Mesh, width, height, false, false, 1)
{}

Mesh::Mesh(TopologyKind kind, int width, int height, bool wrap_x,
           bool wrap_y, int concentration)
    : kind_(kind), width_(width), height_(height), wrapX_(wrap_x),
      wrapY_(wrap_y), concentration_(concentration)
{
    // 1-D grids (N x 1 / 1 x N) back the ring topology; anything with
    // fewer than two nodes has no links to route over.
    if (width < 1 || height < 1 || width * height < 2)
        fatal("mesh must have at least 2 nodes");

    const int n = numNodes();
    coords_.reserve(static_cast<std::size_t>(n));
    for (int node = 0; node < n; ++node)
        coords_.push_back(Coord{node % width_, node / width_});
    fwd_.assign(static_cast<std::size_t>(n) * kNumPorts, PortRef{});
    rev_.assign(static_cast<std::size_t>(n) * kNumPorts, PortRef{});
    for (int node = 0; node < n; ++node) {
        const Coord c = coordOf(node);
        for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South}) {
            Coord nc = c;
            switch (d) {
              case Dir::East: ++nc.x; break;
              case Dir::West: --nc.x; break;
              case Dir::North: ++nc.y; break;
              case Dir::South: --nc.y; break;
              case Dir::Local: break;
            }
            if (wrapX_)
                nc.x = (nc.x + width_) % width_;
            if (wrapY_)
                nc.y = (nc.y + height_) % height_;
            if (nc.x < 0 || nc.x >= width_ || nc.y < 0 || nc.y >= height_)
                continue; // mesh edge: no link through this port
            const int nbr = nodeId(nc);
            const int op = portOf(opposite(d));
            fwd_[flat(node, portOf(d))] = PortRef{nbr, op};
            rev_[flat(nbr, op)] = PortRef{node, portOf(d)};
        }
        // Local: a router's output Local feeds its own endpoint, whose
        // injection link feeds the router's input Local back.
        const PortRef local{node, portOf(Dir::Local)};
        fwd_[flat(node, portOf(Dir::Local))] = local;
        rev_[flat(node, portOf(Dir::Local))] = local;
    }
}

Mesh
Mesh::torus(int width, int height)
{
    // A wrapped dimension of extent 2 would alias the mesh link and
    // the wrap link between the same node pair (two parallel East
    // links); extent >= 3 keeps every (node, port) pair unique.
    if (width < 3 || height < 3)
        fatal("torus needs width >= 3 and height >= 3");
    return Mesh(TopologyKind::Torus, width, height, true, true, 1);
}

Mesh
Mesh::cmesh(int width, int height, int concentration)
{
    if (concentration < 1)
        fatal("cmesh concentration must be >= 1");
    return Mesh(TopologyKind::CMesh, width, height, false, false,
                concentration);
}

Mesh
Mesh::ring(int nodes)
{
    if (nodes < 3)
        fatal("ring needs >= 3 nodes");
    return Mesh(TopologyKind::Ring, nodes, 1, true, false, 1);
}

Mesh
Mesh::fromConfig(const SimConfig& cfg)
{
    const std::string name = cfg.getStr("topology");
    const int w = static_cast<int>(cfg.getInt("mesh_width"));
    const int h = static_cast<int>(cfg.getInt("mesh_height"));
    const int c = static_cast<int>(cfg.getInt("concentration"));
    if (c != 1 && name != "cmesh")
        fatal("concentration > 1 requires topology=cmesh");

    Mesh mesh = [&]() -> Mesh {
        if (name == "mesh")
            return Mesh(w, h);
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

    // Each per-dimension latency defaults to link_latency; the config
    // table holds every latency key at >= 1 cycle.
    const int base = static_cast<int>(cfg.getInt("link_latency"));
    auto latency = [&](const char* key) {
        return cfg.contains(key) ? static_cast<int>(cfg.getInt(key))
                                 : base;
    };
    mesh.latencyX_ = latency("link_latency_x");
    mesh.latencyY_ = latency("link_latency_y");
    mesh.latencyLocal_ = latency("link_latency_local");
    return mesh;
}

int
Mesh::nodeId(Coord c) const
{
    FP_ASSERT(c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_,
              "coordinate out of mesh");
    return c.y * width_ + c.x;
}

int
Mesh::hopDistance(int a, int b) const
{
    const Coord ca = coordOf(a);
    const Coord cb = coordOf(b);
    return dimDistance(ca.x, cb.x, width_, wrapX_)
        + dimDistance(ca.y, cb.y, height_, wrapY_);
}

std::vector<Dir>
Mesh::minimalDirs(int cur, int dest) const
{
    Dir buf[2];
    const int n = minimalDirsInto(cur, dest, buf);
    return std::vector<Dir>(buf, buf + n);
}

double
Mesh::numMinimalPaths(int a, int b) const
{
    const Coord ca = coordOf(a);
    const Coord cb = coordOf(b);
    const int dx = std::abs(ca.x - cb.x);
    const int dy = std::abs(ca.y - cb.y);
    // C(dx + dy, dx), computed multiplicatively in doubles; mesh
    // distances are small enough that this is exact.
    double result = 1.0;
    for (int i = 1; i <= dx; ++i)
        result = result * static_cast<double>(dy + i)
            / static_cast<double>(i);
    return result;
}

bool
Mesh::datelineCrossing(int node, Dir d) const
{
    const Coord c = coordOf(node);
    switch (d) {
      case Dir::East: return wrapX_ && c.x == width_ - 1;
      case Dir::West: return wrapX_ && c.x == 0;
      case Dir::North: return wrapY_ && c.y == height_ - 1;
      case Dir::South: return wrapY_ && c.y == 0;
      case Dir::Local: break;
    }
    return false;
}

} // namespace footprint
