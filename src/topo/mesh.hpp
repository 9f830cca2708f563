/**
 * @file
 * The network's shape: one immutable Mesh holds the row-major
 * coordinate grid, the wrap flags, the concentration, the forward and
 * reverse port maps, and the per-dimension link latencies. Network
 * construction, every routing algorithm, the traffic patterns and the
 * observers query it.
 *
 * Four kinds share the 5-port (E/W/N/S/Local) router model:
 *  - mesh:  the paper's k x k mesh (the public Mesh(w, h)),
 *  - torus: mesh plus x/y wraparound links (DOR + dateline VCs only),
 *  - cmesh: mesh with `concentration` terminals per router sharing
 *    the router's local port,
 *  - ring:  an N x 1 wrapped row (DOR + dateline VCs only).
 */

#ifndef FOOTPRINT_TOPO_MESH_HPP
#define FOOTPRINT_TOPO_MESH_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "sim/log.hpp"

namespace footprint {

class SimConfig;

/**
 * Router port directions in a 2D mesh.
 *
 * East/West move along +x/-x, North/South along +y/-y, and Local is the
 * injection/ejection port connecting a router to its endpoint node.
 */
enum class Dir : int {
    East = 0,
    West = 1,
    North = 2,
    South = 3,
    Local = 4,
};

/** Number of router ports in a 2D mesh (4 mesh directions + local). */
inline constexpr int kNumPorts = 5;

/** @return the port index for a direction. */
inline constexpr int portOf(Dir d) { return static_cast<int>(d); }

/** @return the direction for a port index in [0, kNumPorts). */
Dir dirOf(int port);

/** @return the opposite mesh direction (East<->West, North<->South). */
Dir opposite(Dir d);

/** @return short human-readable name ("E", "W", "N", "S", "L"). */
std::string dirName(Dir d);

/** Integer (x, y) coordinate of a mesh node. */
struct Coord
{
    int x = 0;
    int y = 0;

    bool operator==(const Coord&) const = default;
};

/** Topology family of a network instance. */
enum class TopologyKind : int {
    Mesh = 0,
    Torus = 1,
    CMesh = 2,
    Ring = 3,
};

/** Name accepted by the `topology` config key ("mesh", "torus", ...). */
const char* topologyKindName(TopologyKind kind);

/**
 * One end of a directed link: input/output @p port of router @p node.
 * {-1, -1} marks "no link" (a mesh edge port).
 */
struct PortRef
{
    int node = -1;
    int port = -1;

    bool operator==(const PortRef&) const = default;
    bool valid() const { return node >= 0; }
};

/**
 * A width x height grid of routers and the links between them.
 *
 * Node ids are row-major: id = y * width + x, matching the node
 * numbering in the paper's figures (n0 .. n15 for a 4x4 mesh).
 *
 * Forward map: forward(n, p) is the (node, input port) that receives
 * what router n transmits on output port p. Reverse map: reverse(n, p)
 * is the (node, output port) that feeds router n's input port p. The
 * two are inverses of each other by construction; the Local port maps
 * a router to its own endpoint ({n, Local} on both sides).
 */
class Mesh
{
  public:
    /** Plain w x h mesh, one terminal per router, 1-cycle links. */
    Mesh(int width, int height);

    /** w x h torus (x and y wraparound); requires w, h >= 3. */
    static Mesh torus(int width, int height);

    /** Concentrated mesh: @p concentration terminals per router. */
    static Mesh cmesh(int width, int height, int concentration);

    /** N-node wrapped row (grid N x 1); requires n >= 3. */
    static Mesh ring(int nodes);

    /**
     * Build from config keys: `topology` (default "mesh"),
     * `mesh_width`/`mesh_height`, `concentration`, and the link
     * latencies `link_latency` (both dims), `link_latency_x`,
     * `link_latency_y`, `link_latency_local` (dimension overrides).
     * fatal() on unknown names or invalid (topology, key) combos.
     */
    static Mesh fromConfig(const SimConfig& cfg);

    TopologyKind kind() const { return kind_; }
    const char* kindName() const { return topologyKindName(kind_); }

    int width() const { return width_; }
    int height() const { return height_; }
    int numNodes() const { return width_ * height_; }

    /** @return the node id at @p c. */
    int nodeId(Coord c) const;

    /** @return the coordinate of @p node (a table load). */
    Coord
    coordOf(int node) const
    {
        FP_ASSERT(node >= 0 && node < numNodes(), "node id out of mesh");
        return coords_[static_cast<std::size_t>(node)];
    }

    /** True when any dimension wraps (torus / ring). */
    bool hasWrap() const { return wrapX_ || wrapY_; }

    // --- Terminals (concentration). ---

    /** Terminals (endpoint slots) per router; 1 except for cmesh. */
    int concentration() const { return concentration_; }
    int numTerminals() const { return numNodes() * concentration_; }
    /** Router a terminal is attached to. */
    int terminalRouter(int t) const { return t / concentration_; }
    /** Intra-router index of a terminal (0..concentration-1). */
    int terminalIndex(int t) const { return t % concentration_; }
    /** Terminal id of slot @p k at @p router. */
    int terminalOf(int router, int k) const
    {
        return router * concentration_ + k;
    }

    // --- Connectivity. ---

    /** True when a link leaves @p node through mesh direction @p d. */
    bool hasNeighbor(int node, Dir d) const
    {
        return d != Dir::Local && forward(node, portOf(d)).valid();
    }

    /** Neighboring router through @p d; -1 at an edge port or Local. */
    int neighbor(int node, Dir d) const
    {
        return d == Dir::Local ? -1 : forward(node, portOf(d)).node;
    }

    /** Receiver of what @p node transmits on output @p port. */
    const PortRef& forward(int node, int port) const
    {
        return fwd_[flat(node, port)];
    }

    /** Transmitter feeding @p node's input @p port. */
    const PortRef& reverse(int node, int port) const
    {
        return rev_[flat(node, port)];
    }

    /** Latency of a link leaving through @p d (Local = endpoint). */
    int linkLatency(Dir d) const
    {
        switch (d) {
          case Dir::East:
          case Dir::West: return latencyX_;
          case Dir::North:
          case Dir::South: return latencyY_;
          case Dir::Local: break;
        }
        return latencyLocal_;
    }

    // --- Minimal-path queries. ---

    /** Minimal hop count (Manhattan; the short way round a wrap). */
    int hopDistance(int a, int b) const;

    /**
     * Minimal productive directions from @p cur towards @p dest, E/W
     * before N/S (0, 1, or 2 entries; 0 when cur == dest). On wrapped
     * dimensions the shorter way around is chosen; exact ties break
     * East/North. Inline, with no divide or modulo: the router
     * critical path calls it for every route().
     */
    int
    minimalDirsInto(int cur, int dest, Dir out[2]) const
    {
        const Coord cc = coordOf(cur);
        const Coord cd = coordOf(dest);
        int n = 0;
        if (const int sx = minimalStep(cc.x, cd.x, width_, wrapX_))
            out[n++] = sx > 0 ? Dir::East : Dir::West;
        if (const int sy = minimalStep(cc.y, cd.y, height_, wrapY_))
            out[n++] = sy > 0 ? Dir::North : Dir::South;
        return n;
    }

    /** Vector form of minimalDirsInto, for the adaptiveness metrics. */
    std::vector<Dir> minimalDirs(int cur, int dest) const;

    /**
     * Number of distinct minimal paths between two nodes of an
     * unwrapped grid, C(|dx|+|dy|, |dx|) — used by the adaptiveness
     * metrics.
     */
    double numMinimalPaths(int a, int b) const;

    /**
     * True when the hop leaving @p node through @p d crosses that
     * dimension's dateline (the single wrap edge of the ring): the
     * downstream flit must occupy a dateline-class-1 VC (see
     * DESIGN.md §18). Always false on unwrapped dimensions.
     */
    bool datelineCrossing(int node, Dir d) const;

  private:
    Mesh(TopologyKind kind, int width, int height, bool wrap_x,
         bool wrap_y, int concentration);

    /**
     * Minimal step from coordinate @p from to @p to along a dimension
     * of extent @p n: +1, -1, or 0 when they agree. A wrapped
     * dimension goes the shorter way around; exact ties (even extent,
     * half-way) go +1.
     */
    static int
    minimalStep(int from, int to, int n, bool wrap)
    {
        if (from == to)
            return 0;
        if (!wrap)
            return to > from ? 1 : -1;
        const int up = to > from ? to - from : to - from + n;
        return up <= n - up ? 1 : -1;
    }

    std::size_t flat(int node, int port) const
    {
        return static_cast<std::size_t>(node) * kNumPorts
            + static_cast<std::size_t>(port);
    }

    TopologyKind kind_;
    int width_;
    int height_;
    bool wrapX_;
    bool wrapY_;
    int concentration_;
    int latencyX_ = 1;
    int latencyY_ = 1;
    int latencyLocal_ = 1;
    std::vector<Coord> coords_;  ///< node id -> (x, y)
    std::vector<PortRef> fwd_;
    std::vector<PortRef> rev_;
};

} // namespace footprint

#endif // FOOTPRINT_TOPO_MESH_HPP
