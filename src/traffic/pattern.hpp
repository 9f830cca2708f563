/**
 * @file
 * Synthetic traffic patterns (uniform random, transpose, shuffle) and
 * the Table-3 hotspot flow set.
 */

#ifndef FOOTPRINT_TRAFFIC_PATTERN_HPP
#define FOOTPRINT_TRAFFIC_PATTERN_HPP

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "topo/mesh.hpp"

namespace footprint {

class Rng;

/**
 * Maps a source terminal to a destination terminal per generated
 * packet. On unconcentrated topologies terminals coincide with nodes;
 * on a cmesh terminal t is attached to router t / c (the patterns work
 * in terminal space so every terminal gets an independent traffic
 * stream). Returns -1 when the terminal generates no traffic under
 * this pattern (e.g. fixed points of transpose/shuffle).
 */
class TrafficPattern
{
  public:
    virtual ~TrafficPattern() = default;

    virtual std::string name() const = 0;

    /**
     * Pick the destination for a packet from @p src.
     * @return destination terminal id, or -1 for "no traffic".
     */
    virtual int dest(int src, Rng& rng) const = 0;
};

/** Uniform random over all terminals except the source. */
class UniformPattern : public TrafficPattern
{
  public:
    explicit UniformPattern(const Mesh& mesh, int concentration = 1)
        : numNodes_(mesh.numNodes() * concentration)
    {}

    std::string name() const override { return "uniform"; }
    int dest(int src, Rng& rng) const override;

  private:
    int numNodes_;
};

/**
 * Matrix transpose: router (x, y) sends to (y, x); requires a square
 * mesh. Under concentration the intra-router terminal index is
 * preserved, so terminal k of (x, y) sends to terminal k of (y, x).
 */
class TransposePattern : public TrafficPattern
{
  public:
    explicit TransposePattern(const Mesh& mesh, int concentration = 1);

    std::string name() const override { return "transpose"; }
    int dest(int src, Rng& rng) const override;

  private:
    const Mesh* mesh_;
    int conc_;
};

/**
 * Perfect shuffle: destination id is the source id rotated left by one
 * bit (in log2(N) bits over terminal ids); requires a power-of-two
 * terminal count.
 */
class ShufflePattern : public TrafficPattern
{
  public:
    explicit ShufflePattern(const Mesh& mesh, int concentration = 1);

    std::string name() const override { return "shuffle"; }
    int dest(int src, Rng& rng) const override;

  private:
    int numNodes_;
    int bits_;
};

/**
 * The Table-3 hotspot flow set, scaled to the mesh size: eight
 * persistent source->destination flows oversubscribing four endpoints
 * (two flows per hotspot), with all remaining nodes generating uniform
 * random background traffic.
 */
std::vector<std::pair<int, int>> defaultHotspotFlows(const Mesh& mesh);

/**
 * Instantiate a pattern by name: "uniform", "transpose" or "shuffle".
 * ("hotspot" and "trace" are traffic-manager modes, not patterns.)
 * Patterns run in terminal space, so a cmesh with concentration c
 * gets c independent streams per router. fatal() on unknown names.
 */
std::unique_ptr<TrafficPattern>
makeTrafficPattern(const std::string& name, const Mesh& mesh);

} // namespace footprint

#endif // FOOTPRINT_TRAFFIC_PATTERN_HPP
