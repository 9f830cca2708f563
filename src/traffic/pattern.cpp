#include "traffic/pattern.hpp"

#include "sim/log.hpp"
#include "sim/rng.hpp"

namespace footprint {

int
UniformPattern::dest(int src, Rng& rng) const
{
    // Uniform over all nodes except the source.
    const int d =
        static_cast<int>(rng.nextBounded(
            static_cast<std::uint64_t>(numNodes_ - 1)));
    return d >= src ? d + 1 : d;
}

TransposePattern::TransposePattern(const Mesh& mesh, int concentration)
    : mesh_(&mesh), conc_(concentration)
{
    if (mesh.width() != mesh.height())
        fatal("transpose pattern requires a square mesh");
}

int
TransposePattern::dest(int src, Rng& /*rng*/) const
{
    const int router = src / conc_;
    const int k = src % conc_;
    const Coord c = mesh_->coordOf(router);
    const int d = mesh_->nodeId(Coord{c.y, c.x}) * conc_ + k;
    return d == src ? -1 : d;
}

ShufflePattern::ShufflePattern(const Mesh& mesh, int concentration)
    : numNodes_(mesh.numNodes() * concentration), bits_(0)
{
    int n = numNodes_;
    while (n > 1) {
        if (n % 2 != 0)
            fatal("shuffle pattern requires a power-of-two node count");
        n /= 2;
        ++bits_;
    }
}

int
ShufflePattern::dest(int src, Rng& /*rng*/) const
{
    const int msb = (src >> (bits_ - 1)) & 1;
    const int d = ((src << 1) | msb) & (numNodes_ - 1);
    return d == src ? -1 : d;
}

std::vector<std::pair<int, int>>
defaultHotspotFlows(const Mesh& mesh)
{
    const int w = mesh.width();
    const int h = mesh.height();
    auto id = [&](int x, int y) { return mesh.nodeId(Coord{x, y}); };
    // Table 3 on an 8x8 mesh, expressed in relative coordinates so the
    // same flow structure scales to other mesh sizes: two flows per
    // hotspot destination, four hotspot corners.
    return {
        {id(0, 0), id(w - 1, h - 1)},          // f1: n0  -> n63
        {id(0, h / 2), id(w - 1, h - 1)},      // f2: n32 -> n63
        {id(w - 1, 0), id(0, h - 1)},          // f3: n7  -> n56
        {id(w - 1, h / 2), id(0, h - 1)},      // f4: n39 -> n56
        {id(w - 1, h - 1), id(0, 0)},          // f5: n63 -> n0
        {id(w - 1, h / 2 - 1), id(0, 0)},      // f6: n31 -> n0
        {id(0, h - 1), id(w - 1, 0)},          // f7: n56 -> n7
        {id(0, h / 2 - 1), id(w - 1, 0)},      // f8: n24 -> n7
    };
}

std::unique_ptr<TrafficPattern>
makeTrafficPattern(const std::string& name, const Mesh& mesh)
{
    const int c = mesh.concentration();
    if (name == "uniform")
        return std::make_unique<UniformPattern>(mesh, c);
    if (name == "transpose")
        return std::make_unique<TransposePattern>(mesh, c);
    if (name == "shuffle")
        return std::make_unique<ShufflePattern>(mesh, c);
    fatal("unknown traffic pattern: " + name);
}

} // namespace footprint
