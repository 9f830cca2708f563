#include "routing/routing.hpp"

#include "routing/dbar.hpp"
#include "routing/dor.hpp"
#include "routing/footprint.hpp"
#include "routing/odd_even.hpp"
#include "routing/xordet.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"

namespace footprint {

Dir
dorDir(const Mesh& mesh, int cur, int dest)
{
    const Coord cc = mesh.coordOf(cur);
    const Coord cd = mesh.coordOf(dest);
    if (cd.x > cc.x)
        return Dir::East;
    if (cd.x < cc.x)
        return Dir::West;
    if (cd.y > cc.y)
        return Dir::North;
    if (cd.y < cc.y)
        return Dir::South;
    return Dir::Local;
}

Dir
dorDir(const Topology& topo, int cur, int dest)
{
    if (!topo.hasWrap())
        return dorDir(topo.grid(), cur, dest);
    const Coord cc = topo.coordOf(cur);
    const Coord cd = topo.coordOf(dest);
    if (cd.x != cc.x) {
        if (!topo.wrapX())
            return cd.x > cc.x ? Dir::East : Dir::West;
        const int w = topo.width();
        const int east = (cd.x - cc.x + w) % w;
        return east <= w - east ? Dir::East : Dir::West;
    }
    if (cd.y != cc.y) {
        if (!topo.wrapY())
            return cd.y > cc.y ? Dir::North : Dir::South;
        const int h = topo.height();
        const int north = (cd.y - cc.y + h) % h;
        return north <= h - north ? Dir::North : Dir::South;
    }
    return Dir::Local;
}

namespace {

std::unique_ptr<RoutingAlgorithm>
makeBase(const std::string& name, const SimConfig& cfg)
{
    // Each algorithm reads only its own keys, so an out-of-range value
    // of a key it ignores stays harmless.
    if (name == "dor")
        return std::make_unique<DorRouting>();
    if (name == "oddeven")
        return std::make_unique<OddEvenRouting>();
    const int threshold =
        static_cast<int>(cfg.getInt("congestion_threshold"));
    if (name == "dbar") {
        return std::make_unique<DbarRouting>(
            threshold, cfg.getBool("dbar_use_remote"));
    }
    if (name == "footprint") {
        return std::make_unique<FootprintRouting>(
            threshold, static_cast<int>(cfg.getInt("fp_vc_cap")),
            FootprintRouting::parseVariant(cfg.getStr("fp_variant")),
            static_cast<int>(cfg.getInt("fp_converge_threshold")));
    }
    fatal("unknown routing algorithm: " + name);
}

} // namespace

std::unique_ptr<RoutingAlgorithm>
makeRoutingAlgorithm(const std::string& name, const SimConfig& cfg)
{
    const std::string suffix = "+xordet";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) == 0) {
        auto base =
            makeBase(name.substr(0, name.size() - suffix.size()), cfg);
        return std::make_unique<XordetRouting>(std::move(base));
    }
    return makeBase(name, cfg);
}

std::vector<std::string>
allRoutingAlgorithmNames()
{
    return {
        "dor",       "oddeven",        "dbar",         "footprint",
        "dor+xordet", "oddeven+xordet", "dbar+xordet",
    };
}

} // namespace footprint
