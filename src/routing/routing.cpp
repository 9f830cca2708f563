#include "routing/routing.hpp"

#include "routing/dbar.hpp"
#include "routing/dor.hpp"
#include "routing/footprint.hpp"
#include "routing/odd_even.hpp"
#include "routing/xordet.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"

namespace footprint {

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
