/**
 * @file
 * Run metadata stamped onto every exported artifact (timeseries
 * streams, heatmap/profile/bench documents, packet traces, chrome
 * trace timelines, state dumps) so each file is self-describing: which
 * code, which configuration, and which seed produced it.
 */

#ifndef FOOTPRINT_OBS_RUN_METADATA_HPP
#define FOOTPRINT_OBS_RUN_METADATA_HPP

#include <cstdint>
#include <string>

namespace footprint {

class SimConfig;

/**
 * Identity of one simulation run. configHash is a 64-bit FNV-1a over
 * the full rendered configuration, so two artifacts with equal hashes
 * came from identical parameter sets; gitDescribe is injected at build
 * time (FP_GIT_DESCRIBE) and pins the code version.
 */
struct RunMetadata
{
    std::uint64_t seed = 0;
    std::string configHash;
    std::string gitDescribe;
    std::string buildType;  ///< CMAKE_BUILD_TYPE the library compiled as
    int numCpus = 0;        ///< hardware threads visible at run time
    std::int64_t startCycle = 0;

    /** Derive metadata from @p cfg: seed + hash of run-identity keys. */
    static RunMetadata fromConfig(const SimConfig& cfg);

    /** The build's git describe string ("unknown" outside git). */
    static std::string buildVersion();

    /** CMAKE_BUILD_TYPE baked at compile time ("unknown" if unset). */
    static std::string compiledBuildType();

    /**
     * {"seed":S,"config_hash":"H","git":"G","build_type":"B",
     *  "num_cpus":N,"start_cycle":C}. Perf gates read build_type /
     * num_cpus to flag numbers measured on a debug build or an
     * unexpected machine shape.
     */
    std::string toJson() const;
};

/** FNV-1a 64-bit hash of @p s, rendered as 16 hex digits. */
std::string fnv1aHex(const std::string& s);

} // namespace footprint

#endif // FOOTPRINT_OBS_RUN_METADATA_HPP
