#include "obs/run_metadata.hpp"

#include <cstdio>
#include <thread>

#include "obs/sink.hpp"
#include "sim/config.hpp"

#ifndef FP_GIT_DESCRIBE
#define FP_GIT_DESCRIBE "unknown"
#endif

#ifndef FP_BUILD_TYPE
#define FP_BUILD_TYPE "unknown"
#endif

namespace footprint {

std::string
fnv1aHex(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

RunMetadata
RunMetadata::fromConfig(const SimConfig& cfg)
{
    RunMetadata meta;
    meta.seed = static_cast<std::uint64_t>(cfg.getInt("seed"));
    // The hash names the experiment: every set key but the execution
    // knobs the config table leaves out of the run identity.
    std::string identity;
    for (const std::string& key : cfg.keys()) {
        const ConfigKey* row = findConfigKey(key);
        if (row == nullptr || row->identity)
            identity += key + " = " + cfg.getStr(key) + "\n";
    }
    meta.configHash = fnv1aHex(identity);
    meta.gitDescribe = buildVersion();
    meta.buildType = compiledBuildType();
    meta.numCpus =
        static_cast<int>(std::thread::hardware_concurrency());
    return meta;
}

std::string
RunMetadata::buildVersion()
{
    return FP_GIT_DESCRIBE;
}

std::string
RunMetadata::compiledBuildType()
{
    const char* t = FP_BUILD_TYPE;
    return *t != '\0' ? t : "unknown";
}

std::string
RunMetadata::toJson() const
{
    return "{\"seed\":" + std::to_string(seed) + ",\"config_hash\":\""
        + jsonEscape(configHash) + "\",\"git\":\""
        + jsonEscape(gitDescribe) + "\",\"build_type\":\""
        + jsonEscape(buildType) + "\",\"num_cpus\":"
        + std::to_string(numCpus) + ",\"start_cycle\":"
        + std::to_string(startCycle) + "}";
}

} // namespace footprint
