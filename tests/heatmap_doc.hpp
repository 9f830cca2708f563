/**
 * @file
 * Helpers for tests that compare footprint.heatmap/1 documents across
 * runs: strip the run-metadata header and list the window bounds.
 */

#ifndef FOOTPRINT_TESTS_HEATMAP_DOC_HPP
#define FOOTPRINT_TESTS_HEATMAP_DOC_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace footprint {

/**
 * @p doc without its "meta" object: the config hash in it differs
 * between runs that differ only in an execution knob.
 */
inline std::string
heatmapWithoutMeta(const std::string& doc)
{
    const std::size_t meta = doc.find(",\"meta\":");
    const std::size_t mesh = doc.find(",\"mesh\":");
    if (meta == std::string::npos || mesh == std::string::npos)
        return doc;
    return doc.substr(0, meta) + doc.substr(mesh);
}

/** Every window's [start, end) of a heatmap document, in order. */
inline std::vector<std::pair<std::int64_t, std::int64_t>>
heatmapWindowBounds(const std::string& doc)
{
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    const std::string key = "{\"start\":";
    for (std::size_t pos = doc.find(key); pos != std::string::npos;
         pos = doc.find(key, pos + 1)) {
        long long start = 0;
        long long end = 0;
        if (std::sscanf(doc.c_str() + pos, "{\"start\":%lld,\"end\":%lld",
                        &start, &end)
            == 2)
            out.emplace_back(start, end);
    }
    return out;
}

} // namespace footprint

#endif // FOOTPRINT_TESTS_HEATMAP_DOC_HPP
