/**
 * @file
 * Helpers for tests of the flight recorder's heatmap grids: a
 * heatmap-on recorder config, and for comparing footprint.heatmap/1
 * documents across runs, the document without its run-metadata header
 * and its window bounds.
 */

#ifndef FOOTPRINT_TESTS_HEATMAP_DOC_HPP
#define FOOTPRINT_TESTS_HEATMAP_DOC_HPP

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "obs/timeseries.hpp"

namespace footprint {

/**
 * A stream-less recorder config with the heatmap on: @p window cycles
 * per window, a gauge sample every @p sample cycles, and the document
 * written to @p name in the temp directory (the recorder opens it when
 * built and writes it at finish; the test removes it).
 */
inline TimeseriesConfig
heatmapRecorderConfig(std::int64_t window, std::int64_t sample,
                      const std::string& name)
{
    TimeseriesConfig tc;
    tc.enabled = true;
    tc.outPath = "";
    tc.interval = window;
    tc.heatmap = true;
    tc.heatmapOut =
        (std::filesystem::temp_directory_path() / name).string();
    tc.heatmapSampleInterval = sample;
    return tc;
}

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
