/**
 * @file
 * Helpers shared by the JSON artifact writers: opening the output
 * file, string escaping and compact numeric rendering.
 */

#ifndef FOOTPRINT_OBS_SINK_HPP
#define FOOTPRINT_OBS_SINK_HPP

#include <fstream>
#include <memory>
#include <string>

namespace footprint {

/**
 * Open @p path for an artifact of @p kind ("heatmap", ...), or end the
 * run in fatal("cannot open <kind> file: <path>"). Writers call it
 * before the run's first cycle.
 */
std::unique_ptr<std::ofstream> openArtifact(const std::string& path,
                                            const char* kind);

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string& s);

/**
 * Format a telemetry value compactly: integral values print without a
 * decimal point, others with up to six significant digits.
 */
std::string formatTelemetryValue(double v);

} // namespace footprint

#endif // FOOTPRINT_OBS_SINK_HPP
