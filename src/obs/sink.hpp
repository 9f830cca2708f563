/**
 * @file
 * Text-formatting helpers shared by the JSON artifact writers: string
 * escaping and compact numeric rendering.
 */

#ifndef FOOTPRINT_OBS_SINK_HPP
#define FOOTPRINT_OBS_SINK_HPP

#include <string>

namespace footprint {

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string& s);

/**
 * Format a telemetry value compactly: integral values print without a
 * decimal point, others with up to six significant digits.
 */
std::string formatTelemetryValue(double v);

} // namespace footprint

#endif // FOOTPRINT_OBS_SINK_HPP
