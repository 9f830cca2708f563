#include "obs/sink.hpp"

#include <cmath>
#include <cstdio>

#include "sim/log.hpp"

namespace footprint {

std::unique_ptr<std::ofstream>
openArtifact(const std::string& path, const char* kind)
{
    auto os = std::make_unique<std::ofstream>(path);
    if (!*os)
        fatal("cannot open " + std::string(kind) + " file: " + path);
    return os;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatTelemetryValue(double v)
{
    if (std::isfinite(v) && v == std::floor(v)
        && std::abs(v) < 1e15) {
        return std::to_string(static_cast<long long>(v));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace footprint
