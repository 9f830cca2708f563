#include "network/sweep.hpp"

#include <cstdio>
#include <sstream>

#include "sim/log.hpp"

namespace footprint {

std::vector<double>
linspace(double lo, double hi, int count)
{
    FP_ASSERT(count >= 2, "linspace needs at least two points");
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        out.push_back(lo
                      + (hi - lo) * static_cast<double>(i)
                          / static_cast<double>(count - 1));
    }
    return out;
}

std::string
formatCurve(const std::string& label,
            const std::vector<CurvePoint>& points)
{
    std::ostringstream oss;
    for (const CurvePoint& p : points) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-18s offered=%.3f accepted=%.3f latency=%8.2f%s\n",
                      label.c_str(), p.offered, p.accepted, p.latency,
                      p.saturated ? "  [saturated]" : "");
        oss << line;
    }
    return oss.str();
}

} // namespace footprint
