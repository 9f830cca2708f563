/**
 * @file
 * Latency-throughput curve points and the helpers the figure benches
 * use to lay them out. The sweep engine that produces them is
 * SweepRunner (exec/sweep_runner.hpp).
 */

#ifndef FOOTPRINT_NETWORK_SWEEP_HPP
#define FOOTPRINT_NETWORK_SWEEP_HPP

#include <string>
#include <vector>

namespace footprint {

/** One point on a latency-throughput curve. */
struct CurvePoint
{
    double offered = 0.0;   ///< flits/node/cycle offered
    double accepted = 0.0;  ///< flits/node/cycle accepted
    double latency = 0.0;   ///< average packet latency (cycles)
    bool saturated = false;
};

/** Evenly spaced rates in [lo, hi] (inclusive), helper for benches. */
std::vector<double> linspace(double lo, double hi, int count);

/** Render curve points as aligned table rows for bench output. */
std::string formatCurve(const std::string& label,
                        const std::vector<CurvePoint>& points);

} // namespace footprint

#endif // FOOTPRINT_NETWORK_SWEEP_HPP
