/**
 * @file
 * Event-horizon accounting for skip-ahead stepping.
 *
 * When the network is quiescent (no component has pending work and no
 * flit or credit is in flight) nothing can change until an external
 * event arrives: the next scheduled packet injection, a driver-side
 * phase boundary (end of warmup / measurement), a periodic observer
 * (auditor, watchdog), or the run's hard limit. A
 * HorizonTracker folds those candidate cycles into the earliest one,
 * and the stepping loop jumps the clock there in a single skipTo()
 * instead of ticking through the dead span.
 *
 * The horizon invariant (DESIGN.md §16): no simulator or observer
 * state may change strictly inside a jumped span. Anything that fires
 * periodically must either be clamped into the tracker (so the jump
 * lands exactly on its due cycle) or be jump-aware (able to replay the
 * skipped span from frozen state, e.g. the flight recorder's empty
 * windows). Violating this silently is impossible in CI: checksums
 * with skip-ahead on and off are compared bit-for-bit.
 */

#ifndef FOOTPRINT_SIM_HORIZON_HPP
#define FOOTPRINT_SIM_HORIZON_HPP

#include <cstdint>
#include <limits>

namespace footprint {

class HorizonTracker
{
  public:
    static constexpr std::int64_t kNever =
        std::numeric_limits<std::int64_t>::max();

    /**
     * Start a fold for a jump out of the cycle before @p from: the
     * horizon starts at @p limit (e.g. the run's hard limit) and only
     * candidates >= @p from pull it down — boundaries already in the
     * past (a warmup end long gone) must not drag the horizon
     * backwards.
     */
    HorizonTracker(std::int64_t from, std::int64_t limit)
        : from_(from), horizon_(limit < from ? from : limit)
    {}

    /** Pull the horizon down to @p cycle if in [from, horizon). */
    void
    clamp(std::int64_t cycle)
    {
        if (cycle >= from_ && cycle < horizon_)
            horizon_ = cycle;
    }

    /** The folded horizon: first cycle anything can happen. */
    std::int64_t cycle() const { return horizon_; }

    /** True if jumping to the horizon skips at least one cycle. */
    bool skips() const { return horizon_ > from_; }

  private:
    std::int64_t from_;     ///< earliest admissible landing cycle
    std::int64_t horizon_;
};

} // namespace footprint

#endif // FOOTPRINT_SIM_HORIZON_HPP
