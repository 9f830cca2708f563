/**
 * @file
 * Packet-size distributions and the Bernoulli injection schedule used
 * by open-loop synthetic traffic.
 */

#ifndef FOOTPRINT_TRAFFIC_INJECTION_HPP
#define FOOTPRINT_TRAFFIC_INJECTION_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace footprint {

class Rng;

/**
 * Packet length distribution. Supports fixed sizes ("1", "4") and the
 * paper's uniformly distributed variable size ("uniform1-6").
 */
class PacketSizeDist
{
  public:
    /** Fixed size @p n. */
    static PacketSizeDist fixed(int n);

    /** Uniform over [lo, hi] flits. */
    static PacketSizeDist uniform(int lo, int hi);

    /**
     * Parse a config string: "<n>" (fixed) or "uniform<lo>-<hi>".
     * fatal() on malformed input.
     */
    static PacketSizeDist parse(const std::string& spec);

    int sample(Rng& rng) const;
    double mean() const;
    int maxSize() const { return hi_; }
    int minSize() const { return lo_; }

    std::string toString() const;

  private:
    PacketSizeDist(int lo, int hi) : lo_(lo), hi_(hi) {}

    int lo_;
    int hi_;
};

/**
 * Next-arrival schedule over a set of Bernoulli injection slots.
 *
 * Open-loop Bernoulli injection at flit rate r and mean packet size s
 * fires each slot with probability p = r / s per cycle, keeping the
 * offered load in flits/node/cycle equal to r. Equivalent in
 * distribution to one Bernoulli(p) trial per slot per cycle, but
 * instead of consuming one RNG draw per slot per cycle it draws
 * geometric inter-arrival gaps and keeps a min-heap of (cycle, slot)
 * fire events. That gives the stepping
 * loop two things: O(fires) instead of O(slots × cycles) injection
 * cost, and — the reason this exists — an exact answer to "when does
 * the next packet arrive?", which the event-horizon fast path needs
 * to jump over idle spans without changing results.
 *
 * RNG discipline: the constructor draws one gap per slot in ascending
 * slot order; thereafter exactly one gap is drawn per fired packet
 * (by the caller, interleaved with its dest/size draws). Because
 * draws are tied to fire events rather than cycles, the consumption
 * sequence is identical whether or not idle cycles are skipped.
 *
 * Events are packed as cycle * slots + slot, so popDue() yields
 * same-cycle fires in ascending slot order — the same node order the
 * per-cycle loop had.
 */
class InjectionSchedule
{
  public:
    /** Sentinel for "no pending arrival". */
    static constexpr std::int64_t kNever =
        std::numeric_limits<std::int64_t>::max();

    /**
     * @param slots       number of independent injection processes
     * @param packet_prob per-slot per-cycle firing probability
     * @param rng         stream to draw the initial gaps from
     *
     * The first fire of slot i lands at cycle gap_i - 1, matching a
     * per-cycle process whose first trial happens at cycle 0.
     */
    InjectionSchedule(int slots, double packet_prob, Rng& rng);

    /** Earliest cycle with a pending fire, or kNever. */
    std::int64_t
    nextFireCycle() const
    {
        return heap_.empty() ? kNever
                             : heap_.front() / static_cast<std::int64_t>(slots_);
    }

    /**
     * Pop the lowest-numbered slot firing at @p cycle, or -1 if none.
     * Call repeatedly to drain a cycle; reschedule each popped slot
     * with scheduleNext() before popping the next so the RNG order
     * matches the per-cycle formulation.
     */
    int popDue(std::int64_t cycle);

    /** Draw the next gap for @p slot after it fired at @p fired_cycle. */
    void scheduleNext(int slot, std::int64_t fired_cycle, Rng& rng);

    int slots() const { return slots_; }

  private:
    void push(std::int64_t key);

    int slots_;
    double prob_;
    double logOneMinusP_;              ///< detLog(1 - prob_), or 0 if p >= 1
    std::vector<std::int64_t> heap_;   ///< min-heap of cycle*slots+slot
};

} // namespace footprint

#endif // FOOTPRINT_TRAFFIC_INJECTION_HPP
