#include "traffic/injection.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "sim/det_math.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"

namespace footprint {

PacketSizeDist
PacketSizeDist::fixed(int n)
{
    if (n < 1)
        fatal("packet size must be at least 1 flit");
    return PacketSizeDist(n, n);
}

PacketSizeDist
PacketSizeDist::uniform(int lo, int hi)
{
    if (lo < 1 || hi < lo)
        fatal("invalid uniform packet size range");
    return PacketSizeDist(lo, hi);
}

PacketSizeDist
PacketSizeDist::parse(const std::string& spec)
{
    int lo = 0;
    int hi = 0;
    if (std::sscanf(spec.c_str(), "uniform%d-%d", &lo, &hi) == 2)
        return uniform(lo, hi);
    if (std::sscanf(spec.c_str(), "%d", &lo) == 1)
        return fixed(lo);
    fatal("cannot parse packet size spec: " + spec);
}

int
PacketSizeDist::sample(Rng& rng) const
{
    if (lo_ == hi_)
        return lo_;
    return static_cast<int>(rng.nextRange(lo_, hi_));
}

double
PacketSizeDist::mean() const
{
    return (static_cast<double>(lo_) + static_cast<double>(hi_)) / 2.0;
}

std::string
PacketSizeDist::toString() const
{
    if (lo_ == hi_)
        return std::to_string(lo_);
    return "uniform" + std::to_string(lo_) + "-" + std::to_string(hi_);
}

InjectionSchedule::InjectionSchedule(int slots, double packet_prob,
                                     Rng& rng)
    : slots_(slots), prob_(packet_prob), logOneMinusP_(0.0)
{
    if (slots < 1)
        fatal("injection schedule needs at least one slot");
    if (prob_ < 0.0)
        fatal("injection rate must be non-negative");
    if (prob_ > 1.0)
        prob_ = 1.0;
    if (prob_ > 0.0 && prob_ < 1.0)
        logOneMinusP_ = detLog(1.0 - prob_);
    heap_.reserve(static_cast<std::size_t>(slots));
    // First trial of every slot is at cycle 0, i.e. the gap is
    // measured from a virtual fire at cycle -1.
    for (int slot = 0; slot < slots_; ++slot)
        scheduleNext(slot, -1, rng);
}

int
InjectionSchedule::popDue(std::int64_t cycle)
{
    if (heap_.empty())
        return -1;
    const std::int64_t key = heap_.front();
    const std::int64_t m = static_cast<std::int64_t>(slots_);
    if (key / m != cycle)
        return -1;
    std::pop_heap(heap_.begin(), heap_.end(),
                  std::greater<std::int64_t>());
    heap_.pop_back();
    return static_cast<int>(key % m);
}

void
InjectionSchedule::scheduleNext(int slot, std::int64_t fired_cycle,
                                Rng& rng)
{
    if (prob_ <= 0.0)
        return;
    std::int64_t gap = 1;
    if (prob_ < 1.0) {
        gap = geometricGap(rng.nextDouble(), logOneMinusP_);
        if (gap < 0)
            return; // beyond any reachable cycle: never fires again
    }
    // Guard the packed key cycle*slots+slot against overflow; a fire
    // this far out is unreachable anyway.
    const std::int64_t fire = fired_cycle + gap;
    if (fire > (std::int64_t{1} << 48))
        return;
    push(fire * static_cast<std::int64_t>(slots_) + slot);
}

void
InjectionSchedule::push(std::int64_t key)
{
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(),
                   std::greater<std::int64_t>());
}

} // namespace footprint
