#include "sim/rng.hpp"

#include "sim/log.hpp"

namespace footprint {

std::uint64_t
splitmix64Step(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
deriveStreamSeed(std::uint64_t base, std::uint64_t stream)
{
    // Element `stream` of the SplitMix64 sequence seeded at `base`,
    // computed in O(1) by jumping the additive state forward.
    std::uint64_t x = base + stream * 0x9e3779b97f4a7c15ULL;
    return splitmix64Step(x);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto& s : s_)
        s = splitmix64Step(sm);
    // All-zero state is the one invalid state for xoshiro.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    FP_ASSERT(bound > 0, "nextBounded bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    FP_ASSERT(lo <= hi, "nextRange requires lo <= hi");
    return lo + static_cast<std::int64_t>(
        nextBounded(static_cast<std::uint64_t>(hi - lo + 1)));
}

} // namespace footprint
