/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component (traffic sources, tie-breaking arbiters)
 * draws from its own Rng instance seeded from the experiment seed, so a
 * run is bit-reproducible for a given SimConfig.
 */

#ifndef FOOTPRINT_SIM_RNG_HPP
#define FOOTPRINT_SIM_RNG_HPP

#include <cstdint>

namespace footprint {

/**
 * A small, fast xoshiro256** generator.
 *
 * Chosen over std::mt19937 for speed (it sits on the router critical
 * path for tie-breaking) and for a stable, implementation-independent
 * sequence across standard libraries.
 */
/**
 * One SplitMix64 step: advance @p state and return the next value of
 * the sequence. The mixer behind Rng seeding and per-job seed
 * derivation; exposed so every consumer shares one definition.
 */
std::uint64_t splitmix64Step(std::uint64_t& state);

/**
 * Seed of independent RNG stream @p stream derived from @p base: the
 * @p stream-th element of the SplitMix64 sequence started at @p base.
 * Distinct stream indices yield statistically independent seeds, and
 * the value depends only on (base, stream) — never on which thread or
 * in which order a stream is consumed. This is the determinism anchor
 * of the parallel sweep engine: job k of a sweep always runs with
 * deriveStreamSeed(base_seed, k).
 */
std::uint64_t deriveStreamSeed(std::uint64_t base,
                               std::uint64_t stream);

class Rng
{
  public:
    /** Seed with SplitMix64 expansion of @p seed (any value is fine). */
    explicit Rng(std::uint64_t seed = 1);

    /** @return next raw 64-bit value (one xoshiro256** step). */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** @return uniform integer in [0, bound), bound > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** @return uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** @return uniform double in [0, 1): the top 53 bits of next(). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p. */
    bool nextBool(double p) { return nextDouble() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace footprint

#endif // FOOTPRINT_SIM_RNG_HPP
