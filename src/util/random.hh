/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis
 * and randomized-injection experiments.
 *
 * We use xoshiro256** (public domain, Blackman & Vigna) seeded through
 * SplitMix64 so that a single 64-bit seed fully determines a stream.
 * Determinism matters: every experiment in this repository is
 * reproducible from (benchmark name, seed).
 */

#ifndef AVF_UTIL_RANDOM_HH
#define AVF_UTIL_RANDOM_HH

#include <cstdint>
#include <string_view>

namespace avf
{

/**
 * xoshiro256** generator with convenience draws used throughout the
 * workload generators and samplers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Geometric draw: number of failures before first success with
     * success probability p (p clamped to (0,1]); bounded by cap.
     */
    std::uint64_t geometric(double p, std::uint64_t cap = 1u << 20);

    /** Approximately normal draw (sum of uniforms), mean 0, sd 1. */
    double gaussian();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
    /** geometric()'s last p in (0, 1) and its log1p(-p): the trace
     *  generators draw with a handful of fixed probabilities. */
    double geomP = 0.0;
    double geomLog = 0.0;
};

/** Stable 64-bit hash of a string (FNV-1a), for name -> seed mapping. */
std::uint64_t hashString(std::string_view str);

} // namespace avf

#endif // AVF_UTIL_RANDOM_HH
