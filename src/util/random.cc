#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace avf
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitMix64(sm);
    // xoshiro must not start from the all-zero state.
    if ((s[0] | s[1] | s[2] | s[3]) == 0)
        s[0] = 0x9e3779b97f4a7c15ull;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    avf_assert(bound > 0, "below() requires a positive bound");
    // Lemire's nearly-divisionless bounded draw.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    avf_assert(lo <= hi, "range() requires lo <= hi");
    return lo + static_cast<std::int64_t>(
        below(static_cast<std::uint64_t>(hi - lo) + 1));
}

std::uint64_t
Rng::geometric(double p, std::uint64_t cap)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return cap;
    // Inverse-CDF method.
    if (p != geomP) {
        geomP = p;
        geomLog = std::log1p(-p);
    }
    double u = uniform();
    double draws = std::floor(std::log1p(-u) / geomLog);
    if (draws < 0.0)
        draws = 0.0;
    auto val = static_cast<std::uint64_t>(draws);
    return val > cap ? cap : val;
}

double
Rng::gaussian()
{
    // Irwin-Hall with 12 uniforms: mean 6, variance 1.
    double acc = 0.0;
    for (int i = 0; i < 12; ++i)
        acc += uniform();
    return acc - 6.0;
}

std::uint64_t
hashString(std::string_view str)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : str) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace avf
