/**
 * @file
 * Unit tests for the util library: PRNG determinism and statistical
 * sanity, bit vector behaviour, string hashing, and command-line
 * counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

#include "trace/spec_profiles.hh"
#include "util/bitvector.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace
{

using avf::BitVector;
using avf::isQuiet;
using avf::LogLevel;
using avf::logLevel;
using avf::parseCount;
using avf::parseLogLevel;
using avf::Rng;
using avf::setLogLevel;
using avf::setQuiet;

// avf_assert accepts a bare condition, a plain message, and a
// printf-style message — all pedantic-clean via __VA_OPT__.
TEST(Logging, AvfAssertPassesQuietlyInEveryArity)
{
    avf_assert(1 + 1 == 2);
    avf_assert(2 + 2 == 4, "arithmetic holds");
    avf_assert(3 + 3 == 6, "arithmetic holds: %d", 6);
}

TEST(LoggingDeathTest, AvfAssertWithoutMessageStillPanics)
{
    EXPECT_DEATH(avf_assert(1 == 2),
                 "assertion '1 == 2' failed");
}

TEST(LoggingDeathTest, AvfAssertFormatsMessage)
{
    EXPECT_DEATH(avf_assert(false, "value was %d", 41),
                 "value was 41");
}

TEST(LoggingDeathTest, AvfAssertPrintsAPercentInTheConditionVerbatim)
{
    // The stringized condition is text, never a printf format.
    EXPECT_DEATH(avf_assert(std::strlen("%s%s%s%s") == 0),
                 "assertion 'std::strlen\\(\"%s%s%s%s\"\\) == 0' failed");
    EXPECT_DEATH(avf_assert(7 % 4 == 0, "remainder %d", 7 % 4),
                 "assertion '7 % 4 == 0' failed at .*: remainder 3");
}

TEST(Logging, LevelsMapOntoQuietSwitch)
{
    setLogLevel(LogLevel::Error);
    EXPECT_TRUE(isQuiet());
    EXPECT_EQ(logLevel(), LogLevel::Error);
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
    EXPECT_EQ(logLevel(), LogLevel::Info);
    setLogLevel(LogLevel::Debug);
    EXPECT_FALSE(isQuiet());
    setQuiet(false); // restore the suite default
}

TEST(Logging, ParsesEveryLevelName)
{
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
}

TEST(LoggingDeathTest, RejectsJunkLogLevel)
{
    // AVF_LOG_LEVEL goes through the same parser: junk is a fatal
    // config error, not a silent default.
    EXPECT_DEATH(parseLogLevel("verbose"), "not a log level");
    EXPECT_DEATH(parseLogLevel("INFO"), "not a log level");
}

// A count is all decimal digits inside its range. Anything else is a
// usage error named on stderr — not atoi's silent 0, a silently
// accepted prefix, or a value cut to size by a later cast.
TEST(ParseCount, RejectsAnythingButAnInRangeNumber)
{
    for (const char *bad : {"abc", "8x", "99999999999", "", "-1", "+5",
                            " 5", "5 ", "0", "0x10",
                            "99999999999999999999999"}) {
        std::uint64_t out = 7;
        testing::internal::CaptureStderr();
        EXPECT_FALSE(parseCount("prog", "intervals", bad, 1, INT_MAX, out))
            << bad;
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(err, "prog: intervals wants an integer in 1..2147483647"
                       ", got '" + std::string(bad) + "'\n");
        EXPECT_EQ(out, 7u) << bad;
    }
    std::uint64_t out = 0;
    EXPECT_TRUE(parseCount("prog", "intervals", "8", 1, INT_MAX, out));
    EXPECT_EQ(out, 8u);
    EXPECT_TRUE(parseCount("prog", "intervals", "2147483647", 1, INT_MAX,
                           out));
    EXPECT_EQ(out, 2147483647u);
    EXPECT_TRUE(parseCount("prog", "--m", "18446744073709551615", 0,
                           UINT64_MAX, out));
    EXPECT_EQ(out, UINT64_MAX);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedStillWorks)
{
    Rng rng(0);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(rng.next());
    EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowIsBoundedAndRoughlyUniform)
{
    Rng rng(11);
    constexpr std::uint64_t bound = 10;
    std::uint64_t counts[bound] = {};
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t v = rng.below(bound);
        ASSERT_LT(v, bound);
        ++counts[v];
    }
    for (auto c : counts)
        EXPECT_NEAR(static_cast<double>(c), 10000.0, 600.0);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatchesTheory)
{
    Rng rng(23);
    double p = 0.25;
    double sum = 0.0;
    int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // E[failures before success] = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricRespectsCap)
{
    Rng rng(29);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(rng.geometric(0.001, 5), 5u);
}

/** Reference geometric draw: the log1p inverse CDF on @p draw. */
std::uint64_t
formulaGeometric(std::uint64_t draw, double p, std::uint64_t cap)
{
    const double u = static_cast<double>(draw) * 0x1.0p-53;
    const double value = std::floor(std::log1p(-u) / std::log1p(-p));
    if (!(value < 0x1.0p64))
        return cap;
    if (value < 0.0)
        return 0;
    const auto val = static_cast<std::uint64_t>(value);
    return val > cap ? cap : val;
}

/** Every depRecency the shipped profiles use, plus the extremes. */
std::vector<double>
geometricProbabilities()
{
    std::vector<double> ps = {0.001, 0.25, 0.999};
    for (const std::string &name : avf::trace::specBenchmarkNames()) {
        const auto profile = avf::trace::specProfile(name);
        ps.push_back(profile.base.depRecency);
        for (const auto &phase : profile.phases)
            ps.push_back(phase.params.depRecency);
    }
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    return ps;
}

// The table lookup is an exact stand-in for the formula: the same
// value for every draw, at the synthetic generator's caps and at the
// default one, where values run past the table.
TEST(Rng, GeometricTableMatchesTheFormula)
{
    for (double p : geometricProbabilities()) {
        Rng table(37);
        Rng raw(37);
        for (int i = 0; i < 1'000'000; ++i) {
            const std::uint64_t cap =
                i % 4 == 0 ? std::uint64_t{1} << 20
                           : static_cast<std::uint64_t>(i % 48);
            const std::uint64_t want =
                formulaGeometric(raw.next() >> 11, p, cap);
            const std::uint64_t got = table.geometric(p, cap);
            if (got != want) {
                ADD_FAILURE() << "p " << p << " draw " << i << ": "
                              << got << " != " << want;
                break;
            }
        }
    }
}

// At each value's least draw (found on the formula), one draw either
// side of it, and at and just past the guard band's edges.
TEST(Rng, GeometricTableMatchesTheFormulaAtThresholds)
{
    constexpr std::uint64_t draws = std::uint64_t{1} << 53;
    constexpr auto guard = static_cast<std::int64_t>(Rng::geometricGuard);
    for (double p : geometricProbabilities()) {
        Rng rng(41);
        std::uint64_t lo = 0;
        for (std::uint64_t v = 1; v <= 80; ++v) {
            std::uint64_t hi = draws;
            while (lo < hi) {
                const std::uint64_t mid = lo + (hi - lo) / 2;
                if (formulaGeometric(mid, p, ~std::uint64_t{0}) >= v)
                    hi = mid;
                else
                    lo = mid + 1;
            }
            if (lo == draws)
                break;
            for (std::int64_t d : {-guard - 1, -guard, -1L, 0L, 1L, guard,
                                   guard + 1}) {
                const auto at = static_cast<std::int64_t>(lo) + d;
                if (at < 0 || at >= static_cast<std::int64_t>(draws))
                    continue;
                const auto draw = static_cast<std::uint64_t>(at);
                for (std::uint64_t cap :
                     {v - 1, v, v + 1, std::uint64_t{1} << 20})
                    EXPECT_EQ(rng.geometricFromDraw(draw, p, cap),
                              formulaGeometric(draw, p, cap))
                        << "p " << p << " v " << v << " d " << d
                        << " cap " << cap;
            }
        }
    }
}

// A vanishing p puts the formula's value far past any uint64_t (or at
// inf): the draw is the cap, not an undefined conversion.
TEST(Rng, GeometricOfAVanishingPIsTheCap)
{
    Rng rng(43);
    for (double p : {1e-300, 1e-320, 4.9e-324}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_EQ(rng.geometric(p, 47), 47u);
            EXPECT_EQ(rng.geometric(p), 1u << 20);
        }
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(31);
    double sum = 0.0, sq = 0.0;
    int n = 50000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(HashString, StableAndDistinct)
{
    EXPECT_EQ(avf::hashString("mesa"), avf::hashString("mesa"));
    EXPECT_NE(avf::hashString("mesa"), avf::hashString("ammp"));
    EXPECT_NE(avf::hashString(""), avf::hashString("a"));
}

TEST(BitVector, SetTestReset)
{
    BitVector bits(130);
    EXPECT_EQ(bits.size(), 130u);
    EXPECT_TRUE(bits.none());
    bits.set(0);
    bits.set(64);
    bits.set(129);
    EXPECT_TRUE(bits.test(0));
    EXPECT_TRUE(bits.test(64));
    EXPECT_TRUE(bits.test(129));
    EXPECT_FALSE(bits.test(1));
    EXPECT_EQ(bits.count(), 3u);
    bits.reset(64);
    EXPECT_FALSE(bits.test(64));
    EXPECT_EQ(bits.count(), 2u);
}

TEST(BitVector, ClearAll)
{
    BitVector bits(100);
    for (std::size_t i = 0; i < 100; i += 3)
        bits.set(i);
    EXPECT_FALSE(bits.none());
    bits.clearAll();
    EXPECT_TRUE(bits.none());
    EXPECT_EQ(bits.count(), 0u);
}




} // namespace
