/**
 * @file
 * Equivalence tests for the word-level fast paths the error-bit
 * propagation optimization leans on: BitVector's bulk operations
 * against a per-bit reference, ErrorPlane against a per-entry
 * reference, and IntervalTicker against the modulo check it
 * replaces. Sizes deliberately straddle the 64-bit word boundary
 * (non-multiples included) so tail-word handling is covered.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/bitvector.hh"
#include "util/error_plane.hh"
#include "util/interval_ticker.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace
{

using avf::BitVector;
using avf::Cycle;
using avf::ErrorMask;
using avf::ErrorPlane;
using avf::IntervalTicker;
using avf::laneBit;
using avf::Rng;

constexpr std::size_t kSizes[] = {1, 7, 63, 64, 65, 100, 128, 129, 412};

/** Deterministic random fill; returns the per-bit reference. */
std::vector<bool>
fillRandom(BitVector &bits, Rng &rng)
{
    std::vector<bool> ref(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        bool value = rng.chance(0.4);
        bits.set(i, value);
        ref[i] = value;
    }
    return ref;
}

void
expectMatches(const BitVector &bits, const std::vector<bool> &ref)
{
    ASSERT_EQ(bits.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(bits.test(i), ref[i]) << "bit " << i;
}

TEST(BitVectorWordOps, OrAndAndNotMatchPerBitReference)
{
    Rng rng(12345);
    for (std::size_t size : kSizes) {
        BitVector a(size), b(size);
        auto ra = fillRandom(a, rng);
        auto rb = fillRandom(b, rng);

        BitVector or_result = a;
        or_result.orWith(b);
        BitVector and_result = a;
        and_result.andWith(b);
        BitVector andnot_result = a;
        andnot_result.andNotWith(b);

        std::vector<bool> or_ref(size), and_ref(size), andnot_ref(size);
        for (std::size_t i = 0; i < size; ++i) {
            or_ref[i] = ra[i] || rb[i];
            and_ref[i] = ra[i] && rb[i];
            andnot_ref[i] = ra[i] && !rb[i];
        }
        expectMatches(or_result, or_ref);
        expectMatches(and_result, and_ref);
        expectMatches(andnot_result, andnot_ref);
    }
}

TEST(BitVectorWordOps, TailBitsPastSizeStayZero)
{
    // The word-level ops rely on bits past size() being zero in the
    // last word; every operation must preserve that invariant.
    for (std::size_t size : {std::size_t{1}, std::size_t{65},
                             std::size_t{100}}) {
        BitVector a(size), b(size);
        for (std::size_t i = 0; i < size; ++i) {
            a.set(i);
            b.set(i);
        }
        a.orWith(b);
        a.andNotWith(b);
        a.orWith(b);
        std::uint64_t tail = a.word(a.numWords() - 1);
        if (size % 64 != 0)
            EXPECT_EQ(tail >> (size % 64), 0u) << "size " << size;
        EXPECT_EQ(a.count(), size);
    }
}

TEST(BitVectorWordOps, ForEachSetVisitsExactlyTheSetBits)
{
    Rng rng(67890);
    for (std::size_t size : kSizes) {
        BitVector bits(size);
        auto ref = fillRandom(bits, rng);

        std::vector<std::size_t> expected;
        for (std::size_t i = 0; i < size; ++i)
            if (ref[i])
                expected.push_back(i);

        std::vector<std::size_t> visited;
        bits.forEachSet([&](std::size_t idx) {
            visited.push_back(idx);
        });
        EXPECT_EQ(visited, expected) << "size " << size;
        EXPECT_EQ(bits.count(), expected.size());
        EXPECT_EQ(bits.none(), expected.empty());
    }
}

TEST(ErrorPlane, MatchesPerEntryReferenceUnderRandomOps)
{
    Rng rng(424242);
    // Assorted sizes, including the real register-file size (412).
    for (std::size_t size : {std::size_t{1}, std::size_t{7},
                             std::size_t{8}, std::size_t{13},
                             std::size_t{412}}) {
        ErrorPlane plane(size);
        std::vector<ErrorMask> ref(size, 0);

        for (int step = 0; step < 2000; ++step) {
            auto idx = static_cast<std::size_t>(rng.below(size));
            // Random 64-bit mask with bits in both word halves.
            ErrorMask mask = rng.next();
            switch (rng.below(4)) {
              case 0:
                plane.orMask(idx, mask);
                ref[idx] |= mask;
                break;
              case 1:
                plane.setMask(idx, mask);
                ref[idx] = mask;
                break;
              case 2:
                plane.clearChannels(mask);
                for (auto &word : ref)
                    word &= ~mask;
                break;
              default:
                EXPECT_EQ(plane.get(idx), ref[idx]);
                break;
            }
        }
        for (std::size_t i = 0; i < size; ++i)
            ASSERT_EQ(plane.get(i), ref[i]) << "entry " << i;
    }
}

TEST(ErrorPlane, LiveMaskIsAConservativeSuperset)
{
    ErrorPlane plane(16);
    EXPECT_EQ(plane.liveMask(), 0u);
    EXPECT_FALSE(plane.maybeLive(~ErrorMask{0}));

    plane.orMask(3, 0x05);
    EXPECT_EQ(plane.liveMask(), 0x05u);
    EXPECT_TRUE(plane.maybeLive(0x01));
    EXPECT_FALSE(plane.maybeLive(0x02));

    // The high lanes participate like the low ones.
    plane.orMask(7, laneBit(63));
    EXPECT_TRUE(plane.maybeLive(laneBit(63)));
    EXPECT_FALSE(plane.maybeLive(laneBit(62)));

    // Overwriting the only carrier with zero may NOT lower the
    // summary (it is a superset, recomputing would defeat the
    // optimization) — but must never undercount.
    plane.setMask(3, 0x00);
    EXPECT_TRUE(plane.maybeLive(0x05));
    EXPECT_EQ(plane.get(3), 0x00u);

    // Only clearChannels retires bits from the summary.
    plane.clearChannels(0x01);
    EXPECT_FALSE(plane.maybeLive(0x01));
    EXPECT_TRUE(plane.maybeLive(0x04));
    plane.clearChannels(~ErrorMask{0});
    EXPECT_EQ(plane.liveMask(), 0u);

    // resize() clears entries and summary alike.
    plane.orMask(0, laneBit(55));
    plane.resize(16);
    EXPECT_EQ(plane.liveMask(), 0u);
    EXPECT_EQ(plane.get(0), 0x00u);
}

TEST(ErrorPlane, ClearChannelsTouchesOnlyTheMaskedChannels)
{
    ErrorPlane plane(9);
    for (std::size_t i = 0; i < 9; ++i)
        plane.setMask(i, ErrorMask{0x1111'1111'1111'1111} * (i % 3));

    plane.clearChannels(laneBit(4) | laneBit(60));
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_EQ(plane.get(i),
                  (ErrorMask{0x1111'1111'1111'1111} * (i % 3)) &
                      ~(laneBit(4) | laneBit(60)))
            << "entry " << i;
}

TEST(IntervalTicker, MatchesModuloReferenceFromCycleZero)
{
    for (Cycle period : {Cycle{1}, Cycle{2}, Cycle{3}, Cycle{64},
                         Cycle{1000}}) {
        for (Cycle phase : {Cycle{0}, Cycle{1}, period - 1,
                            period + 2}) {
            IntervalTicker ticker(period, phase);
            EXPECT_EQ(ticker.period(), period);
            for (Cycle now = 0; now < 4 * period + 3; ++now) {
                EXPECT_EQ(ticker.tick(now),
                          now % period == phase % period)
                    << "period " << period << " phase " << phase
                    << " cycle " << now;
            }
        }
    }
}

TEST(IntervalTicker, FirstTickMayStartMidStream)
{
    // An estimator attached mid-run sees its first onCycle at an
    // arbitrary cycle; the lazy phase computation must stay exact.
    for (Cycle start : {Cycle{1}, Cycle{99}, Cycle{100}, Cycle{101},
                        Cycle{100000007}}) {
        IntervalTicker ticker(100);
        for (Cycle now = start; now < start + 350; ++now)
            EXPECT_EQ(ticker.tick(now), now % 100 == 0)
                << "start " << start << " cycle " << now;
    }
}

TEST(IntervalTicker, SparseCallsMatchModuloReference)
{
    // The wake contract: an observer's onCycle runs on every firing
    // cycle and on arbitrary others. next() must name exactly the
    // next cycle the modulo reference fires on.
    Rng rng(2024);
    for (Cycle period : {Cycle{1}, Cycle{3}, Cycle{64}, Cycle{1000}}) {
        for (Cycle phase : {Cycle{0}, Cycle{1}, period - 1}) {
            for (Cycle start : {Cycle{0}, Cycle{5}, Cycle{100000007}}) {
                auto fires = [&](Cycle c) {
                    return c % period == phase % period;
                };
                auto nextFire = [&](Cycle c) {
                    while (!fires(c))
                        ++c;
                    return c;
                };
                IntervalTicker ticker(period, phase);
                EXPECT_EQ(ticker.next(start), nextFire(start));
                Cycle now = start;
                for (int call = 0; call < 200; ++call) {
                    EXPECT_EQ(ticker.tick(now), fires(now))
                        << "period " << period << " phase " << phase
                        << " cycle " << now;
                    Cycle wake = ticker.next(now);
                    EXPECT_EQ(wake, nextFire(now + 1))
                        << "period " << period << " phase " << phase
                        << " cycle " << now;
                    // Jump to the wake or to any cycle before it.
                    now += 1 + rng.below(wake - now);
                }
            }
        }
    }
}

TEST(IntervalTickerDeathTest, RejectsZeroPeriod)
{
    EXPECT_DEATH(IntervalTicker ticker(0),
                 "ticker period must be positive");
}

} // namespace
