/**
 * @file
 * Equivalence tests for the fast paths the error-bit propagation
 * optimization leans on: ErrorPlane against a per-entry reference,
 * and IntervalTicker against the modulo check it replaces.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/error_plane.hh"
#include "util/interval_ticker.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace
{

using avf::Cycle;
using avf::ErrorMask;
using avf::ErrorPlane;
using avf::IntervalTicker;
using avf::laneBit;
using avf::Rng;

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
