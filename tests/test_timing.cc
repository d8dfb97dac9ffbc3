/**
 * @file
 * Unit tests for the perf-subsystem timing utilities: steady-clock
 * monotonicity and the stopwatch's lap contract.
 */

#include <gtest/gtest.h>

#include "util/timing.hh"

namespace
{

TEST(Stopwatch, SteadyClockNeverGoesBackwards)
{
    auto a = avf::timing::steadyNowNs();
    auto b = avf::timing::steadyNowNs();
    EXPECT_GE(b, a);
}

TEST(Stopwatch, StopReturnsTheLapOnce)
{
    avf::timing::Stopwatch watch;
    EXPECT_EQ(watch.stop(), 0.0); // stop without start is a no-op
    watch.start();
    watch.start(); // no-op while running
    EXPECT_GE(watch.stop(), 0.0);
    EXPECT_EQ(watch.stop(), 0.0); // the lap was already returned
}

} // namespace
