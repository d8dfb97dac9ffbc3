/**
 * @file
 * Unit tests for the perf-subsystem timing utilities: stopwatch
 * monotonicity and accumulation, and per-phase stats merging.
 */

#include <gtest/gtest.h>

#include "util/timing.hh"

namespace
{

using avf::timing::PhaseAccumulator;
using avf::timing::PhaseStats;
using avf::timing::Stopwatch;

TEST(Stopwatch, SteadyClockNeverGoesBackwards)
{
    auto a = avf::timing::steadyNowNs();
    auto b = avf::timing::steadyNowNs();
    EXPECT_GE(b, a);
}

TEST(Stopwatch, ElapsedIsMonotonicWhileRunning)
{
    Stopwatch watch;
    watch.start();
    double last = watch.elapsedNs();
    for (int i = 0; i < 100; ++i) {
        double now = watch.elapsedNs();
        EXPECT_GE(now, last);
        last = now;
    }
    EXPECT_GE(watch.stop(), 0.0);
}

TEST(Stopwatch, AccumulatesAcrossLapsAndResets)
{
    Stopwatch watch;
    EXPECT_FALSE(watch.running());
    EXPECT_EQ(watch.stop(), 0.0); // stop without start is a no-op

    watch.start();
    EXPECT_TRUE(watch.running());
    double lap1 = watch.stop();
    double after_one = watch.elapsedNs();
    EXPECT_DOUBLE_EQ(after_one, lap1);

    watch.start();
    watch.start(); // idempotent while running
    double lap2 = watch.stop();
    EXPECT_DOUBLE_EQ(watch.elapsedNs(), lap1 + lap2);

    watch.reset();
    EXPECT_EQ(watch.elapsedNs(), 0.0);
    EXPECT_FALSE(watch.running());
}

TEST(PhaseStats, MergeCombinesCountsAndExtrema)
{
    PhaseStats a;
    a.name = "simulate";
    a.count = 2;
    a.totalNs = 30.0;
    a.minNs = 10.0;
    a.maxNs = 20.0;

    PhaseStats b;
    b.name = "simulate";
    b.count = 1;
    b.totalNs = 5.0;
    b.minNs = 5.0;
    b.maxNs = 5.0;

    a.merge(b);
    EXPECT_EQ(a.count, 3u);
    EXPECT_DOUBLE_EQ(a.totalNs, 35.0);
    EXPECT_DOUBLE_EQ(a.minNs, 5.0);
    EXPECT_DOUBLE_EQ(a.maxNs, 20.0);
    EXPECT_NEAR(a.meanNs(), 35.0 / 3.0, 1e-12);

    // Merging an empty stats block changes nothing.
    a.merge(PhaseStats{});
    EXPECT_EQ(a.count, 3u);

    // Merging INTO an empty block adopts the extrema rather than
    // treating the zero-initialized min as a real observation.
    PhaseStats empty;
    empty.merge(a);
    EXPECT_DOUBLE_EQ(empty.minNs, 5.0);
    EXPECT_DOUBLE_EQ(empty.maxNs, 20.0);
}

TEST(PhaseAccumulator, AddAndGetKeepFirstUseOrder)
{
    PhaseAccumulator acc;
    acc.add("simulate", 10.0);
    acc.add("finalize", 4.0);
    acc.add("simulate", 6.0);

    ASSERT_EQ(acc.phases().size(), 2u);
    EXPECT_EQ(acc.phases()[0].name, "simulate");
    EXPECT_EQ(acc.phases()[1].name, "finalize");

    auto sim = acc.get("simulate");
    EXPECT_EQ(sim.count, 2u);
    EXPECT_DOUBLE_EQ(sim.totalNs, 16.0);
    EXPECT_DOUBLE_EQ(sim.minNs, 6.0);
    EXPECT_DOUBLE_EQ(sim.maxNs, 10.0);

    EXPECT_EQ(acc.get("missing").count, 0u);
    EXPECT_DOUBLE_EQ(acc.totalNs(), 20.0);
}

TEST(PhaseAccumulator, MergeFoldsWorkerAccumulators)
{
    PhaseAccumulator a;
    a.add("simulate", 10.0);
    a.add("export", 2.0);

    PhaseAccumulator b;
    b.add("simulate", 20.0);
    b.add("fit", 1.0);

    a.merge(b);
    EXPECT_EQ(a.get("simulate").count, 2u);
    EXPECT_DOUBLE_EQ(a.get("simulate").totalNs, 30.0);
    EXPECT_EQ(a.get("export").count, 1u);
    EXPECT_EQ(a.get("fit").count, 1u);
    ASSERT_EQ(a.phases().size(), 3u);
    EXPECT_EQ(a.phases()[2].name, "fit"); // new phases append
}

} // namespace
