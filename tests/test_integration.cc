/**
 * @file
 * Whole-stack integration tests through the experiment harness: the
 * online estimator must track the SoftArch reference within the
 * paper's error bands, runs must be bit-reproducible, and the
 * utilization baseline must overestimate on dead-value-heavy code.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "harness/experiment.hh"
#include "stats/error_metrics.hh"
#include "stats/running_stats.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace avf;
using namespace avf::core;
using namespace avf::harness;

ExperimentConfig
smallConfig(const std::string &bench, int intervals = 4)
{
    ExperimentConfig conf;
    conf.profile = trace::specProfile(bench);
    conf.online.m = 500;
    conf.online.n = 500; // 250k-cycle estimation intervals
    conf.numIntervals = intervals;
    conf.lookahead = 16'384;
    return conf;
}

TEST(Integration, OnlineTracksSoftArchWithinPaperBands)
{
    auto result = runExperiment(smallConfig("mesa", 4));
    ASSERT_EQ(result.intervals.size(), 4u);

    for (int s = 0; s < numStructures; ++s) {
        auto structure = static_cast<Structure>(s);
        auto online = result.onlineSeries(structure);
        auto reference = result.softarchSeries(structure);
        auto errs = stats::absoluteErrors(online, reference);
        auto summary = stats::summarizeErrors(errs, 0);
        // N = 500 gives sigma <= 0.022; allow truncation effects on
        // top of ~3 sigma.
        EXPECT_LT(summary.mean, 0.08)
            << "structure " << structureName(structure);
        EXPECT_LT(summary.maxAll, 0.15)
            << "structure " << structureName(structure);
    }
}

TEST(Integration, ExperimentIsReproducible)
{
    auto a = runExperiment(smallConfig("bzip2", 2));
    auto b = runExperiment(smallConfig("bzip2", 2));
    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    for (std::size_t k = 0; k < a.intervals.size(); ++k) {
        for (int s = 0; s < numStructures; ++s) {
            EXPECT_DOUBLE_EQ(a.intervals[k].online[s],
                             b.intervals[k].online[s]);
            EXPECT_DOUBLE_EQ(a.intervals[k].softarch[s],
                             b.intervals[k].softarch[s]);
        }
        EXPECT_DOUBLE_EQ(a.intervals[k].utilization[0],
                         b.intervals[k].utilization[0]);
    }
    EXPECT_EQ(a.summary.cycles, b.summary.cycles);
    EXPECT_EQ(a.summary.retired, b.summary.retired);
}

TEST(Integration, UtilizationOverestimatesOnDeadValueCode)
{
    // perlbmk models heavy dead-value production: utilization counts
    // those busy-but-masked cycles, SoftArch does not, and the online
    // estimator must land near SoftArch (the paper's headline
    // comparison).
    auto result = runExperiment(smallConfig("perlbmk", 4));
    ASSERT_GE(result.intervals.size(), 3u);

    stats::RunningStats util, reference, online;
    for (const auto &row : result.intervals) {
        util.add(row.utilization[0]); // FXU
        reference.add(row.softarch[static_cast<int>(Structure::FXU)]);
        online.add(row.online[static_cast<int>(Structure::FXU)]);
    }
    EXPECT_GT(util.mean(), reference.mean() + 0.02);
    EXPECT_LT(std::fabs(online.mean() - reference.mean()),
              std::fabs(util.mean() - reference.mean()));
}

TEST(Integration, FpWorkloadHasHigherFpuAvfThanIntWorkload)
{
    auto fp_result = runExperiment(smallConfig("swim", 2));
    auto int_result = runExperiment(smallConfig("perlbmk", 2));
    double fp_fpu = 0, int_fpu = 0;
    for (const auto &row : fp_result.intervals)
        fp_fpu += row.softarch[static_cast<int>(Structure::FPU)];
    for (const auto &row : int_result.intervals)
        int_fpu += row.softarch[static_cast<int>(Structure::FPU)];
    fp_fpu /= static_cast<double>(fp_result.intervals.size());
    int_fpu /= static_cast<double>(int_result.intervals.size());
    EXPECT_GT(fp_fpu, int_fpu + 0.01);
}

TEST(Integration, SeriesExtractionMatchesRows)
{
    auto result = runExperiment(smallConfig("art", 2));
    auto online = result.onlineSeries(Structure::REG);
    ASSERT_EQ(online.size(), result.intervals.size());
    for (std::size_t k = 0; k < online.size(); ++k)
        EXPECT_DOUBLE_EQ(
            online[k],
            result.intervals[k].online[static_cast<int>(
                Structure::REG)]);
    auto util = result.utilizationSeries(Structure::FPU);
    ASSERT_EQ(util.size(), result.intervals.size());
}

TEST(Integration, SummaryStatisticsAreSane)
{
    auto result = runExperiment(smallConfig("equake", 2));
    EXPECT_GT(result.summary.ipc, 0.1);
    EXPECT_LT(result.summary.ipc, 5.0);
    EXPECT_GT(result.summary.branchAccuracy, 0.5);
    EXPECT_LE(result.summary.branchAccuracy, 1.0);
    EXPECT_GE(result.summary.l1dMissRate, 0.0);
    EXPECT_LE(result.summary.l1dMissRate, 1.0);
    EXPECT_GT(result.summary.cycles, 0u);
}

TEST(Integration, AllBenchmarksRunOneInterval)
{
    for (const auto &name : trace::specBenchmarkNames()) {
        auto conf = smallConfig(name, 1);
        conf.online.m = 250;
        conf.online.n = 200; // 50k-cycle interval: a fast smoke pass
        conf.lookahead = 8192;
        auto result = runExperiment(conf);
        ASSERT_EQ(result.intervals.size(), 1u) << name;
        for (int s = 0; s < numStructures; ++s) {
            EXPECT_GE(result.intervals[0].softarch[s], 0.0) << name;
            EXPECT_LE(result.intervals[0].softarch[s], 1.0) << name;
            EXPECT_GE(result.intervals[0].online[s], 0.0) << name;
            EXPECT_LE(result.intervals[0].online[s], 1.0) << name;
        }
    }
}

} // namespace
