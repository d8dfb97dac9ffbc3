/**
 * @file
 * Tests for the Walcott-style regression baseline: feature
 * extraction sanity (and its exact agreement with the counter
 * baselines), least-squares correctness on synthetic data,
 * ridge behaviour, and the cross-workload degradation the paper
 * predicts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/occupancy_estimator.hh"
#include "core/regression_estimator.hh"
#include "core/utilization_estimator.hh"
#include "cpu/pipeline.hh"
#include "softarch/ace_analyzer.hh"
#include "stats/error_metrics.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

namespace
{

using namespace avf;
using namespace avf::core;
using namespace avf::cpu;

TEST(FeatureCollector, ProducesBoundedFeatures)
{
    trace::SyntheticTraceGenerator gen(trace::specProfile("mesa"));
    Pipeline pipe(CpuConfig{}, gen);
    FeatureCollector collector(pipe, 20'000);
    pipe.addObserver(&collector);
    pipe.run(20'000 * 3);

    ASSERT_EQ(collector.features().size(), 3u);
    for (const auto &row : collector.features()) {
        EXPECT_DOUBLE_EQ(row[0], 1.0); // intercept
        for (int i = 1; i < numRegressionFeatures - 1; ++i) {
            EXPECT_GE(row[static_cast<std::size_t>(i)], 0.0);
            EXPECT_LE(row[static_cast<std::size_t>(i)], 1.0);
        }
        EXPECT_GT(row[8], 0.0); // IPC
        EXPECT_LT(row[8], 8.0);
    }
}

TEST(FeatureCollector, MixFeaturesTrackWorkload)
{
    auto collect = [](const char *bench) {
        trace::SyntheticTraceGenerator gen(
            trace::specProfile(bench));
        Pipeline pipe(CpuConfig{}, gen);
        FeatureCollector collector(pipe, 30'000);
        pipe.addObserver(&collector);
        pipe.run(30'000 * 2);
        return collector.features().back();
    };
    auto fp_heavy = collect("swim");
    auto branchy = collect("perlbmk");
    EXPECT_GT(fp_heavy[4], branchy[4]); // FPU utilization feature
    EXPECT_GT(branchy[7], fp_heavy[7]); // branch-fraction feature
}

TEST(FeatureCollector, CounterBaselinesEqualTheirColumnsBitForBit)
{
    // Two independent implementations of one ratio: the counter
    // baselines and the collector's utilization and occupancy
    // columns must agree exactly, not just closely.
    trace::SyntheticTraceGenerator gen(trace::specProfile("swim"));
    Pipeline pipe(CpuConfig{}, gen);
    const Cycle interval = 7'000;
    UtilizationEstimator fxu(pipe, FuClass::Fxu, interval);
    UtilizationEstimator fpu(pipe, FuClass::Fpu, interval);
    OccupancyEstimator occupancy(pipe, interval);
    FeatureCollector collector(pipe, interval);
    for (PipelineObserver *obs : std::vector<PipelineObserver *>{
             &fxu, &fpu, &occupancy, &collector})
        pipe.addObserver(obs);
    pipe.run(interval * 6 + 123);

    const auto &rows = collector.features();
    ASSERT_EQ(rows.size(), 6u);
    for (const CounterBaseline *est :
         std::vector<const CounterBaseline *>{&fxu, &fpu, &occupancy})
        ASSERT_EQ(est->estimates().size(), rows.size()) << est->name();
    for (std::size_t k = 0; k < rows.size(); ++k) {
        EXPECT_GT(rows[k][1], 0.0);
        EXPECT_GT(rows[k][3], 0.0);
        EXPECT_GT(rows[k][4], 0.0);
        EXPECT_EQ(occupancy.estimates()[k], rows[k][1]) << k;
        EXPECT_EQ(fxu.estimates()[k], rows[k][3]) << k;
        EXPECT_EQ(fpu.estimates()[k], rows[k][4]) << k;
    }
}

TEST(LinearAvfModel, RecoversKnownLinearRelation)
{
    // y = 0.2 + 0.5 * x1 + 0.2 * x2: exactly representable, and the
    // targets stay inside [0, 1] so the prediction clamp is inert.
    Rng rng(4242);
    std::vector<FeatureVector> xs;
    std::vector<double> ys;
    for (int i = 0; i < 200; ++i) {
        FeatureVector row{};
        row[0] = 1.0;
        row[1] = rng.uniform();
        row[2] = rng.uniform();
        xs.push_back(row);
        ys.push_back(0.2 + 0.5 * row[1] + 0.2 * row[2]);
    }
    LinearAvfModel model;
    model.fit(xs, ys, 1e-9);
    EXPECT_TRUE(model.trained());
    EXPECT_NEAR(model.weights()[0], 0.2, 1e-5);
    EXPECT_NEAR(model.weights()[1], 0.5, 1e-5);
    EXPECT_NEAR(model.weights()[2], 0.2, 1e-5);
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_NEAR(model.predict(xs[i]), ys[i], 1e-5);
}

TEST(LinearAvfModel, PredictionsClampToUnitInterval)
{
    std::vector<FeatureVector> xs(10);
    std::vector<double> ys(10);
    for (int i = 0; i < 10; ++i) {
        xs[static_cast<std::size_t>(i)][0] = 1.0;
        xs[static_cast<std::size_t>(i)][1] = i;
        ys[static_cast<std::size_t>(i)] = 0.1 * i; // slope 0.1
    }
    LinearAvfModel model;
    model.fit(xs, ys, 1e-9);
    FeatureVector big{};
    big[0] = 1.0;
    big[1] = 1000.0;
    EXPECT_DOUBLE_EQ(model.predict(big), 1.0);
    FeatureVector negative{};
    negative[0] = 1.0;
    negative[1] = -1000.0;
    EXPECT_DOUBLE_EQ(model.predict(negative), 0.0);
}

TEST(LinearAvfModel, DegenerateFeaturesSurviveViaRidge)
{
    // All rows identical: rank-1 design matrix, solvable only
    // because of the ridge term.
    std::vector<FeatureVector> xs(5);
    std::vector<double> ys(5, 0.3);
    for (auto &row : xs) {
        row[0] = 1.0;
        row[1] = 0.5;
    }
    LinearAvfModel model;
    model.fit(xs, ys, 1e-4);
    EXPECT_NEAR(model.predict(xs[0]), 0.3, 0.01);
}

TEST(LinearAvfModel, GuardsMisuse)
{
    LinearAvfModel model;
    FeatureVector row{};
    EXPECT_DEATH(model.predict(row), "before fit");
    std::vector<FeatureVector> xs(2);
    std::vector<double> ys(3);
    EXPECT_DEATH(model.fit(xs, ys), "mismatch");
    EXPECT_DEATH(model.fit({}, {}), "zero samples");
}

TEST(Regression, TrainedOnOneWorkloadDegradesOnAnother)
{
    // The paper's Section 2 concern, in miniature: calibrate on an
    // integer benchmark, apply to an FP benchmark.
    auto collect = [](const char *bench, int intervals) {
        trace::SyntheticTraceGenerator gen(
            trace::specProfile(bench));
        Pipeline pipe(CpuConfig{}, gen);
        const Cycle interval = 100'000;
        FeatureCollector features(pipe, interval);
        softarch::SoftArchConfig sa{interval, 20'000};
        softarch::AceAnalyzer reference(pipe, sa);
        pipe.addObserver(&features);
        pipe.addObserver(&reference);
        pipe.run(interval * static_cast<Cycle>(intervals) + 25'000);
        reference.finalizeAll(
            static_cast<std::size_t>(intervals - 1));
        std::vector<double> refs;
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(intervals) &&
             k < reference.results().size();
             ++k)
            refs.push_back(
                reference.results()[k][Structure::IQ]);
        auto rows = features.features();
        rows.resize(refs.size());
        return std::make_pair(rows, refs);
    };

    auto [train_x, train_y] = collect("bzip2", 8);
    auto [test_x, test_y] = collect("sixtrack", 8);

    LinearAvfModel model;
    model.fit(train_x, train_y);

    auto train_err = stats::summarizeErrors(stats::absoluteErrors(
        model.predictSeries(train_x), train_y));
    auto test_err = stats::summarizeErrors(stats::absoluteErrors(
        model.predictSeries(test_x), test_y));
    EXPECT_LT(train_err.mean, 0.03);
    EXPECT_GT(test_err.mean, train_err.mean);
}

} // namespace
