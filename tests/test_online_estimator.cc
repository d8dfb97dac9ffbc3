/**
 * @file
 * Tests for the online estimator (Algorithm 1) and the propagation
 * probe: injection cadence, estimate production, sensitivity to
 * dead-value masking (the effect utilization cannot see), randomized
 * vs fixed injection timing, and probe delay collection.
 */

#include <gtest/gtest.h>

#include "core/injection_port.hh"
#include "core/online_estimator.hh"
#include "core/propagation_probe.hh"
#include "cpu/pipeline.hh"
#include "test_helpers.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;
using namespace avf::core;
using namespace avf::cpu;

/** A simple all-integer profile with controllable deadness. */
trace::WorkloadProfile
intProfile(double dead_frac, const char *name)
{
    trace::WorkloadProfile prof;
    prof.name = name;
    prof.base.fpFrac = 0.0;
    prof.base.fpLoadFrac = 0.0;
    prof.base.loadFrac = 0.2;
    prof.base.storeFrac = 0.15;
    prof.base.branchFrac = 0.08;
    prof.base.deadFrac = dead_frac;
    prof.base.footprint = 64 * 1024;
    return prof;
}

TEST(OnlineEstimator, ProducesOneEstimatePerNWindows)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "cadence"));
    Pipeline pipe(CpuConfig{}, gen);
    OnlineConfig conf;
    conf.m = 10;
    conf.n = 20;
    InjectionPort port(pipe);
    pipe.addObserver(&port);
    OnlineAvfEstimator est(pipe, Structure::REG, conf, &port);
    pipe.addObserver(&est);

    pipe.run(10 * 20 * 5 + 15); // five full estimates plus slack
    EXPECT_EQ(est.estimates().size(), 5u);
    for (double v : est.estimates()) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(OnlineEstimator, InjectionCountTracksWindows)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "count"));
    Pipeline pipe(CpuConfig{}, gen);
    OnlineConfig conf;
    conf.m = 25;
    conf.n = 1000; // never completes an estimate in this run
    InjectionPort port(pipe);
    pipe.addObserver(&port);
    OnlineAvfEstimator est(pipe, Structure::IQ, conf, &port);
    pipe.addObserver(&est);

    pipe.run(1000);
    // Boundaries at 0, 25, 50, ... : one injection per window.
    EXPECT_GE(est.totalInjections(), 39u);
    EXPECT_LE(est.totalInjections(), 41u);
    EXPECT_TRUE(est.estimates().empty());
    EXPECT_LE(est.failuresSoFar(), est.injectionsSoFar());
}

TEST(OnlineEstimator, DeadValuesSuppressFxuAvf)
{
    // Same machine, same mix, but one workload produces only dead
    // compute results: the online estimate must collapse while
    // utilization stays up. This is the paper's core argument against
    // the utilization proxy.
    auto run_fxu = [](double dead_frac) {
        trace::SyntheticTraceGenerator gen(
            intProfile(dead_frac, "fxu-dead"));
        Pipeline pipe(CpuConfig{}, gen);
        OnlineConfig conf;
        conf.m = 100;
        conf.n = 400;
        InjectionPort port(pipe);
        pipe.addObserver(&port);
        OnlineAvfEstimator est(pipe, Structure::FXU, conf, &port);
        pipe.addObserver(&est);
        pipe.run(100 * 400 * 2 + 150);
        double sum = 0;
        for (double v : est.estimates())
            sum += v;
        return sum / static_cast<double>(est.estimates().size());
    };

    double live = run_fxu(0.0);
    double dead = run_fxu(1.0);
    EXPECT_LT(dead, 0.05);
    EXPECT_GT(live, dead + 0.05);
}

TEST(OnlineEstimator, DeadValuesSuppressRegAvf)
{
    auto run_reg = [](double dead_frac) {
        trace::SyntheticTraceGenerator gen(
            intProfile(dead_frac, "reg-dead"));
        Pipeline pipe(CpuConfig{}, gen);
        OnlineConfig conf;
        // Register-file errors can take hundreds of cycles to reach a
        // failure point (Figure 2), so the window must be paper-scale.
        conf.m = 500;
        conf.n = 400;
        InjectionPort port(pipe);
        pipe.addObserver(&port);
        OnlineAvfEstimator est(pipe, Structure::REG, conf, &port);
        pipe.addObserver(&est);
        pipe.run(500 * 400 * 2 + 550);
        double sum = 0;
        for (double v : est.estimates())
            sum += v;
        return sum / static_cast<double>(est.estimates().size());
    };

    // The long-lived pointer registers stay ACE in both runs (real
    // programs always re-read those), so the dead run keeps a small
    // floor; the pool-value contribution must still separate them.
    double live = run_reg(0.0);
    double dead = run_reg(1.0);
    EXPECT_GT(live, dead + 0.02);
    EXPECT_LT(dead, 0.15);
}

TEST(OnlineEstimator, FourChannelsCoexist)
{
    trace::SyntheticTraceGenerator gen(
        trace::specProfile("mesa"));
    Pipeline pipe(CpuConfig{}, gen);
    OnlineConfig conf;
    conf.m = 100;
    conf.n = 100;
    InjectionPort port(pipe);
    pipe.addObserver(&port);
    std::vector<std::unique_ptr<OnlineAvfEstimator>> ests;
    for (int s = 0; s < numStructures; ++s) {
        ests.push_back(std::make_unique<OnlineAvfEstimator>(
            pipe, static_cast<Structure>(s), conf, &port));
        pipe.addObserver(ests.back().get());
    }
    pipe.run(100 * 100 * 2 + 150);
    for (auto &est : ests) {
        ASSERT_GE(est->estimates().size(), 2u)
            << structureName(est->structure());
        for (double v : est->estimates()) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
}

TEST(OnlineEstimator, RandomizedTimingAgreesWithFixed)
{
    auto run_mode = [](bool randomize) {
        trace::SyntheticTraceGenerator gen(
            intProfile(0.2, "timing"));
        Pipeline pipe(CpuConfig{}, gen);
        OnlineConfig conf;
        conf.m = 50;
        conf.n = 2000;
        conf.randomizeInjectionTiming = randomize;
        InjectionPort port(pipe);
        pipe.addObserver(&port);
        OnlineAvfEstimator est(pipe, Structure::REG, conf, &port);
        pipe.addObserver(&est);
        pipe.run(50 * 2000 + 100);
        return est.estimates().empty() ? -1.0 : est.estimates()[0];
    };
    double fixed = run_mode(false);
    double randomized = run_mode(true);
    ASSERT_GE(fixed, 0.0);
    ASSERT_GE(randomized, 0.0);
    // Two estimators of the same quantity: agreement within combined
    // statistical error (~3 * 0.5/sqrt(2000) ~ 0.034).
    EXPECT_NEAR(fixed, randomized, 0.05);
}

TEST(OnlineEstimator, RejectsZeroParameters)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "bad"));
    Pipeline pipe(CpuConfig{}, gen);
    InjectionPort port(pipe);
    OnlineConfig conf;
    conf.m = 0;
    EXPECT_DEATH(OnlineAvfEstimator(pipe, Structure::REG, conf, &port),
                 "window length");
}

TEST(OnlineEstimator, RequiresAnInjectionPort)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "portless"));
    Pipeline pipe(CpuConfig{}, gen);
    EXPECT_DEATH(OnlineAvfEstimator(pipe, Structure::REG, OnlineConfig{},
                                    nullptr),
                 "needs an injection port");
}

TEST(PropagationProbe, CollectsDelays)
{
    trace::SyntheticTraceGenerator gen(
        trace::specProfile("bzip2"));
    Pipeline pipe(CpuConfig{}, gen);
    ProbeConfig conf;
    conf.maxWait = 2'500;
    conf.targetSamples = 120;
    InjectionPort port(pipe);
    pipe.addObserver(&port);
    PropagationProbe probe(pipe, port, Structure::REG, conf);
    pipe.addObserver(&probe);

    pipe.run(6'000'000);
    ASSERT_TRUE(probe.finished());
    EXPECT_GE(probe.injectionCount(),
              probe.delays().size() + probe.maskedCount());
    for (double d : probe.delays()) {
        EXPECT_GT(d, 0.0);
        EXPECT_LE(d, 2'500.0);
    }
}

TEST(PropagationProbe, FxuDelaysAreShortOnBusyMachine)
{
    // Errors injected into a busy FXU are carried by an in-flight op
    // and typically surface within a few hundred cycles (Figure 2
    // shows FXU propagation is faster than register-file
    // propagation).
    trace::SyntheticTraceGenerator gen(
        trace::specProfile("bzip2"));
    Pipeline pipe(CpuConfig{}, gen);
    ProbeConfig conf;
    conf.maxWait = 2'500;
    conf.targetSamples = 150;
    InjectionPort port(pipe);
    pipe.addObserver(&port);
    PropagationProbe probe(pipe, port, Structure::FXU, conf);
    pipe.addObserver(&probe);
    pipe.run(5'000'000);

    ASSERT_GE(probe.delays().size(), 100u);
    // Median delay is small.
    auto delays = probe.delays();
    std::sort(delays.begin(), delays.end());
    EXPECT_LT(delays[delays.size() / 2], 1000.0);
}

} // namespace
