/**
 * @file
 * Tests for the closed control loop: the dispatch-throttle knob, the
 * ControlFeed publication path (including the delayed-error-reporting
 * regime), the ThrottleController's hysteresis and transition-only
 * actuation, MTTF-budget arbitration across structures, and the
 * campaign determinism contract with the controller active.
 * Labelled `control`:
 *   ctest --test-dir build -L control
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "control/throttle_controller.hh"
#include "core/avf_estimator.hh"
#include "core/structures.hh"
#include "cpu/pipeline.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "obs/control_feed.hh"
#include "reliability/budget_arbiter.hh"
#include "reliability/fit_model.hh"
#include "softarch/ace_analyzer.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;
using namespace avf::cpu;
using core::Structure;

// ---------------------------------------------------------------- //
// Test doubles                                                      //
// ---------------------------------------------------------------- //

/**
 * Scripted estimator: tests append per-interval values directly, so
 * the feed/controller chain can be driven without running a pipeline.
 */
class FakeEstimator : public core::AvfEstimator
{
  public:
    std::string name() const override { return "fake:iq"; }
    const std::vector<double> &estimates() const override
    {
        return values;
    }
    core::EstimatorState snapshotState() const override
    {
        core::EstimatorState state;
        state.name = name();
        state.estimates = values;
        return state;
    }

    std::vector<double> values;
};

/** A pipeline (never run), a feed, and a scripted IQ source. */
struct ControlRig
{
    explicit ControlRig(Cycle latency = 0)
        : gen(trace::specProfile("mesa")), pipe(CpuConfig{}, gen),
          feed(latency)
    {
    }

    trace::SyntheticTraceGenerator gen;
    Pipeline pipe;
    obs::ControlFeed feed;
    FakeEstimator iq;
};

/** Threshold policy with a last-value predictor (alpha = 1). */
control::ThrottleConfig
lastValuePolicy(double engage, double release)
{
    control::ThrottleConfig policy;
    policy.engageThreshold = engage;
    policy.releaseThreshold = release;
    policy.predictorAlpha = 1.0;
    return policy;
}

/** SOFR model fixture: IQ 1 FIT, REG 2 FIT, FXU 10 FIT at AVF 1. */
reliability::FitModelConfig
tinyModel()
{
    reliability::FitModelConfig conf;
    conf.rawFitPerBit = 0.01;
    conf.structures = {
        {Structure::IQ, 100.0, 0.0},
        {Structure::REG, 200.0, 0.0},
        {Structure::FXU, 1000.0, 0.0},
    };
    return conf;
}

std::array<double, core::numStructures>
avfRow(double iq, double reg, double fxu = 0.0)
{
    std::array<double, core::numStructures> avf{};
    avf[static_cast<int>(Structure::IQ)] = iq;
    avf[static_cast<int>(Structure::REG)] = reg;
    avf[static_cast<int>(Structure::FXU)] = fxu;
    return avf;
}

// ---------------------------------------------------------------- //
// The dispatch-throttle actuator                                    //
// ---------------------------------------------------------------- //

TEST(DispatchThrottle, CapsDispatchWidth)
{
    CpuConfig conf;
    trace::SyntheticTraceGenerator gen(
        trace::specProfile("sixtrack"));
    Pipeline pipe(conf, gen);
    EXPECT_EQ(pipe.effectiveDispatchWidth(), conf.dispatchWidth);
    pipe.setDispatchThrottle(2);
    EXPECT_EQ(pipe.effectiveDispatchWidth(), 2);
    pipe.setDispatchThrottle(0);
    EXPECT_EQ(pipe.effectiveDispatchWidth(), conf.dispatchWidth);
    // A cap above the configured width is a no-op.
    pipe.setDispatchThrottle(50);
    EXPECT_EQ(pipe.effectiveDispatchWidth(), conf.dispatchWidth);
}

TEST(DispatchThrottle, ReducesThroughput)
{
    auto run_ipc = [](int throttle) {
        trace::SyntheticTraceGenerator gen(
            trace::specProfile("sixtrack"));
        Pipeline pipe(CpuConfig{}, gen);
        if (throttle)
            pipe.setDispatchThrottle(throttle);
        pipe.run(50'000);
        return pipe.stats().ipc();
    };
    double full = run_ipc(0);
    double throttled = run_ipc(1);
    EXPECT_LT(throttled, full);
    EXPECT_GT(throttled, 0.0);
}

TEST(DispatchThrottle, ReducesIqAvf)
{
    // The vulnerability-reduction mechanism itself: throttled
    // dispatch keeps fewer ACE instruction-cycles in the queue.
    auto run_avf = [](int throttle) {
        trace::SyntheticTraceGenerator gen(
            trace::specProfile("mesa"));
        Pipeline pipe(CpuConfig{}, gen);
        if (throttle)
            pipe.setDispatchThrottle(throttle);
        softarch::SoftArchConfig sa{100'000, 20'000};
        softarch::AceAnalyzer analyzer(pipe, sa);
        pipe.addObserver(&analyzer);
        pipe.run(100'000 * 3 + 25'000);
        analyzer.finalizeAll(2);
        double sum = 0;
        for (const auto &row : analyzer.results())
            sum += row[Structure::IQ];
        return sum / static_cast<double>(analyzer.results().size());
    };
    double full = run_avf(0);
    double throttled = run_avf(1);
    EXPECT_LT(throttled, full - 0.01);
}

// ---------------------------------------------------------------- //
// ControlFeed: publication into the metrics series                  //
// ---------------------------------------------------------------- //

TEST(ControlFeed, PublishesEstimatesIntoMetricsSeries)
{
    ControlRig rig;
    rig.feed.attachAvf(Structure::IQ, rig.iq);
    EXPECT_TRUE(rig.feed.hasAvf(Structure::IQ));
    EXPECT_FALSE(rig.feed.hasAvf(Structure::REG));
    EXPECT_EQ(rig.feed.rows(), 0u);

    rig.iq.values = {0.25, 0.5};
    rig.feed.onCycle(7);
    ASSERT_EQ(rig.feed.rows(), 2u);
    EXPECT_DOUBLE_EQ(rig.feed.avfSeries(Structure::IQ)[0], 0.25);
    EXPECT_DOUBLE_EQ(rig.feed.avfSeries(Structure::IQ)[1], 0.5);

    // The published rows live in the same storage METRICS.json
    // serializes, under the structure-derived series name.
    auto snap = rig.feed.shard().snapshot();
    const auto *series = snap.findSeries("control_iq_avf");
    ASSERT_NE(series, nullptr);
    EXPECT_EQ(*series, rig.feed.avfSeries(Structure::IQ));
}

TEST(ControlFeed, ReportLatencyDelaysVisibility)
{
    ControlRig rig(10);
    rig.feed.attachAvf(Structure::IQ, rig.iq);
    EXPECT_EQ(rig.feed.reportLatency(), 10u);

    rig.iq.values = {0.5};
    rig.feed.onCycle(100); // staged, due at cycle 110
    EXPECT_EQ(rig.feed.rows(), 0u);
    rig.feed.onCycle(109);
    EXPECT_EQ(rig.feed.rows(), 0u);
    rig.feed.onCycle(110);
    ASSERT_EQ(rig.feed.rows(), 1u);
    EXPECT_DOUBLE_EQ(rig.feed.avfSeries(Structure::IQ)[0], 0.5);
}

TEST(ControlFeed, RowsAreMinAcrossAttachedStructures)
{
    ControlRig rig;
    FakeEstimator reg;
    rig.feed.attachAvf(Structure::IQ, rig.iq);
    rig.feed.attachAvf(Structure::REG, reg);

    rig.iq.values = {0.1, 0.2};
    reg.values = {0.3};
    rig.feed.onCycle(1);
    // Only one complete per-structure row exists.
    EXPECT_EQ(rig.feed.rows(), 1u);

    reg.values.push_back(0.4);
    rig.feed.onCycle(2);
    EXPECT_EQ(rig.feed.rows(), 2u);
}

// ---------------------------------------------------------------- //
// ThrottleController: threshold mode                                //
// ---------------------------------------------------------------- //

TEST(ThrottleController, ConsumesEveryPublishedRowNotJustTheNewest)
{
    // Regression: the controller used to look at only the newest
    // estimate per cycle, silently skipping any backlog (several rows
    // land in one cycle when reporting latency releases them
    // together). Both rows here are decision points.
    ControlRig rig;
    rig.feed.attachAvf(Structure::IQ, rig.iq);
    control::ThrottleController controller(
        rig.pipe, rig.feed, lastValuePolicy(0.5, 0.4));

    rig.iq.values = {0.9, 0.1}; // both published in the same cycle
    rig.feed.onCycle(1);
    controller.onCycle(1);

    EXPECT_EQ(controller.intervals(), 2u);
    ASSERT_EQ(controller.decisions().size(), 2u);
    EXPECT_TRUE(controller.decisions()[0]);  // 0.9 engages
    EXPECT_FALSE(controller.decisions()[1]); // 0.1 releases
    // A newest-row-only controller would have seen just 0.1 and
    // never engaged at all.
    EXPECT_EQ(controller.engagements(), 1u);
}

TEST(ThrottleController, ActuatesOnlyOnDecisionTransitions)
{
    ControlRig rig;
    rig.feed.attachAvf(Structure::IQ, rig.iq);
    control::ThrottleConfig policy = lastValuePolicy(0.5, 0.4);
    control::ThrottleController controller(rig.pipe, rig.feed,
                                           policy);

    Cycle now = 0;
    for (double avf : {0.9, 0.9, 0.9, 0.1, 0.1, 0.9}) {
        rig.iq.values.push_back(avf);
        rig.feed.onCycle(now);
        controller.onCycle(now);
        ++now;
    }

    std::vector<bool> expect = {true, true, true,
                                false, false, true};
    EXPECT_EQ(controller.decisions(), expect);
    // Three transitions (on, off, on) — steady decisions must not
    // re-issue the throttle.
    EXPECT_EQ(controller.actuations(), 3u);
    EXPECT_EQ(controller.engagements(), 2u);
    EXPECT_EQ(controller.throttledIntervals(), 4u);
    EXPECT_TRUE(controller.throttled());
    EXPECT_EQ(rig.pipe.effectiveDispatchWidth(),
              policy.throttledWidth);
}

TEST(ThrottleController, HysteresisHoldsBetweenThresholds)
{
    ControlRig rig;
    rig.feed.attachAvf(Structure::IQ, rig.iq);
    control::ThrottleController controller(
        rig.pipe, rig.feed, lastValuePolicy(0.5, 0.3));

    Cycle now = 0;
    // 0.4 sits inside the band: it neither engages nor releases.
    for (double avf : {0.6, 0.4, 0.2, 0.4, 0.6}) {
        rig.iq.values.push_back(avf);
        rig.feed.onCycle(now);
        controller.onCycle(now);
        ++now;
    }

    std::vector<bool> expect = {true, true, false, false, true};
    EXPECT_EQ(controller.decisions(), expect);
    EXPECT_EQ(controller.engagements(), 2u);
    EXPECT_EQ(controller.actuations(), 3u);
}

TEST(ThrottleController, RejectsInvertedThresholds)
{
    ControlRig rig;
    rig.feed.attachAvf(Structure::IQ, rig.iq);
    control::ThrottleConfig bad;
    bad.engageThreshold = 0.1;
    bad.releaseThreshold = 0.5;
    EXPECT_DEATH(
        control::ThrottleController(rig.pipe, rig.feed, bad),
        "hysteresis");
}

TEST(ThrottleController, RejectsZeroWidthHysteresisBand)
{
    // Equal thresholds would let a value sitting exactly on the
    // boundary thrash the actuator every interval.
    ControlRig rig;
    rig.feed.attachAvf(Structure::IQ, rig.iq);
    control::ThrottleConfig bad;
    bad.engageThreshold = 0.3;
    bad.releaseThreshold = 0.3;
    EXPECT_DEATH(
        control::ThrottleController(rig.pipe, rig.feed, bad),
        "hysteresis");
}

TEST(ThrottleController, DecisionsReadOnlyFromPublishedSeries)
{
    // The feed-exclusivity contract: once a row is published,
    // corrupting the estimator's private history must not change a
    // single decision — the controller holds no estimator reference.
    auto drive = [](bool corrupt) {
        ControlRig rig;
        rig.feed.attachAvf(Structure::IQ, rig.iq);
        control::ThrottleController controller(
            rig.pipe, rig.feed, lastValuePolicy(0.5, 0.4));
        for (Cycle t = 0; t < 12; ++t) {
            rig.iq.values.push_back(t % 3 == 0 ? 0.9 : 0.2);
            rig.feed.onCycle(t);
            controller.onCycle(t);
            if (corrupt)
                for (double &v : rig.iq.values)
                    v = 1.0 - v;
        }
        return controller.decisions();
    };

    std::vector<bool> clean = drive(false);
    EXPECT_EQ(clean, drive(true));
    // The sequence must be nontrivial for the comparison to mean
    // anything.
    EXPECT_NE(std::find(clean.begin(), clean.end(), true),
              clean.end());
    EXPECT_NE(std::find(clean.begin(), clean.end(), false),
              clean.end());
}

TEST(ThrottleController, FirstEngagedCycleTracksReportLatency)
{
    // Delayed-reporting sweep: the single vulnerable estimate closes
    // at cycle 100; the controller may not engage before the
    // reporting latency has elapsed, and later visibility means a
    // strictly later reaction (the Jaulmes et al. trade).
    auto firstEngagedCycle = [](Cycle latency) {
        ControlRig rig(latency);
        rig.feed.attachAvf(Structure::IQ, rig.iq);
        control::ThrottleController controller(
            rig.pipe, rig.feed, lastValuePolicy(0.5, 0.4));
        for (Cycle t = 0; t < 2'000; ++t) {
            if (t == 100)
                rig.iq.values.push_back(0.9);
            rig.feed.onCycle(t);
            controller.onCycle(t);
            if (controller.throttled())
                return t;
        }
        ADD_FAILURE() << "controller never engaged";
        return Cycle{0};
    };

    Cycle prev = 0;
    for (Cycle latency : {Cycle{0}, Cycle{50}, Cycle{500}}) {
        Cycle engagedAt = firstEngagedCycle(latency);
        EXPECT_EQ(engagedAt, 100 + latency);
        EXPECT_GE(engagedAt, prev);
        prev = engagedAt;
    }
}

// ---------------------------------------------------------------- //
// BudgetArbiter: MTTF-budget arbitration across structures          //
// ---------------------------------------------------------------- //

TEST(BudgetArbiter, TargetsHighestFitStructureFirst)
{
    // Goal rate 0.5 FIT; every row below exceeds it.
    reliability::BudgetArbiter arbiter(
        reliability::FitModel(tinyModel()), 1e9 / 0.5);

    // REG: 200 bits * 0.9 = 1.8 FIT beats IQ's 1.0.
    auto d1 = arbiter.decide(avfRow(1.0, 0.9));
    EXPECT_TRUE(d1.exceeded);
    EXPECT_EQ(d1.target, Structure::REG);
    EXPECT_EQ(d1.action,
              reliability::BudgetDecision::Action::Throttle);
    EXPECT_NEAR(d1.targetFit, 1.8, 1e-12);

    // IQ: 1.0 FIT beats REG's 0.4.
    auto d2 = arbiter.decide(avfRow(1.0, 0.2));
    EXPECT_EQ(d2.target, Structure::IQ);
    EXPECT_EQ(d2.action,
              reliability::BudgetDecision::Action::Throttle);
    EXPECT_EQ(arbiter.exceededIntervals(), 2u);
}

TEST(BudgetArbiter, TiesBreakTowardLowerStructureIndex)
{
    reliability::BudgetArbiter arbiter(
        reliability::FitModel(tinyModel()), 1e9 / 0.5);
    // IQ and REG both contribute exactly 1.0 FIT.
    auto decision = arbiter.decide(avfRow(1.0, 0.5));
    EXPECT_NEAR(decision.structureFit[0], 1.0, 1e-12);
    EXPECT_NEAR(decision.structureFit[1], 1.0, 1e-12);
    EXPECT_EQ(decision.target, Structure::IQ);
}

TEST(BudgetArbiter, ExceededStateIsHysteretic)
{
    // Goal 1.0 FIT, release below 0.9 FIT: a rate hovering at the
    // budget cannot thrash the actuators.
    reliability::BudgetArbiter arbiter(
        reliability::FitModel(tinyModel()), 1e9, 0.9);

    EXPECT_TRUE(arbiter.decide(avfRow(1.1, 0.0)).exceeded);
    EXPECT_TRUE(arbiter.decide(avfRow(0.95, 0.0)).exceeded);
    EXPECT_FALSE(arbiter.decide(avfRow(0.5, 0.0)).exceeded);
    EXPECT_FALSE(arbiter.decide(avfRow(0.95, 0.0)).exceeded);
    EXPECT_EQ(arbiter.exceededIntervals(), 2u);
}

TEST(BudgetArbiter, ProtectRaisesCoverageToMeetBudget)
{
    // FXU-only load: 10 FIT at AVF 1, so AVF 0.9 yields 9 FIT
    // against a 4.5 FIT goal. FXU is not throttleable, so the
    // arbiter must raise its coverage by exactly the over-budget
    // share: 4.5 / 9 = 0.5.
    reliability::BudgetArbiter arbiter(
        reliability::FitModel(tinyModel()), 1e9 / 4.5);

    auto d1 = arbiter.decide(avfRow(0.0, 0.0, 0.9));
    EXPECT_TRUE(d1.exceeded);
    EXPECT_EQ(d1.target, Structure::FXU);
    EXPECT_EQ(d1.action,
              reliability::BudgetDecision::Action::Protect);
    EXPECT_NEAR(d1.coverage, 0.5, 1e-12);
    EXPECT_NEAR(arbiter.coverageOf(Structure::FXU), 0.5, 1e-12);

    // The raise takes effect from the next interval: the same AVF
    // row now lands exactly on the goal rate.
    auto d2 = arbiter.decide(avfRow(0.0, 0.0, 0.9));
    EXPECT_NEAR(d2.intervalFit, 4.5, 1e-12);
    // Exactly-on-goal is inside the hysteresis band: still engaged,
    // but no further coverage movement is needed.
    EXPECT_TRUE(d2.exceeded);
    EXPECT_NEAR(arbiter.coverageOf(Structure::FXU), 0.5, 1e-12);
}

TEST(BudgetArbiter, RejectsNonPositiveBudget)
{
    // The embedded MttfTracker rejects the goal during member
    // construction, before the arbiter's own budget assert runs.
    EXPECT_DEATH(reliability::BudgetArbiter(
                     reliability::FitModel(tinyModel()), 0.0),
                 "must be positive");
}

// ---------------------------------------------------------------- //
// ThrottleController: budget mode                                   //
// ---------------------------------------------------------------- //

TEST(BudgetControl, ThrottlesWhenOccupancyStructureLeadsFit)
{
    ControlRig rig;
    FakeEstimator reg;
    rig.feed.attachAvf(Structure::IQ, rig.iq);
    rig.feed.attachAvf(Structure::REG, reg);
    reliability::BudgetArbiter arbiter(
        reliability::FitModel(tinyModel()), 1e9 / 0.5);
    control::ThrottleConfig policy;
    control::ThrottleController controller(rig.pipe, rig.feed,
                                           policy, &arbiter);

    rig.iq.values = {0.9}; // IQ 0.9 FIT leads REG's 0.2
    reg.values = {0.1};
    rig.feed.onCycle(1);
    controller.onCycle(1);

    EXPECT_TRUE(controller.throttled());
    EXPECT_EQ(controller.budgetExceededIntervals(), 1u);
    EXPECT_EQ(controller.protectActions(), 0u);
    EXPECT_EQ(controller.firstTargetStructure(),
              static_cast<int>(Structure::IQ));
    EXPECT_EQ(rig.pipe.effectiveDispatchWidth(),
              policy.throttledWidth);
    EXPECT_EQ(controller.budget(), &arbiter);
}

TEST(BudgetControl, ProtectsUnthrottleableTargetInsteadOfThrottling)
{
    ControlRig rig;
    FakeEstimator fxu;
    rig.feed.attachAvf(Structure::IQ, rig.iq);
    rig.feed.attachAvf(Structure::FXU, fxu);
    reliability::BudgetArbiter arbiter(
        reliability::FitModel(tinyModel()), 1e9 / 4.5);
    control::ThrottleController controller(
        rig.pipe, rig.feed, control::ThrottleConfig{}, &arbiter);

    rig.iq.values = {0.1}; // 0.1 FIT
    fxu.values = {0.9};    // 9 FIT dominates; FXU is not throttleable
    rig.feed.onCycle(1);
    controller.onCycle(1);

    EXPECT_FALSE(controller.throttled());
    EXPECT_EQ(rig.pipe.effectiveDispatchWidth(),
              CpuConfig{}.dispatchWidth);
    EXPECT_EQ(controller.budgetExceededIntervals(), 1u);
    EXPECT_EQ(controller.protectActions(), 1u);
    EXPECT_EQ(controller.firstTargetStructure(),
              static_cast<int>(Structure::FXU));
    EXPECT_GT(arbiter.coverageOf(Structure::FXU), 0.0);

    // The decision trail carries the protection move.
    auto snap = rig.feed.shard().snapshot();
    const auto *coverage = snap.findSeries("control_coverage_fxu");
    ASSERT_NE(coverage, nullptr);
    ASSERT_EQ(coverage->size(), 1u);
    EXPECT_DOUBLE_EQ(coverage->front(),
                     arbiter.coverageOf(Structure::FXU));
    ASSERT_NE(snap.findSeries("budget_fit_total"), nullptr);
    ASSERT_NE(snap.findSeries("budget_target_structure"), nullptr);
    EXPECT_DOUBLE_EQ(
        snap.findSeries("budget_target_structure")->front(),
        static_cast<double>(static_cast<int>(Structure::FXU)));
}

// ---------------------------------------------------------------- //
// End to end through the harness                                    //
// ---------------------------------------------------------------- //

harness::ExperimentConfig
smallControlConfig(const char *profile)
{
    harness::ExperimentConfig conf;
    conf.profile = trace::specProfile(profile);
    conf.numIntervals = 4;
    conf.online.m = 64;
    conf.online.n = 16;
    conf.lookahead = 512;
    conf.metrics = true;
    conf.control.enabled = true;
    // An (absurdly) demanding budget: any nonzero activity exceeds
    // it, so the loop is guaranteed to have decisions to make.
    conf.control.mttfBudgetHours = 1e15;
    return conf;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(ControlLoopEndToEnd, SummaryAndDecisionTrailPopulated)
{
    harness::RunOptions options;
    options.threads = 1;
    harness::ExperimentEngine engine(options);
    engine.submit("mesa", smallControlConfig("mesa"));
    auto tasks = engine.collect();
    ASSERT_EQ(tasks.size(), 1u);
    ASSERT_TRUE(tasks.front().ok()) << tasks.front().errorText;

    const auto &cs = tasks.front().result.control;
    EXPECT_TRUE(cs.enabled);
    EXPECT_GT(cs.intervals, 0u);
    EXPECT_GT(cs.budgetExceededIntervals, 0u);
    EXPECT_GE(cs.firstTarget, 0);

    const auto &snap = tasks.front().result.metrics;
    const auto *engagedSeries = snap.findSeries("control_engaged");
    ASSERT_NE(engagedSeries, nullptr);
    EXPECT_EQ(engagedSeries->size(), cs.intervals);
    EXPECT_NE(snap.findSeries("budget_fit_total"), nullptr);
    EXPECT_NE(snap.findSeries("budget_projected_mttf_hours"),
              nullptr);
}

TEST(ControlLoopEndToEnd, MetricsBytesIdenticalAcrossWorkerCounts)
{
    auto campaignAt = [](unsigned threads, const std::string &path) {
        harness::RunOptions options;
        options.threads = threads;
        harness::ExperimentEngine engine(options);
        for (const char *name : {"mesa", "bzip2", "swim"})
            engine.submit(name, smallControlConfig(name));
        auto tasks = engine.collect();
        for (const auto &task : tasks)
            EXPECT_TRUE(task.ok()) << task.errorText;
        harness::writeMetricsJson(path, "control_identity", tasks);
        return slurp(path);
    };

    std::string serial = campaignAt(
        1, ::testing::TempDir() + "control_metrics_w1.json");
    std::string parallel = campaignAt(
        8, ::testing::TempDir() + "control_metrics_w8.json");
    EXPECT_EQ(serial, parallel);
    // The controller was genuinely active, not optimized away.
    EXPECT_NE(serial.find("control_engaged"), std::string::npos);
    EXPECT_NE(serial.find("budget_fit_total"), std::string::npos);
}

} // namespace
