/**
 * @file
 * Wake-schedule exactness (ctest label `wake`). Every roster runs
 * twice on identical pipelines: once attached directly, so the
 * pipeline calls each observer's onCycle only on the cycles its
 * nextWake() names, and once wrapped in EveryCycle, which forwards
 * every hook on every cycle — the schedule the pipeline used before
 * observers could sleep. Estimates, snapshot codec bytes, SoftArch
 * rows, feature rows, control decisions and the feed's METRICS must
 * come out identical: an observer whose nextWake() skips a cycle on
 * which its onCycle would have acted shows up here as a diff.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "control/throttle_controller.hh"
#include "core/injection_port.hh"
#include "core/lifecycle_sink.hh"
#include "core/occupancy_estimator.hh"
#include "core/online_estimator.hh"
#include "core/regression_estimator.hh"
#include "core/tlb_estimator.hh"
#include "core/utilization_estimator.hh"
#include "cpu/pipeline.hh"
#include "harness/task_codec.hh"
#include "obs/attribution.hh"
#include "obs/control_feed.hh"
#include "obs/coverage_probe.hh"
#include "obs/lifecycle.hh"
#include "reliability/budget_arbiter.hh"
#include "reliability/fit_model.hh"
#include "softarch/ace_analyzer.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;
using core::OnlineAvfEstimator;
using core::OnlineConfig;
using core::Structure;

/**
 * Forwards every hook to the wrapped observer and keeps the default
 * nextWake(), so the wrapped observer sees onCycle on every cycle.
 */
class EveryCycle : public cpu::PipelineObserver
{
  public:
    explicit EveryCycle(cpu::PipelineObserver &observer)
        : inner(observer)
    {
    }

    void onDispatch(const cpu::DynInstr &i) override
    {
        inner.onDispatch(i);
    }
    void onIssue(const cpu::DynInstr &i) override { inner.onIssue(i); }
    void onComplete(const cpu::DynInstr &i) override
    {
        inner.onComplete(i);
    }
    void onRetire(const cpu::DynInstr &i,
                  const cpu::RetireInfo &info) override
    {
        inner.onRetire(i, info);
    }
    void onCycle(Cycle now) override { inner.onCycle(now); }
    void onErrorHop(const cpu::DynInstr &i, ErrorMask bits,
                    cpu::ErrorHop hop) override
    {
        inner.onErrorHop(i, bits, hop);
    }

  private:
    cpu::PipelineObserver &inner;
};

/** One run's observable output: named byte strings. */
using Parts = std::vector<std::pair<std::string, std::string>>;

/** bzip2 on the Table 1 machine; attach() wraps when asked to. */
struct Rig
{
    explicit Rig(bool everyCycle, const char *profile = "bzip2")
        : gen(trace::specProfile(profile)), pipe(cpu::CpuConfig{}, gen),
          wrapped(everyCycle)
    {
    }

    void
    attach(cpu::PipelineObserver &observer)
    {
        if (!wrapped) {
            pipe.addObserver(&observer);
            return;
        }
        wrappers.push_back(std::make_unique<EveryCycle>(observer));
        pipe.addObserver(wrappers.back().get());
    }

    trace::SyntheticTraceGenerator gen;
    cpu::Pipeline pipe;
    bool wrapped;
    std::vector<std::unique_ptr<EveryCycle>> wrappers;
};

void
appendDoubles(std::string &out, const std::vector<double> &values)
{
    out.append(reinterpret_cast<const char *>(values.data()),
               values.size() * sizeof(double));
}

/** Estimates and snapshot codec bytes of @p est. */
void
record(Parts &parts, const core::AvfEstimator &est)
{
    std::string estimates;
    appendDoubles(estimates, est.estimates());
    parts.emplace_back(est.name() + " estimates", estimates);
    std::string bytes;
    harness::codec::appendEstimatorState(bytes, est.snapshotState());
    parts.emplace_back(est.name() + " snapshot", bytes);
}

/** Fail on any part that differs; also require some output. */
void
expectSame(const Parts &direct, const Parts &everyCycle)
{
    ASSERT_EQ(direct.size(), everyCycle.size());
    ASSERT_FALSE(direct.empty());
    bool anyOutput = false;
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(direct[i].first, everyCycle[i].first);
        EXPECT_TRUE(direct[i].second == everyCycle[i].second)
            << direct[i].first << " differs between the wake "
            << "schedule and every-cycle calls";
        anyOutput = anyOutput || !direct[i].second.empty();
    }
    EXPECT_TRUE(anyOutput);
}

/** Run @p roster both ways and compare. */
template <typename Roster>
void
expectWakeExact(Roster roster)
{
    Parts direct = roster(false);
    Parts every = roster(true);
    expectSame(direct, every);
}

/**
 * Per-cycle recorder (default nextWake): the cycle of every unit
 * @p count grows by, so a schedule that acts late shows as a diff
 * even where the values it produces come out the same.
 */
class GrowthCycles : public cpu::PipelineObserver
{
  public:
    explicit GrowthCycles(std::function<std::size_t()> counter)
        : count(std::move(counter))
    {
    }

    void
    onCycle(Cycle now) override
    {
        for (std::size_t n = count(); seen < n; ++seen) {
            // One entry per growth, not per cycle.
            // avflint: allow(hot-path-alloc)
            cycles.push_back(now);
        }
    }

    std::string
    bytes() const
    {
        return {reinterpret_cast<const char *>(cycles.data()),
                cycles.size() * sizeof(Cycle)};
    }

    std::vector<Cycle> cycles;

  private:
    std::function<std::size_t()> count;
    std::size_t seen = 0;
};

constexpr Cycle kM = 300;
constexpr std::uint32_t kN = 20;
/** Two full intervals at one lane, plus a torn window. */
constexpr Cycle kRun = kM * kN * 2 + 13;

const std::vector<Structure> kAllStructures = {
    Structure::IQ, Structure::REG, Structure::FXU, Structure::FPU,
    Structure::FREG};

OnlineConfig
onlineConf(int lanes, bool randomized = false)
{
    OnlineConfig conf;
    conf.m = kM;
    conf.n = kN;
    conf.lanes = lanes;
    conf.randomizeInjectionTiming = randomized;
    return conf;
}

/** Online estimators over every structure; a shared port or not. */
Parts
runOnline(bool wrapped, OnlineConfig conf, bool sharedPort,
          const std::vector<Structure> &structures = kAllStructures)
{
    Rig rig(wrapped);
    core::InjectionPort port(rig.pipe);
    if (sharedPort)
        rig.attach(port);
    std::vector<std::unique_ptr<OnlineAvfEstimator>> ests;
    for (Structure s : structures) {
        ests.push_back(std::make_unique<OnlineAvfEstimator>(
            rig.pipe, s, conf, sharedPort ? &port : nullptr));
        rig.attach(*ests.back());
    }
    rig.pipe.run(kRun);
    Parts parts;
    for (const auto &est : ests)
        record(parts, *est);
    return parts;
}

TEST(WakeExactness, OnlineLanes1)
{
    for (bool randomized : {false, true}) {
        SCOPED_TRACE(randomized ? "randomized timing" : "fixed timing");
        expectWakeExact([&](bool wrapped) {
            return runOnline(wrapped, onlineConf(1, randomized), false);
        });
    }
}

TEST(WakeExactness, OnlineLanes12)
{
    for (bool randomized : {false, true}) {
        SCOPED_TRACE(randomized ? "randomized timing" : "fixed timing");
        expectWakeExact([&](bool wrapped) {
            return runOnline(wrapped, onlineConf(12, randomized), true);
        });
    }
}

TEST(WakeExactness, FieldGranularIq)
{
    for (int lanes : {1, 12}) {
        OnlineConfig conf = onlineConf(lanes);
        conf.fieldGranularIq = true;
        expectWakeExact([&](bool wrapped) {
            return runOnline(wrapped, conf, false, {Structure::IQ});
        });
    }
}

TEST(WakeExactness, Dtlb)
{
    expectWakeExact([](bool wrapped) {
        Rig rig(wrapped);
        core::TlbEstimatorConfig conf;
        conf.m = 1000;
        conf.n = 10;
        core::TlbAvfEstimator est(rig.pipe, conf);
        rig.attach(est);
        rig.pipe.run(1000 * 10 * 3 + 50);
        Parts parts;
        record(parts, est);
        return parts;
    });
}

// The harness shape of a root-cause run: a shared port, the online
// estimators teed into the lifecycle and attribution trackers, then
// one probe per CoverageTarget on the same port.
TEST(WakeExactness, ProbesWithAttribution)
{
    expectWakeExact([](bool wrapped) {
        Rig rig(wrapped);
        core::InjectionPort port(rig.pipe);
        rig.attach(port);

        obs::AttributionConfig at;
        at.enabled = true;
        at.phaseCycles = kM * kN;
        obs::AttributionTracker attribution(at);
        obs::LifecycleConfig lc;
        lc.enabled = true;
        lc.windowCycles = kM;
        obs::LifecycleTracker tracker(lc);
        obs::LifecycleTee tee(tracker, attribution);

        std::vector<std::unique_ptr<core::AvfEstimator>> ests;
        std::vector<OnlineAvfEstimator *> online;
        for (Structure s : kAllStructures) {
            auto est = std::make_unique<OnlineAvfEstimator>(
                rig.pipe, s, onlineConf(4), &port);
            est->setLifecycleSink(&tee);
            rig.attach(*est);
            online.push_back(est.get());
            ests.push_back(std::move(est));
        }
        rig.attach(tracker);
        rig.pipe.setHopSink(&tracker);
        obs::CoverageProbeConfig probeConf;
        probeConf.m = kM;
        probeConf.n = 10;
        for (int t = 0; t < obs::numCoverageTargets; ++t) {
            auto probe = std::make_unique<obs::CoverageProbe>(
                rig.pipe, port, attribution,
                static_cast<obs::CoverageTarget>(t), probeConf);
            rig.attach(*probe);
            ests.push_back(std::move(probe));
        }
        rig.pipe.run(kRun);

        Parts parts;
        for (const auto &est : ests)
            record(parts, *est);
        std::ostringstream table;
        attribution.snapshot().writeJson(table);
        parts.emplace_back("attribution", table.str());
        obs::LifecycleSummary summary = tracker.summary();
        parts.emplace_back(
            "lifecycle totals",
            std::to_string(summary.totalClosed()) + "/" +
                std::to_string(summary.totalFailures()));
        for (const OnlineAvfEstimator *est : online)
            EXPECT_EQ(tracker.reconcile(*est), "") << est->name();
        return parts;
    });
}

/** The counter baselines, the regression estimator, SoftArch. */
TEST(WakeExactness, BaselinesRegressionAndSoftArch)
{
    constexpr Cycle interval = 2000;
    expectWakeExact([](bool wrapped) {
        Rig rig(wrapped);
        core::UtilizationEstimator fxu(rig.pipe, cpu::FuClass::Fxu,
                                       interval);
        core::UtilizationEstimator fpu(rig.pipe, cpu::FuClass::Fpu,
                                       interval);
        core::OccupancyEstimator occupancy(rig.pipe, interval);
        core::LinearAvfModel model;
        model.setWeights({0.01, 0.5, 0.2, 0.1, 0.05, 0.1, 0.1, 0.1,
                          0.05});
        core::RegressionEstimator regression(rig.pipe, interval, model);
        core::FeatureCollector features(rig.pipe, interval);
        softarch::SoftArchConfig sa;
        sa.intervalCycles = interval;
        sa.lookahead = 700;
        softarch::AceAnalyzer reference(rig.pipe, sa);
        for (cpu::PipelineObserver *obs :
             std::vector<cpu::PipelineObserver *>{
                 &fxu, &fpu, &occupancy, &regression, &features,
                 &reference})
            rig.attach(*obs);
        GrowthCycles finalized(
            [&] { return reference.results().size(); });
        rig.pipe.addObserver(&finalized);
        rig.pipe.run(interval * 5 + 1234);

        Parts parts;
        for (const core::AvfEstimator *est :
             std::vector<const core::AvfEstimator *>{
                 &fxu, &fpu, &occupancy, &regression})
            record(parts, *est);
        std::string rows;
        for (const auto &row : features.features())
            appendDoubles(rows, {row.begin(), row.end()});
        parts.emplace_back("feature rows", rows);
        parts.emplace_back("softarch emit cycles", finalized.bytes());
        reference.finalizeAll(5);
        std::string softarch;
        for (const auto &row : reference.results())
            appendDoubles(softarch, {row.avf.begin(), row.avf.end()});
        parts.emplace_back("softarch rows", softarch);
        return parts;
    });
}

/**
 * The closed loop: online estimators and the occupancy baseline feed
 * a ControlFeed (attached after them), which the controller follows.
 * Threshold mode without @p budget, budget mode with it.
 */
Parts
runControl(bool wrapped, Cycle latency, bool budget)
{
    Rig rig(wrapped, "mesa");
    core::InjectionPort port(rig.pipe);
    rig.attach(port);
    OnlineConfig conf = onlineConf(4);
    conf.m = 100;
    conf.n = 16;
    const Cycle interval = conf.m * 4;
    std::vector<std::unique_ptr<OnlineAvfEstimator>> ests;
    for (Structure s : kAllStructures) {
        ests.push_back(std::make_unique<OnlineAvfEstimator>(
            rig.pipe, s, conf, &port));
        rig.attach(*ests.back());
    }
    core::OccupancyEstimator occupancy(rig.pipe, interval);
    rig.attach(occupancy);

    obs::ControlFeed feed(latency);
    for (std::size_t s = 0; s < ests.size(); ++s)
        feed.attachAvf(static_cast<Structure>(s), *ests[s]);
    feed.attachOccupancy(occupancy);
    rig.attach(feed);

    std::unique_ptr<reliability::BudgetArbiter> arbiter;
    if (budget)
        arbiter = std::make_unique<reliability::BudgetArbiter>(
            reliability::FitModel(
                reliability::defaultFitModel(cpu::CpuConfig{})),
            1e15);
    control::ThrottleConfig policy;
    policy.engageThreshold = 0.05;
    policy.releaseThreshold = 0.03;
    policy.predictorAlpha = 1.0;
    control::ThrottleController controller(rig.pipe, feed, policy,
                                           arbiter.get());
    rig.attach(controller);
    // Unwrapped in both runs: when rows publish and decisions land.
    GrowthCycles published([&] { return feed.rows(); });
    GrowthCycles decided([&] { return controller.decisions().size(); });
    rig.pipe.addObserver(&published);
    rig.pipe.addObserver(&decided);
    rig.pipe.run(interval * 24 + 77);

    EXPECT_GT(controller.intervals(), 0u);
    EXPECT_GT(controller.actuations(), 0u);
    Parts parts;
    for (const auto &est : ests)
        record(parts, *est);
    record(parts, occupancy);
    std::string decisions;
    for (bool engaged : controller.decisions())
        decisions += engaged ? '1' : '0';
    parts.emplace_back("decisions", decisions);
    parts.emplace_back("actuations",
                       std::to_string(controller.actuations()));
    parts.emplace_back("publish cycles", published.bytes());
    parts.emplace_back("decision cycles", decided.bytes());
    parts.emplace_back("retired",
                       std::to_string(rig.pipe.stats().retired));
    std::ostringstream metrics;
    feed.shard().snapshot().writeJson(metrics);
    parts.emplace_back("feed metrics", metrics.str());
    return parts;
}

TEST(WakeExactness, FeedAndThresholdController)
{
    for (Cycle latency : {Cycle{0}, Cycle{150}, Cycle{1000}}) {
        SCOPED_TRACE("report latency " + std::to_string(latency));
        expectWakeExact([&](bool wrapped) {
            return runControl(wrapped, latency, false);
        });
    }
}

TEST(WakeExactness, FeedAndBudgetController)
{
    for (Cycle latency : {Cycle{0}, Cycle{150}}) {
        SCOPED_TRACE("report latency " + std::to_string(latency));
        expectWakeExact([&](bool wrapped) {
            return runControl(wrapped, latency, true);
        });
    }
}

/** Records the cycle of every window an estimator opens. */
class OpenCycles : public core::LifecycleSink
{
  public:
    void
    openRecord(Structure, LaneId, int, int, bool, Cycle now) override
    {
        // Test recorder: one entry per window. avflint: allow(hot-path-alloc)
        cycles.push_back(now);
    }
    void closeRecord(Structure, LaneId, Cycle,
                     const core::Outcome &) override
    {
    }

    std::vector<Cycle> cycles;
};

/** Fire cycles of observers attached at cycle @p attachAt. */
struct FireLog
{
    std::vector<Cycle> opens;
    std::vector<Cycle> occupancyCloses;
    std::vector<Cycle> utilizationCloses;
};

FireLog
fireLog(Cycle attachAt, Cycle until)
{
    Rig rig(false);
    rig.pipe.run(attachAt);
    EXPECT_EQ(rig.pipe.now(), attachAt);
    OnlineAvfEstimator est(rig.pipe, Structure::IQ,
                           onlineConf(3, true));
    OpenCycles opens;
    est.setLifecycleSink(&opens);
    core::OccupancyEstimator occupancy(rig.pipe, 1000);
    core::UtilizationEstimator utilization(rig.pipe, cpu::FuClass::Fxu,
                                           700);
    GrowthCycles occupancyLog(
        [&] { return occupancy.estimates().size(); });
    GrowthCycles utilizationLog(
        [&] { return utilization.estimates().size(); });
    for (cpu::PipelineObserver *obs :
         std::vector<cpu::PipelineObserver *>{
             &est, &occupancy, &utilization, &occupancyLog,
             &utilizationLog})
        rig.pipe.addObserver(obs);
    rig.pipe.run(until - attachAt);
    return {opens.cycles, occupancyLog.cycles, utilizationLog.cycles};
}

/** The entries of @p cycles at or after @p from. */
std::vector<Cycle>
from(const std::vector<Cycle> &cycles, Cycle start)
{
    std::vector<Cycle> out;
    for (Cycle c : cycles)
        if (c >= start)
            out.push_back(c);
    return out;
}

TEST(WakeExactness, MidRunAttachFiresOnTheSameCycles)
{
    constexpr Cycle until = 9000;
    FireLog atZero = fireLog(0, until);
    ASSERT_FALSE(atZero.opens.empty());
    for (Cycle attachAt : {Cycle{1}, Cycle{300}, Cycle{1234}}) {
        SCOPED_TRACE("attached at " + std::to_string(attachAt));
        FireLog late = fireLog(attachAt, until);
        // The late estimator's window loop starts on the first M
        // boundary at or after the attach cycle and then repeats the
        // cycle-0 schedule (same draws, same interval caps) shifted
        // by that boundary.
        Cycle shift = (attachAt + kM - 1) / kM * kM;
        std::vector<Cycle> shifted;
        for (Cycle c : atZero.opens)
            if (c + shift < until)
                shifted.push_back(c + shift);
        EXPECT_EQ(late.opens, shifted);
        // The counter baselines close on exactly the same cycles.
        EXPECT_EQ(late.occupancyCloses,
                  from(atZero.occupancyCloses, attachAt));
        EXPECT_EQ(late.utilizationCloses,
                  from(atZero.utilizationCloses, attachAt));
        EXPECT_FALSE(late.occupancyCloses.empty());
    }
}

} // namespace
