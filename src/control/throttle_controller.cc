#include "control/throttle_controller.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace avf::control
{

namespace
{

/**
 * Ceiling for the exported projected-MTTF series: before the first
 * nonzero-AVF interval the projection is +infinity, which the
 * fixed-format JSON writer cannot represent.
 */
constexpr double mttfSeriesCapHours = 1e12;

/** The structure whose published AVF series drives the predictor. */
constexpr core::Structure drivingStructure = core::Structure::IQ;

} // namespace

ThrottleController::ThrottleController(
    cpu::Pipeline &pipe, obs::ControlFeed &sourceFeed,
    ThrottleConfig config, reliability::BudgetArbiter *budgetArbiter)
    : pipeline(pipe), feed(sourceFeed), arbiter(budgetArbiter),
      conf(config), predictor(config.predictorAlpha)
{
    avf_assert(conf.releaseThreshold < conf.engageThreshold,
               "hysteresis band must be strictly positive "
               "(release < engage)");
    avf_assert(conf.throttledWidth > 0,
               "throttled width must be positive");
    avf_assert(feed.hasAvf(drivingStructure),
               "control feed does not publish the issue queue's AVF");

    auto &m = feed.shard();
    engagementsId = m.registerCounter("control_engagements_total");
    releasesId = m.registerCounter("control_releases_total");
    actuationsId = m.registerCounter("control_actuations_total");
    throttledId =
        m.registerCounter("control_throttled_intervals_total");
    engagedSeriesId = m.registerSeries("control_engaged");
    latencyGaugeId = m.registerGauge("control_report_latency_cycles");
    m.set(latencyGaugeId, static_cast<double>(feed.reportLatency()));

    if (arbiter) {
        exceededId =
            m.registerCounter("budget_exceeded_intervals_total");
        protectId =
            m.registerCounter("control_protect_actions_total");
        fitSeriesId = m.registerSeries("budget_fit_total");
        mttfSeriesId =
            m.registerSeries("budget_projected_mttf_hours");
        targetSeriesId = m.registerSeries("budget_target_structure");
        budgetGaugeId = m.registerGauge("budget_mttf_hours");
        m.set(budgetGaugeId, arbiter->budgetHours());
        for (std::size_t s = 0; s < core::numStructures; ++s)
            coverageIds[s] = m.registerSeries(
                "control_coverage_" +
                std::string(core::structureName(
                    static_cast<core::Structure>(s))));
    }
}

void
ThrottleController::processRow(std::size_t row)
{
    auto &m = feed.shard();
    predictor.observe(feed.avfSeries(drivingStructure)[row]);

    bool want = engaged;
    if (arbiter) {
        std::array<double, core::numStructures> avf{};
        for (std::size_t s = 0; s < core::numStructures; ++s) {
            auto structure = static_cast<core::Structure>(s);
            if (feed.hasAvf(structure))
                avf[s] = feed.avfSeries(structure)[row];
        }
        auto decision = arbiter->decide(avf);
        if (decision.exceeded) {
            m.inc(exceededId);
            if (firstTarget < 0)
                firstTarget = static_cast<int>(decision.target);
        }
        if (decision.action ==
            reliability::BudgetDecision::Action::Protect)
            m.inc(protectId);
        want = decision.exceeded &&
               decision.action ==
                   reliability::BudgetDecision::Action::Throttle;

        m.push(fitSeriesId, decision.intervalFit);
        m.push(mttfSeriesId, std::min(decision.projectedMttfHours,
                                      mttfSeriesCapHours));
        m.push(targetSeriesId,
               static_cast<double>(
                   static_cast<int>(decision.target)));
        for (std::size_t s = 0; s < core::numStructures; ++s)
            m.push(coverageIds[s],
                   arbiter->coverageOf(
                       static_cast<core::Structure>(s)));
    } else {
        double predicted = predictor.predict();
        if (!engaged && predicted >= conf.engageThreshold)
            want = true;
        else if (engaged && predicted < conf.releaseThreshold)
            want = false;
    }

    // Actuate only on transitions: a steady decision must not hammer
    // the pipeline with redundant setDispatchThrottle() calls.
    if (want != engaged) {
        engaged = want;
        pipeline.setDispatchThrottle(engaged ? conf.throttledWidth
                                             : 0);
        m.inc(actuationsId);
        m.inc(engaged ? engagementsId : releasesId);
    }
    // One bool per control interval, not per cycle.
    // avflint: allow(hot-path-alloc)
    decisionLog.push_back(engaged);
    m.push(engagedSeriesId, engaged ? 1.0 : 0.0);
    if (engaged)
        m.inc(throttledId);
}

void
ThrottleController::onCycle(Cycle)
{
    // Consume EVERY row published since the last call. Several rows
    // can land in one cycle (reporting latency releasing a backlog,
    // or a consumer attached late) and each one is a decision point.
    while (seenRows < feed.rows())
        processRow(seenRows++);
}

std::uint64_t
ThrottleController::throttledIntervals() const
{
    return feed.shard().counterValue(throttledId);
}

std::uint64_t
ThrottleController::engagements() const
{
    return feed.shard().counterValue(engagementsId);
}

std::uint64_t
ThrottleController::actuations() const
{
    return feed.shard().counterValue(actuationsId);
}

std::uint64_t
ThrottleController::budgetExceededIntervals() const
{
    return arbiter ? feed.shard().counterValue(exceededId) : 0;
}

std::uint64_t
ThrottleController::protectActions() const
{
    return arbiter ? feed.shard().counterValue(protectId) : 0;
}

} // namespace avf::control
