/**
 * @file
 * Closed-loop vulnerability control: the use case the paper builds
 * toward (Section 1, citing Soundararajan et al.: "use the AVF input
 * to control instruction throttling ... a real-time online AVF
 * estimation is a must"). At the end of each estimation interval the
 * controller reads the interval's AVF from the published metrics
 * series — obs::ControlFeed is its only input; it holds no estimator
 * reference — and decides whether to throttle dispatch: fewer
 * instructions in flight lowers occupancy and therefore AVF, at an
 * IPC cost.
 *
 * Two policies share the actuator:
 *  - threshold mode (no arbiter): an EMA predictor over the driving
 *    structure's AVF series, with hysteresis between engage and
 *    release thresholds;
 *  - budget mode (arbiter attached): every structure's AVF row is
 *    handed to a reliability::BudgetArbiter, which checks the SOFR
 *    failure rate against an MTTF budget and names the structure to
 *    act on. Throttleable targets engage the dispatch throttle;
 *    the rest get protection coverage raised inside the arbiter.
 *
 * The throttle is actuated only on decision transitions, and every
 * decision is recorded into the same MetricsShard the feed publishes
 * through, so METRICS.json carries the full decision trail
 * (`avf-report budget` renders it).
 */

#ifndef AVF_CONTROL_THROTTLE_CONTROLLER_HH
#define AVF_CONTROL_THROTTLE_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/predictor.hh"
#include "core/structures.hh"
#include "cpu/observer.hh"
#include "cpu/pipeline.hh"
#include "obs/control_feed.hh"
#include "reliability/budget_arbiter.hh"

namespace avf::control
{

/** Threshold-mode policy (budget mode takes these as fallbacks). */
struct ThrottleConfig
{
    /** Structure whose published AVF series drives the predictor. */
    core::Structure structure = core::Structure::IQ;
    /** Predicted AVF at or above which throttling engages. */
    double engageThreshold = 0.30;
    /** Predicted AVF below which throttling releases; must be
     *  strictly below engageThreshold (positive hysteresis band). */
    double releaseThreshold = 0.25;
    /** Dispatch width while throttled. */
    int throttledWidth = 2;
    /** Smoothing factor of the internal EMA predictor. */
    double predictorAlpha = 0.7;
};

/**
 * Watches the control feed and actuates the dispatch throttle at
 * estimation-interval boundaries. Attach as a pipeline observer
 * AFTER the feed so decisions land the cycle a row publishes.
 */
class ThrottleController : public cpu::PipelineObserver
{
  public:
    /**
     * @param pipe pipeline to actuate.
     * @param feed the published per-interval series to decide from;
     *        conf.structure must be attached. Decision metrics are
     *        registered on the feed's shard here (never mid-run).
     * @param config policy.
     * @param arbiter optional MTTF-budget arbiter; non-null switches
     *        the controller to budget mode. Not owned; must outlive
     *        the controller.
     */
    ThrottleController(cpu::Pipeline &pipe, obs::ControlFeed &feed,
                       ThrottleConfig config = ThrottleConfig{},
                       reliability::BudgetArbiter *arbiter = nullptr);

    void onCycle(Cycle now) override;
    /** Rows publish only in the feed's onCycle: wake with it. */
    Cycle nextWake(Cycle now) const override
    {
        return feed.nextWake(now);
    }

    /** True while the throttle is engaged. */
    bool throttled() const { return engaged; }

    /** Number of intervals (published rows) consumed. */
    std::uint64_t intervals() const { return seenRows; }

    /** Number of intervals spent throttled. */
    std::uint64_t throttledIntervals() const;

    /** Off-to-on transitions so far. */
    std::uint64_t engagements() const;

    /** setDispatchThrottle() calls issued (transitions only). */
    std::uint64_t actuations() const;

    /** Intervals decided while the MTTF budget was exceeded
     *  (0 in threshold mode). */
    std::uint64_t budgetExceededIntervals() const;

    /** Protect decisions (coverage raises) the arbiter issued
     *  (0 in threshold mode). */
    std::uint64_t protectActions() const;

    /** Per-interval engaged/not decisions (after each row). */
    const std::vector<bool> &decisions() const { return decisionLog; }

    /**
     * Structure index of the first over-budget arbitration target,
     * or -1 when the budget never tripped (or threshold mode).
     */
    int firstTargetStructure() const { return firstTarget; }

    /** The arbiter driving budget mode, or nullptr. */
    const reliability::BudgetArbiter *budget() const
    {
        return arbiter;
    }

  private:
    void processRow(std::size_t row);

    cpu::Pipeline &pipeline;
    obs::ControlFeed &feed;
    reliability::BudgetArbiter *arbiter;
    ThrottleConfig conf;
    core::EmaPredictor predictor;

    obs::MetricsShard::Id engagementsId;
    obs::MetricsShard::Id releasesId;
    obs::MetricsShard::Id actuationsId;
    obs::MetricsShard::Id throttledId;
    obs::MetricsShard::Id engagedSeriesId;
    obs::MetricsShard::Id latencyGaugeId;
    // Budget-mode metrics (registered only when an arbiter is set).
    obs::MetricsShard::Id exceededId = 0;
    obs::MetricsShard::Id protectId = 0;
    obs::MetricsShard::Id fitSeriesId = 0;
    obs::MetricsShard::Id mttfSeriesId = 0;
    obs::MetricsShard::Id targetSeriesId = 0;
    obs::MetricsShard::Id budgetGaugeId = 0;
    std::array<obs::MetricsShard::Id, core::numStructures>
        coverageIds{};

    std::size_t seenRows = 0;
    bool engaged = false;
    int firstTarget = -1;
    std::vector<bool> decisionLog;
};

} // namespace avf::control

#endif // AVF_CONTROL_THROTTLE_CONTROLLER_HH
