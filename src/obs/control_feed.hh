/**
 * @file
 * The single data path between estimation and control. The paper's
 * point is that AVF must be estimated *online* so the hardware can
 * react; this feed is the reaction side's only legal input: it polls
 * the estimator roster at interval boundaries, publishes each new
 * per-interval value into a MetricsShard series — the same storage
 * METRICS.json serializes — and consumers (control/
 * throttle_controller.hh) read decisions exclusively from those
 * series. Policy and telemetry therefore cannot disagree: corrupting
 * an estimator's private history after publication changes nothing
 * the controller sees.
 *
 * Reporting latency: Jaulmes et al. ("Memory Vulnerability: A Case
 * for Delaying Error Reporting") show reporting latency trades
 * directly against vulnerability. The feed reproduces that regime: a
 * configurable delay (in cycles) between an estimation window closing
 * and its value becoming visible to consumers. Telemetry publication
 * is delayed identically, so the exported series remain exactly what
 * the controller acted on.
 */

#ifndef AVF_OBS_CONTROL_FEED_HH
#define AVF_OBS_CONTROL_FEED_HH

#include <array>
#include <deque>
#include <utility>
#include <vector>

#include "core/avf_estimator.hh"
#include "core/structures.hh"
#include "cpu/observer.hh"
#include "obs/metrics.hh"
#include "util/types.hh"

namespace avf::obs
{

/**
 * Latency-aware publisher of per-interval estimator output into live
 * metrics series. Attach as a pipeline observer AFTER the estimators
 * it watches (so a window that closes in cycle C is staged in cycle
 * C) and BEFORE any consumer (so consumers see fresh rows the cycle
 * they publish).
 */
class ControlFeed : public cpu::PipelineObserver
{
  public:
    /**
     * @param reportLatencyCycles delay between a window closing and
     *        its estimate becoming visible in the published series
     *        (0 = same-cycle visibility, the ideal-reporting regime).
     */
    explicit ControlFeed(Cycle reportLatencyCycles = 0);

    /**
     * Watch @p estimator as the per-interval AVF source for
     * @p structure; registers the series "control_<structure>_avf".
     * Each structure may be attached once, before the run starts.
     */
    void attachAvf(core::Structure structure,
                   const core::AvfEstimator &estimator);

    /**
     * Watch @p estimator as the issue-queue occupancy baseline;
     * registers the series "control_occupancy_iq".
     */
    void attachOccupancy(const core::AvfEstimator &estimator);

    unsigned hooks() const override { return 0; }
    void onCycle(Cycle now) override;
    /**
     * The earliest of the sources' wakes (a source's estimates grow
     * only in its own onCycle) and the staged rows' due cycles.
     * Exact only when the feed is attached after its sources.
     */
    Cycle nextWake(Cycle now) const override;

    /**
     * Rows published so far: the minimum published length across all
     * attached AVF sources, i.e. the number of complete per-structure
     * AVF rows a consumer may read. 0 when nothing is attached.
     */
    std::size_t rows() const;

    /** True when @p structure has an attached AVF source. */
    bool hasAvf(core::Structure structure) const;

    /**
     * Published AVF series of @p structure (live view of the metrics
     * storage). The structure must be attached.
     */
    const std::vector<double> &avfSeries(core::Structure structure)
        const;

    /** Published occupancy series; occupancy must be attached. */
    const std::vector<double> &occupancySeries() const;

    /** Configured reporting latency in cycles. */
    Cycle reportLatency() const { return latency; }

    /**
     * The shard backing the published series. Consumers register
     * their own decision metrics here so the whole control loop
     * exports through one snapshot.
     */
    MetricsShard &shard() { return registry; }
    const MetricsShard &shard() const { return registry; }

  private:
    /** One watched estimator and its publication pipeline. */
    struct Source
    {
        const core::AvfEstimator *estimator = nullptr;
        MetricsShard::Id series = 0;
        /** Estimates pulled from the estimator so far. */
        std::size_t taken = 0;
        /** Staged values waiting out the reporting latency. */
        std::deque<std::pair<Cycle, double>> staged;
    };

    void pump(Source &source, Cycle now);

    MetricsShard registry;
    Cycle latency;
    std::vector<Source> sources;
    /** Index into sources per structure; -1 = unattached. */
    std::array<int, core::numStructures> avfSlot;
    int occupancySlot = -1;
};

} // namespace avf::obs

#endif // AVF_OBS_CONTROL_FEED_HH
