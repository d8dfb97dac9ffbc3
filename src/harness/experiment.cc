#include "harness/experiment.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "control/throttle_controller.hh"
#include "core/avf_estimator.hh"
#include "core/occupancy_estimator.hh"
#include "core/utilization_estimator.hh"
#include "cpu/pipeline.hh"
#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "obs/attribution.hh"
#include "obs/control_feed.hh"
#include "obs/coverage_probe.hh"
#include "reliability/budget_arbiter.hh"
#include "softarch/ace_analyzer.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"

namespace avf::harness
{

using core::Structure;

std::vector<double>
ExperimentResult::onlineSeries(Structure s) const
{
    std::vector<double> out;
    out.reserve(intervals.size());
    for (const auto &row : intervals)
        out.push_back(row.online[static_cast<std::size_t>(s)]);
    return out;
}

std::vector<double>
ExperimentResult::softarchSeries(Structure s) const
{
    std::vector<double> out;
    out.reserve(intervals.size());
    for (const auto &row : intervals)
        out.push_back(row.softarch[static_cast<std::size_t>(s)]);
    return out;
}

std::vector<double>
ExperimentResult::utilizationSeries(Structure s) const
{
    // Utilization is only defined for the logic structures; for a
    // storage structure there is no underlying data, so return an
    // empty series instead of misreading a zeroed array slot.
    if (s != Structure::FXU && s != Structure::FPU)
        return {};
    std::vector<double> out;
    out.reserve(intervals.size());
    std::size_t idx = s == Structure::FXU ? 0 : 1;
    for (const auto &row : intervals)
        out.push_back(row.utilization[idx]);
    return out;
}

std::vector<double>
ExperimentResult::occupancySeries() const
{
    std::vector<double> out;
    out.reserve(intervals.size());
    for (const auto &row : intervals)
        out.push_back(row.occupancy);
    return out;
}

namespace
{

/**
 * Build the run's metrics snapshot from counters the simulation
 * tracks anyway. Runs once, after the simulation — recording adds
 * nothing to the per-cycle path, and every value is a function of
 * (trace, seed, config), so snapshots merge byte-identically at any
 * worker count.
 */
obs::MetricsSnapshot
collectRunMetrics(
    const ExperimentResult &result, const cpu::Pipeline &pipeline,
    const std::vector<std::unique_ptr<core::AvfEstimator>> &estimators)
{
    obs::MetricsShard shard;

    const auto &stats = pipeline.stats();
    shard.inc(shard.registerCounter("cycles_total"), stats.cycles);
    shard.inc(shard.registerCounter("instructions_fetched_total"),
              stats.fetched);
    shard.inc(shard.registerCounter("instructions_dispatched_total"),
              stats.dispatched);
    shard.inc(shard.registerCounter("instructions_issued_total"),
              stats.issued);
    shard.inc(shard.registerCounter("instructions_retired_total"),
              stats.retired);
    shard.inc(shard.registerCounter("fetch_stall_cycles_total"),
              stats.fetchStallCycles);
    shard.inc(shard.registerCounter("branch_redirects_total"),
              stats.redirects);

    for (int s = 0; s < core::numStructures; ++s) {
        const auto *est = static_cast<const core::OnlineAvfEstimator *>(
            estimators[static_cast<std::size_t>(s)].get());
        std::string base =
            "online_" +
            std::string(core::structureName(
                static_cast<Structure>(s)));
        shard.inc(shard.registerCounter(base + "_injections_total"),
                  est->totalInjections());
        shard.inc(shard.registerCounter(base + "_failures_total"),
                  est->totalFailures());
        shard.inc(shard.registerCounter(base + "_windows_closed_total"),
                  est->totalWindowsClosed());
        shard.inc(
            shard.registerCounter(base + "_live_injections_total"),
            est->totalLiveInjections());
    }

    if (result.lifecycle.enabled) {
        shard.inc(shard.registerCounter("lifecycle_records_total"),
                  result.summary.lifecycleRecords);
        shard.inc(shard.registerCounter("lifecycle_failures_total"),
                  result.summary.lifecycleFailures);
        shard.inc(shard.registerCounter("lifecycle_killed_total"),
                  result.summary.lifecycleKilled);
        shard.inc(shard.registerCounter("lifecycle_expired_total"),
                  result.summary.lifecycleExpired);
    }

    shard.set(shard.registerGauge("injection_lanes"),
              static_cast<double>(
                  static_cast<const core::OnlineAvfEstimator *>(
                      estimators[0].get())
                      ->laneCount()));
    shard.set(shard.registerGauge("ipc"), result.summary.ipc);
    shard.set(shard.registerGauge("branch_accuracy"),
              result.summary.branchAccuracy);
    shard.set(shard.registerGauge("l1d_miss_rate"),
              result.summary.l1dMissRate);
    shard.set(shard.registerGauge("l2_miss_rate"),
              result.summary.l2MissRate);
    shard.set(shard.registerGauge("dtlb_miss_rate"),
              result.summary.dtlbMissRate);

    for (int s = 0; s < core::numStructures; ++s) {
        auto structure = static_cast<Structure>(s);
        std::string name(core::structureName(structure));
        auto hist = shard.registerHistogram(
            "online_" + name + "_avf_hist", 0.0, 1.0, 20);
        auto online = shard.registerSeries("online_" + name + "_avf");
        auto softarch =
            shard.registerSeries("softarch_" + name + "_avf");
        for (const auto &row : result.intervals) {
            double avf = row.online[static_cast<std::size_t>(s)];
            shard.observe(hist, avf);
            shard.push(online, avf);
            shard.push(softarch,
                       row.softarch[static_cast<std::size_t>(s)]);
        }
    }
    auto util_fxu = shard.registerSeries("utilization_fxu");
    auto util_fpu = shard.registerSeries("utilization_fpu");
    auto occ_iq = shard.registerSeries("occupancy_iq");
    for (const auto &row : result.intervals) {
        shard.push(util_fxu, row.utilization[0]);
        shard.push(util_fpu, row.utilization[1]);
        shard.push(occ_iq, row.occupancy);
    }

    return shard.snapshot();
}

/**
 * Append every entry of @p src into @p dst. Used to fold the control
 * loop's shard into the run snapshot; the name sets are disjoint by
 * construction (control_* / budget_* vs the collectRunMetrics names),
 * so appending cannot shadow or double-count anything.
 */
void
appendSnapshot(obs::MetricsSnapshot &dst,
               const obs::MetricsSnapshot &src)
{
    dst.enabled = dst.enabled || src.enabled;
    dst.counters.insert(dst.counters.end(), src.counters.begin(),
                        src.counters.end());
    dst.gauges.insert(dst.gauges.end(), src.gauges.begin(),
                      src.gauges.end());
    dst.histograms.insert(dst.histograms.end(),
                          src.histograms.begin(),
                          src.histograms.end());
    dst.series.insert(dst.series.end(), src.series.begin(),
                      src.series.end());
}

} // namespace

IntervalGeometry
intervalGeometry(const ExperimentConfig &config)
{
    // Fair-share lane split: the five online estimators divide the
    // 64-lane error plane, each getting min(requested, 64/5 = 12)
    // lanes. With L lanes per estimator an N-injection estimation
    // interval closes in ceil(N/L) window boundaries, so the interval
    // length every fixed-period observer (utilization, occupancy,
    // SoftArch reference) must march to compresses accordingly.
    // lanes = 1 keeps the historical serial interval exactly; lanes
    // = 0 is the default lane count, RunOptions{}.lanes.
    const int requested = config.online.lanes > 0
                              ? config.online.lanes
                              : RunOptions{}.lanes;
    IntervalGeometry g;
    g.lanesPerEstimator = std::max(
        1, std::min(requested,
                    numErrorChannels / core::numStructures));
    const auto lanes = static_cast<std::uint32_t>(g.lanesPerEstimator);
    g.boundaries = (config.online.n + lanes - 1) / lanes;
    g.intervalCycles = config.online.m * g.boundaries;
    // Lane-compressed intervals can be shorter than the configured
    // ACE lookahead, which would make the reference's tail dominate
    // the run again and forfeit the compression. Clamp it to one
    // interval — but only in lane-parallel runs: serial (lanes=1)
    // campaigns keep the configured lookahead untouched so their
    // output stays byte-identical to the historical runs.
    g.lookahead = config.lookahead;
    if (g.lanesPerEstimator > 1)
        g.lookahead = std::min(g.lookahead, g.intervalCycles);
    return g;
}

namespace detail
{

ExperimentResult
runExperimentDirect(const ExperimentConfig &config)
{
    if (config.numIntervals <= 0)
        throw std::invalid_argument(
            "experiment: need at least one interval");
    if (config.online.m == 0 || config.online.n == 0)
        throw std::invalid_argument(
            "experiment: online M and N must be positive");
    if (config.online.lanes < 0 ||
        config.online.lanes > numErrorChannels)
        throw std::invalid_argument(
            "experiment: online lanes out of 0..64");

    const auto [per_est, boundaries, interval_len, eff_lookahead] =
        intervalGeometry(config);

    trace::SyntheticTraceGenerator generator(config.profile);
    cpu::Pipeline pipeline(config.cpu, generator);

    // One InjectionPort serves every estimator and probe of the run; it
    // must observe retirements before they poll window state, so it is
    // the first observer attached. Each reserves its lanes from it in
    // construction order: the estimators in structure order (lane
    // channelOf(s) at lanes=1), then the coverage probes.
    core::InjectionPort port(pipeline);
    pipeline.addObserver(&port);

    core::OnlineConfig online_conf = config.online;
    online_conf.lanes = per_est;

    // The estimator roster, iterated generically below: online
    // estimators first (one per structure, slot = structure index),
    // then the utilization baselines and the occupancy baseline.
    std::vector<std::unique_ptr<core::AvfEstimator>> estimators;
    for (int s = 0; s < core::numStructures; ++s)
        estimators.push_back(
            std::make_unique<core::OnlineAvfEstimator>(
                pipeline, static_cast<Structure>(s), online_conf,
                &port));
    const std::size_t util_fxu_slot = estimators.size();
    estimators.push_back(std::make_unique<core::UtilizationEstimator>(
        pipeline, cpu::FuClass::Fxu, interval_len));
    estimators.push_back(std::make_unique<core::UtilizationEstimator>(
        pipeline, cpu::FuClass::Fpu, interval_len));
    const std::size_t occupancy_slot = estimators.size();
    estimators.push_back(std::make_unique<core::OccupancyEstimator>(
        pipeline, interval_len));

    // SoftArch reference (attached between the online estimators and
    // the counter baselines, matching the historical observer order).
    softarch::SoftArchConfig sa_conf;
    sa_conf.intervalCycles = interval_len;
    sa_conf.lookahead = eff_lookahead;
    sa_conf.fieldGranularIq = config.online.fieldGranularIq;
    softarch::AceAnalyzer reference(pipeline, sa_conf);

    for (std::size_t i = 0; i < util_fxu_slot; ++i)
        pipeline.addObserver(estimators[i].get());
    pipeline.addObserver(&reference);
    for (std::size_t i = util_fxu_slot; i < estimators.size(); ++i)
        pipeline.addObserver(estimators[i].get());

    // Regression features ride along so engine campaigns can fit and
    // evaluate the Walcott-style estimator without a second pass.
    core::FeatureCollector features(pipeline, interval_len);
    pipeline.addObserver(&features);

    // Lifecycle tracing: the tracker sees every injection open/close
    // from the estimators (LifecycleSink) and every error-bit hop from
    // the pipeline (onErrorHop). The window length must match the
    // estimators' M so expiry latency lands on the histogram edge.
    std::unique_ptr<obs::LifecycleTracker> tracker;
    if (config.lifecycle.enabled) {
        obs::LifecycleConfig lc_conf = config.lifecycle;
        lc_conf.windowCycles = config.online.m;
        tracker = std::make_unique<obs::LifecycleTracker>(lc_conf);
        pipeline.addObserver(tracker.get()); // onRetire failure watch
        pipeline.setHopSink(tracker.get());  // onErrorHop fast path
    }

    // Root-cause attribution: every closed window is charged to a
    // blame site (unit, phase, PC, op). Three coverage probes extend
    // injection to the structures the estimator roster never touches
    // — fetch buffer, rename map, branch predictor — each on its own
    // reserved lane (5 estimators x <= 12 lanes + 3 probes <= 63, so
    // the lane budget always closes). Probe N is the interval's
    // boundary count: one probe estimate per estimation interval.
    std::unique_ptr<obs::AttributionTracker> attribution;
    std::vector<std::unique_ptr<obs::CoverageProbe>> probes;
    if (config.attribution.enabled) {
        obs::AttributionConfig at_conf = config.attribution;
        if (at_conf.phaseCycles == 0)
            at_conf.phaseCycles = interval_len;
        if (at_conf.phaseCount == 0)
            at_conf.phaseCount =
                static_cast<std::uint32_t>(config.numIntervals);
        attribution =
            std::make_unique<obs::AttributionTracker>(at_conf);
        obs::CoverageProbeConfig probe_conf;
        probe_conf.m = config.online.m;
        probe_conf.n = static_cast<std::uint32_t>(boundaries);
        for (int t = 0; t < obs::numCoverageTargets; ++t) {
            probes.push_back(std::make_unique<obs::CoverageProbe>(
                pipeline, port, *attribution,
                static_cast<obs::CoverageTarget>(t), probe_conf));
            pipeline.addObserver(probes.back().get());
        }
    }

    // Estimator sink wiring: the lifecycle tracker and the
    // attribution tracker both watch through the one sink slot each
    // estimator has, teed when both are on.
    std::unique_ptr<obs::LifecycleTee> sink_tee;
    core::LifecycleSink *estimator_sink = nullptr;
    if (tracker && attribution) {
        sink_tee = std::make_unique<obs::LifecycleTee>(*tracker,
                                                       *attribution);
        estimator_sink = sink_tee.get();
    } else if (tracker) {
        estimator_sink = tracker.get();
    } else if (attribution) {
        estimator_sink = attribution.get();
    }
    if (estimator_sink) {
        for (int s = 0; s < core::numStructures; ++s) {
            static_cast<core::OnlineAvfEstimator *>(
                estimators[static_cast<std::size_t>(s)].get())
                ->setLifecycleSink(estimator_sink);
        }
    }

    // Closed-loop control (fully gated: a run without control attaches
    // nothing and stays byte-identical to the uncontrolled build). The
    // feed is attached after every estimator so a window that closes
    // in cycle C publishes in cycle C; the controller is attached
    // after the feed so it decides on fresh rows the same cycle. The
    // controller reads exclusively from the feed's published metrics
    // series — it holds no estimator reference.
    std::unique_ptr<obs::ControlFeed> feed;
    std::unique_ptr<reliability::BudgetArbiter> arbiter;
    std::unique_ptr<control::ThrottleController> controller;
    if (config.control.enabled) {
        feed = std::make_unique<obs::ControlFeed>(
            config.control.reportLatencyCycles);
        for (int s = 0; s < core::numStructures; ++s)
            feed->attachAvf(
                static_cast<Structure>(s),
                *estimators[static_cast<std::size_t>(s)]);
        feed->attachOccupancy(*estimators[occupancy_slot]);
        pipeline.addObserver(feed.get());
        if (config.control.mttfBudgetHours > 0.0)
            arbiter = std::make_unique<reliability::BudgetArbiter>(
                reliability::FitModel(
                    reliability::defaultFitModel(config.cpu)),
                config.control.mttfBudgetHours);
        controller = std::make_unique<control::ThrottleController>(
            pipeline, *feed, config.control.throttle, arbiter.get());
        pipeline.addObserver(controller.get());
    }

    // Simulate: numIntervals intervals plus the SoftArch lookahead
    // (plus one spare window so every boundary event fires).
    const Cycle total = interval_len *
        static_cast<Cycle>(config.numIntervals) +
        eff_lookahead + config.online.m;
    pipeline.run(total);
    reference.finalizeAll(static_cast<std::size_t>(
        config.numIntervals - 1));

    ExperimentResult result;
    result.benchmark = config.profile.name;

    auto intervals_available = static_cast<std::size_t>(
        config.numIntervals);
    for (const auto &est : estimators)
        intervals_available = std::min(intervals_available,
                                       est->estimates().size());
    intervals_available = std::min(intervals_available,
                                   reference.results().size());
    intervals_available = std::min(intervals_available,
                                   features.features().size());
    if (intervals_available <
        static_cast<std::size_t>(config.numIntervals)) {
        warn("experiment '%s': only %zu of %d intervals completed",
             config.profile.name.c_str(), intervals_available,
             config.numIntervals);
    }

    result.intervals.resize(intervals_available);
    for (std::size_t k = 0; k < intervals_available; ++k) {
        auto &row = result.intervals[k];
        for (int s = 0; s < core::numStructures; ++s)
            row.online[static_cast<std::size_t>(s)] =
                estimators[static_cast<std::size_t>(s)]
                    ->estimates()[k];
        for (int s = 0; s < core::numStructures; ++s)
            row.softarch[static_cast<std::size_t>(s)] =
                reference.results()[k].avf[static_cast<std::size_t>(s)];
        row.utilization[0] =
            estimators[util_fxu_slot]->estimates()[k];
        row.utilization[1] =
            estimators[util_fxu_slot + 1]->estimates()[k];
        row.occupancy = estimators[occupancy_slot]->estimates()[k];
    }
    result.features.assign(
        features.features().begin(),
        features.features().begin() +
            static_cast<std::ptrdiff_t>(intervals_available));

    const auto &stats = pipeline.stats();
    result.summary.ipc = stats.ipc();
    result.summary.branchAccuracy =
        pipeline.branchPredictor().stats().accuracy();
    result.summary.l1dMissRate = pipeline.memory().l1d().stats()
        .missRate();
    result.summary.l2MissRate = pipeline.memory().l2().stats()
        .missRate();
    const auto &dtlb = pipeline.memory().dtlb().stats();
    result.summary.dtlbMissRate = dtlb.accesses
        ? static_cast<double>(dtlb.misses) /
              static_cast<double>(dtlb.accesses)
        : 0.0;
    result.summary.cycles = stats.cycles;
    result.summary.retired = stats.retired;

    if (tracker) {
        // Self-check: the tracker's ledger must agree with each online
        // estimator's own counters. They watch the same retirement
        // stream independently, so any divergence is a real bug — fail
        // the task rather than export inconsistent data.
        for (int s = 0; s < core::numStructures; ++s) {
            const auto *est = static_cast<core::OnlineAvfEstimator *>(
                estimators[static_cast<std::size_t>(s)].get());
            std::string mismatch = tracker->reconcile(*est);
            if (!mismatch.empty())
                throw std::runtime_error(
                    "experiment '" + config.profile.name + "': " +
                    mismatch);
        }
        result.lifecycle = tracker->summary();
        result.summary.lifecycleRecords = result.lifecycle.totalClosed();
        result.summary.lifecycleFailures =
            result.lifecycle.totalFailures();
        result.summary.lifecycleKilled =
            result.lifecycle.totalWithOutcome(obs::Outcome::Killed);
        result.summary.lifecycleExpired =
            result.lifecycle.totalWithOutcome(obs::Outcome::Expired);
    }
    if (attribution)
        result.attribution = attribution->snapshot();
    if (controller) {
        auto &ctl = result.control;
        ctl.enabled = true;
        ctl.intervals = controller->intervals();
        ctl.throttledIntervals = controller->throttledIntervals();
        ctl.engagements = controller->engagements();
        ctl.actuations = controller->actuations();
        ctl.budgetExceededIntervals =
            controller->budgetExceededIntervals();
        ctl.protectActions = controller->protectActions();
        ctl.firstTarget = controller->firstTargetStructure();
        if (arbiter) {
            ctl.projectedMttfHours =
                arbiter->tracker().projectedMttfHours();
            for (int s = 0; s < core::numStructures; ++s)
                ctl.coverage[static_cast<std::size_t>(s)] =
                    arbiter->coverageOf(static_cast<Structure>(s));
        }
    }
    if (config.metrics) {
        result.metrics = collectRunMetrics(result, pipeline,
                                           estimators);
        // The decision trail exports through the same snapshot, read
        // from the very storage the controller decided on.
        if (feed)
            appendSnapshot(result.metrics,
                           feed->shard().snapshot());
    }
    // Quiesce-point snapshots for the serve layer's checkpoints: the
    // roster in construction order, then a synthetic entry for the
    // shared port's lane masks (diagnostic — resume re-reserves lanes
    // by rebuilding the roster, it never replays masks).
    result.estimatorStates.reserve(estimators.size() +
                                   probes.size() + 1);
    for (const auto &est : estimators)
        result.estimatorStates.push_back(est->snapshotState());
    for (const auto &probe : probes)
        result.estimatorStates.push_back(probe->snapshotState());
    core::EstimatorState port_state;
    port_state.name = "port";
    port_state.counters = {
        {"reserved_mask", port.reservedMask()},
        {"open_mask", port.openMask()},
    };
    result.estimatorStates.push_back(std::move(port_state));
    return result;
}

} // namespace detail

ExperimentResult
runExperiment(const ExperimentConfig &config)
{
    return detail::runExperimentDirect(config);
}

} // namespace avf::harness
