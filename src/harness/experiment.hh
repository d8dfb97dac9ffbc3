/**
 * @file
 * Shared experiment driver: runs one workload on the Table 1 machine
 * with the full estimator roster attached — the online estimator for
 * every structure, the SoftArch reference, the utilization and
 * occupancy counter baselines, and the regression feature collector —
 * and returns the per-interval AVF series, the raw material for
 * Figures 2 through 5 and every ablation.
 *
 * runExperiment() runs one experiment; campaigns (many workloads or
 * configs) should go through harness::ExperimentEngine (engine.hh),
 * which fans tasks out over a worker pool with deterministic results.
 */

#ifndef AVF_HARNESS_EXPERIMENT_HH
#define AVF_HARNESS_EXPERIMENT_HH

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "control/throttle_controller.hh"
#include "core/online_estimator.hh"
#include "core/regression_estimator.hh"
#include "core/structures.hh"
#include "cpu/config.hh"
#include "obs/attribution.hh"
#include "obs/lifecycle.hh"
#include "obs/metrics.hh"
#include "trace/workload_profile.hh"
#include "util/types.hh"

namespace avf::harness
{

/**
 * Closed-loop control parameters (control/throttle_controller.hh).
 * Disabled by default: a run without control attaches no feed, no
 * arbiter, and no controller, so its output is byte-identical to a
 * build that predates the control loop.
 */
struct ControlConfig
{
    /** Master switch for the whole loop. */
    bool enabled = false;
    /**
     * MTTF budget in hours (AVF_MTTF_BUDGET_HOURS). Positive switches
     * the controller to budget mode behind a reliability::
     * BudgetArbiter over the default FIT model of the run's machine;
     * zero keeps the threshold policy in `throttle`.
     */
    double mttfBudgetHours = 0.0;
    /**
     * Delay between an estimation window closing and its value
     * becoming visible to the controller, in cycles (the
     * delayed-error-reporting regime, after Jaulmes et al.).
     */
    Cycle reportLatencyCycles = 0;
    /** Threshold-mode policy and actuation parameters. */
    control::ThrottleConfig throttle;
};

/** Full experiment parameters. */
struct ExperimentConfig
{
    /** Workload to synthesize. */
    trace::WorkloadProfile profile;
    /** Machine parameters (defaults = Table 1). */
    cpu::CpuConfig cpu;
    /** Online-estimator parameters (defaults = M = N = 1000). */
    core::OnlineConfig online;
    /** Number of estimation intervals to collect. */
    int numIntervals = 100;
    /** SoftArch lookahead in cycles. */
    Cycle lookahead = 32'768;
    /**
     * Injection-lifecycle tracing (src/obs). When enabled, every
     * online injection is tracked through its hops to an outcome,
     * the summary lands on ExperimentResult::lifecycle, and the run
     * hard-fails if the lifecycle ledger disagrees with the
     * estimators' own counters. windowCycles is overridden with the
     * resolved online.m automatically. Purely observational: AVF
     * estimates are byte-identical either way.
     */
    obs::LifecycleConfig lifecycle;
    /**
     * Root-cause attribution (obs/attribution.hh). When enabled,
     * every closed injection window — the five online estimators'
     * plus three extended-coverage probes over the fetch buffer,
     * rename map, and branch predictor — is charged to a blame site
     * (unit, phase, PC, opcode class) and the table lands on
     * ExperimentResult::attribution. phaseCycles == 0 inherits the
     * run's estimation interval length; phaseCount == 0 inherits
     * numIntervals. The probes inject on their own reserved lanes,
     * so the five structures' AVF estimates are byte-identical
     * either way.
     */
    obs::AttributionConfig attribution;
    /**
     * Populate ExperimentResult::metrics (obs/metrics.hh) from the
     * estimator roster, pipeline, and lifecycle counters after the
     * run. Filled post-run from state the simulation tracks anyway,
     * so the hot path is untouched and results are byte-identical
     * either way. ExperimentEngine::submit turns this on
     * automatically when RunOptions::metricsPrefix is set.
     */
    bool metrics = false;
    /**
     * Closed-loop throttling/protection against an MTTF budget.
     * ExperimentEngine::submit turns this on automatically when
     * RunOptions::mttfBudgetHours is positive.
     */
    ControlConfig control;
    /**
     * Snapshot every estimator's reporting state into
     * ExperimentResult::estimatorStates after the run (see
     * core::EstimatorState). Used by the serve layer's checkpoints;
     * purely post-run, so estimates are byte-identical either way.
     */
    bool snapshotEstimators = false;
};

/** One estimation interval's worth of results. */
struct IntervalResult
{
    /** Online estimates, indexed by core::Structure. */
    std::array<double, core::numStructures> online{};
    /** SoftArch reference AVFs, indexed by core::Structure. */
    std::array<double, core::numStructures> softarch{};
    /** Utilization baseline: [0] = FXU, [1] = FPU. */
    std::array<double, 2> utilization{};
    /** Occupancy baseline for the issue queue. */
    double occupancy = 0.0;
};

/** Aggregate run-level metrics. */
struct RunSummary
{
    double ipc = 0.0;
    double branchAccuracy = 0.0;
    double l1dMissRate = 0.0;
    double l2MissRate = 0.0;
    double dtlbMissRate = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;

    /**
     * Lifecycle digest (all zero when tracing was off), summed over
     * structures so campaign progress callbacks (ExperimentEngine::
     * onTaskDone) can report injection outcomes live per task.
     */
    std::uint64_t lifecycleRecords = 0;
    std::uint64_t lifecycleFailures = 0;
    std::uint64_t lifecycleKilled = 0;
    std::uint64_t lifecycleExpired = 0;
};

/**
 * Decision-loop digest of one run (all defaults when the run was
 * configured without ExperimentConfig::control). The full per-interval
 * decision trail lives in the metrics snapshot (control_* / budget_*
 * names); this is the scalar summary benches print.
 */
struct ControlSummary
{
    /** True when a controller ran. */
    bool enabled = false;
    /** Estimation intervals the controller decided on. */
    std::uint64_t intervals = 0;
    /** Intervals spent with the throttle engaged. */
    std::uint64_t throttledIntervals = 0;
    /** Off-to-on throttle transitions. */
    std::uint64_t engagements = 0;
    /** setDispatchThrottle() calls issued (transitions only). */
    std::uint64_t actuations = 0;
    /** Intervals decided while the MTTF budget was exceeded. */
    std::uint64_t budgetExceededIntervals = 0;
    /** Protect decisions (coverage raises) the arbiter issued. */
    std::uint64_t protectActions = 0;
    /** End-of-run projected MTTF (hours; +inf without a budget). */
    double projectedMttfHours =
        std::numeric_limits<double>::infinity();
    /** End-of-run protection coverage, indexed by core::Structure. */
    std::array<double, core::numStructures> coverage{};
    /** First over-budget arbitration target (core::Structure index),
     *  or -1 when the budget never tripped. */
    int firstTarget = -1;
};

/** Result of a full experiment. */
struct ExperimentResult
{
    std::string benchmark;
    std::vector<IntervalResult> intervals;
    /** Per-interval regression features (Walcott-style estimator). */
    std::vector<core::FeatureVector> features;
    RunSummary summary;
    /**
     * Injection-lifecycle summary (enabled == false when the run was
     * configured without tracing; see ExperimentConfig::lifecycle).
     */
    obs::LifecycleSummary lifecycle;
    /**
     * Root-cause attribution table (enabled == false when the run
     * was configured without ExperimentConfig::attribution). Rows in
     * canonical (unit, phase, pc, op) order; merges submission-order
     * across campaign tasks.
     */
    obs::AttributionSnapshot attribution;
    /**
     * Metrics snapshot (enabled == false when the run was configured
     * without ExperimentConfig::metrics). Deterministic by
     * construction: every value is a function of (trace, seed,
     * config), so campaign METRICS.json exports are byte-identical
     * across worker counts.
     */
    obs::MetricsSnapshot metrics;
    /** Control-loop digest (enabled == false when control was off). */
    ControlSummary control;
    /**
     * Post-run estimator state snapshots (empty unless
     * ExperimentConfig::snapshotEstimators). Roster order: the five
     * online estimators (structure order), utilization FXU, FPU,
     * occupancy, the coverage probes (when attribution is enabled),
     * then a synthetic "port" entry carrying the shared
     * InjectionPort's reserved/open lane masks.
     */
    std::vector<core::EstimatorState> estimatorStates;

    /** Extract one per-interval series. */
    std::vector<double> onlineSeries(core::Structure s) const;
    std::vector<double> softarchSeries(core::Structure s) const;
    /**
     * Utilization series. Utilization is defined for the logic
     * structures only: for any structure other than FXU/FPU this
     * returns an EMPTY vector (there is no meaningful data to read —
     * callers must not treat a zeroed array slot as a series).
     */
    std::vector<double> utilizationSeries(core::Structure s) const;
    /** Issue-queue occupancy baseline series. */
    std::vector<double> occupancySeries() const;
};

/**
 * Run one full experiment: simulate numIntervals estimation
 * intervals (plus lookahead), collecting online, SoftArch,
 * utilization, occupancy, and regression-feature data per interval.
 *
 * Runs on the calling thread, resolving online.lanes = 0 to the
 * default lane count as ExperimentEngine::submit does; a bad config
 * throws std::invalid_argument. Multi-experiment campaigns should use
 * the engine (engine.hh) and get the worker pool for free.
 */
ExperimentResult runExperiment(const ExperimentConfig &config);

namespace detail
{

/**
 * The experiment body: runs on the calling thread, no engine
 * involved. Throws std::invalid_argument on a bad config so the
 * engine can report per-task errors without aborting the campaign.
 */
ExperimentResult runExperimentDirect(const ExperimentConfig &config);

} // namespace detail

} // namespace avf::harness

#endif // AVF_HARNESS_EXPERIMENT_HH
