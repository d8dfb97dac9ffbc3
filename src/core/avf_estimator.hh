/**
 * @file
 * Common interface for every AVF estimator in core/: the paper's
 * online error-bit estimator and the TLB extension (injection
 * campaigns), and the utilization and occupancy counter baselines all
 * expose the same three observables — a name, the per-interval
 * estimates and a snapshot of the reporting state — so the harness and
 * benches can iterate estimator sets generically instead of
 * hard-coding each class.
 */

#ifndef AVF_CORE_AVF_ESTIMATOR_HH
#define AVF_CORE_AVF_ESTIMATOR_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cpu/observer.hh"

namespace avf::core
{

/**
 * Plain-data record of one estimator's accumulated reporting state:
 * the per-interval estimates plus the named counters behind them.
 * Snapshots are taken at quiesce points (interval boundaries or end
 * of run) and travel in task results and serve checkpoints as a
 * record; nothing restores an estimator from one — the serve layer's
 * crash-resume recomputes an interrupted slice from its config, which
 * is both cheaper and exactly deterministic (see DESIGN.md §13).
 * In-flight microarchitectural window state is not captured.
 *
 * Entry order is fixed per family, so equal states serialize to equal
 * bytes through harness/task_codec.
 */
struct EstimatorState
{
    /** Producing estimator's name(). */
    std::string name;
    /** Monotonic counters (injections, failures, cursors, ...). */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /**
     * Real-valued state. No estimator fills it; it stays because its
     * (empty) encoding is part of every pinned checkpoint's bytes.
     */
    std::vector<std::pair<std::string, double>> values;
    /** Completed per-interval estimates at snapshot time. */
    std::vector<double> estimates;

    /** Counter by name; 0 when absent. */
    std::uint64_t counterValue(std::string_view key) const
    {
        for (const auto &[name_, v] : counters)
            if (name_ == key)
                return v;
        return 0;
    }
};

/**
 * An AVF estimator attached to the pipeline as an observer. Estimates
 * accumulate one value per completed estimation interval.
 */
class AvfEstimator : public cpu::PipelineObserver
{
  public:
    ~AvfEstimator() override = default;

    /** Stable display name, "method:target" (e.g. "online:iq"). */
    virtual std::string name() const = 0;

    /** Completed per-interval AVF estimates, oldest first. */
    virtual const std::vector<double> &estimates() const = 0;

    /** Copy the accumulated reporting state (see EstimatorState). */
    virtual EstimatorState snapshotState() const = 0;
};

} // namespace avf::core

#endif // AVF_CORE_AVF_ESTIMATOR_HH
