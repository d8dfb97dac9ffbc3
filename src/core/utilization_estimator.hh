/**
 * @file
 * The utilization-based baseline estimator (Section 4): the AVF of a
 * logic structure is approximated by its utilization — busy
 * unit-cycles over total unit-cycles. Implemented as a pipeline
 * observer sampling the busy counters at estimation-interval
 * boundaries. The paper (and our results) show this proxy misses
 * dead-value masking and therefore overestimates AVF, often badly.
 */

#ifndef AVF_CORE_UTILIZATION_ESTIMATOR_HH
#define AVF_CORE_UTILIZATION_ESTIMATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/avf_estimator.hh"
#include "cpu/observer.hh"
#include "cpu/pipeline.hh"
#include "util/interval_ticker.hh"
#include "util/types.hh"

namespace avf::core
{

/** Per-interval utilization of one functional-unit class. */
class UtilizationEstimator : public AvfEstimator
{
  public:
    /**
     * @param pipe pipeline to watch (caller attaches).
     * @param cls unit class (FXU or FPU in the paper).
     * @param intervalCycles estimation-interval length (M * N).
     */
    UtilizationEstimator(const cpu::Pipeline &pipe, cpu::FuClass cls,
                         Cycle intervalCycles);

    void onCycle(Cycle now) override;
    Cycle nextWake(Cycle now) const override
    {
        return boundaryTick.next(now);
    }

    /** "utilization:<unit class>", e.g. "utilization:fxu". */
    std::string name() const override;

    /** Per-interval utilization in [0, 1]. */
    const std::vector<double> &estimates() const override
    {
        return results;
    }

    /** Mean utilization over the open interval so far. */
    double partialAvf() const override;

    /** The busy-counter snapshot and the completed estimates. */
    EstimatorState snapshotState() const override;
    void restoreState(const EstimatorState &state) override;

  private:
    const cpu::Pipeline &pipeline;
    cpu::FuClass fuClass;
    Cycle intervalLen;
    /** Fires on interval-closing cycles ((now + 1) % len == 0). */
    IntervalTicker boundaryTick;
    std::uint64_t lastBusy = 0;
    std::vector<double> results;
};

} // namespace avf::core

#endif // AVF_CORE_UTILIZATION_ESTIMATOR_HH
