/**
 * @file
 * The utilization-based baseline estimator (Section 4): the AVF of a
 * logic structure is approximated by its utilization — busy
 * unit-cycles over total unit-cycles. A CounterBaseline over the
 * pipeline's busy-unit-cycle counter. The paper (and our results)
 * show this proxy misses dead-value masking and therefore
 * overestimates AVF, often badly.
 */

#ifndef AVF_CORE_UTILIZATION_ESTIMATOR_HH
#define AVF_CORE_UTILIZATION_ESTIMATOR_HH

#include "core/counter_baseline.hh"
#include "cpu/pipeline.hh"
#include "util/types.hh"

namespace avf::core
{

/**
 * Per-interval utilization of one functional-unit class, named
 * "utilization:<unit class>" (e.g. "utilization:fxu").
 */
class UtilizationEstimator : public CounterBaseline
{
  public:
    /**
     * @param pipe pipeline to watch (caller attaches).
     * @param cls unit class (FXU or FPU in the paper).
     * @param intervalCycles estimation-interval length (M * N).
     */
    UtilizationEstimator(const cpu::Pipeline &pipe, cpu::FuClass cls,
                         Cycle intervalCycles);
};

} // namespace avf::core

#endif // AVF_CORE_UTILIZATION_ESTIMATOR_HH
