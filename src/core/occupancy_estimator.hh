/**
 * @file
 * Occupancy-based AVF baseline for storage structures, in the spirit
 * of Soundararajan et al. [16] (Section 2 of the paper): estimate the
 * issue queue's AVF as its average occupancy divided by its capacity.
 * A CounterBaseline over the pipeline's IQ occupancy sum. Like
 * utilization for logic structures, occupancy is cheap to count in
 * hardware but blind to dead values and un-ACE instructions, so it
 * upper-bounds the real AVF. Included as the second baseline the
 * paper discusses.
 */

#ifndef AVF_CORE_OCCUPANCY_ESTIMATOR_HH
#define AVF_CORE_OCCUPANCY_ESTIMATOR_HH

#include "core/counter_baseline.hh"
#include "cpu/pipeline.hh"
#include "util/types.hh"

namespace avf::core
{

/** Per-interval issue-queue occupancy / capacity, "occupancy:iq". */
class OccupancyEstimator : public CounterBaseline
{
  public:
    /**
     * @param pipe pipeline to watch (caller attaches).
     * @param intervalCycles estimation-interval length (M * N).
     */
    OccupancyEstimator(const cpu::Pipeline &pipe, Cycle intervalCycles)
        : CounterBaseline(pipe.stats().iqOccupancySum,
                          pipe.totalIqEntries(), intervalCycles,
                          "occupancy:iq", "last_occupancy_sum")
    {}
};

} // namespace avf::core

#endif // AVF_CORE_OCCUPANCY_ESTIMATOR_HH
