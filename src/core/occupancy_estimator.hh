/**
 * @file
 * Occupancy-based AVF baseline for storage structures, in the spirit
 * of Soundararajan et al. [16] (Section 2 of the paper): estimate the
 * issue queue's AVF as its average occupancy divided by its capacity.
 * Like utilization for logic structures, occupancy is cheap to count
 * in hardware but blind to dead values and un-ACE instructions, so it
 * upper-bounds the real AVF. Included as the second baseline the
 * paper discusses.
 */

#ifndef AVF_CORE_OCCUPANCY_ESTIMATOR_HH
#define AVF_CORE_OCCUPANCY_ESTIMATOR_HH

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

/** Per-interval issue-queue occupancy / capacity. */
class OccupancyEstimator : public AvfEstimator
{
  public:
    /**
     * @param pipe pipeline to watch (caller attaches).
     * @param intervalCycles estimation-interval length (M * N).
     */
    OccupancyEstimator(const cpu::Pipeline &pipe,
                       Cycle intervalCycles);

    void onCycle(Cycle now) override;
    Cycle nextWake(Cycle now) const override
    {
        return boundaryTick.next(now);
    }

    /** "occupancy:iq". */
    std::string name() const override;

    /** Per-interval occupancy fraction in [0, 1]. */
    const std::vector<double> &estimates() const override
    {
        return results;
    }

    /** Mean occupancy fraction over the open interval so far. */
    double partialAvf() const override;

    /** The occupancy-sum snapshot and the completed estimates. */
    EstimatorState snapshotState() const override;
    void restoreState(const EstimatorState &state) override;

  private:
    const cpu::Pipeline &pipeline;
    Cycle intervalLen;
    /** Fires on interval-closing cycles ((now + 1) % len == 0). */
    IntervalTicker boundaryTick;
    std::uint64_t lastOccupancySum = 0;
    std::vector<double> results;
};

} // namespace avf::core

#endif // AVF_CORE_OCCUPANCY_ESTIMATOR_HH
