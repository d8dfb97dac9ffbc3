/**
 * @file
 * The counter baselines the paper compares its online estimator
 * against: utilization for logic structures (Section 4) and occupancy
 * for storage structures (Soundararajan et al. [16], Section 2). Both
 * are one mechanism — sample a monotonic pipeline counter at
 * estimation-interval boundaries and report its growth over the
 * interval divided by (interval length * capacity) — pointed at a
 * different counter. Cheap to count in hardware, but blind to dead
 * values and un-ACE instructions, so both upper-bound the real AVF,
 * often badly. The ratio itself is CounterSampler, which the
 * regression's FeatureCollector shares for its occupancy and
 * utilization columns.
 */

#ifndef AVF_CORE_COUNTER_BASELINE_HH
#define AVF_CORE_COUNTER_BASELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/avf_estimator.hh"
#include "util/interval_ticker.hh"
#include "util/types.hh"

namespace avf::core
{

/**
 * One monotonic counter sampled at interval boundaries: each sample
 * is its growth since the previous one over (interval length *
 * capacity).
 */
class CounterSampler
{
  public:
    /**
     * @param source monotonic counter that grows by up to @p units
     *        per cycle (the caller keeps it alive).
     * @param units capacity: units or entries the counter spans.
     * @param intervalCycles cycles between samples.
     */
    CounterSampler(const std::uint64_t &source, int units,
                   Cycle intervalCycles)
        : counter(source), capacity(units), intervalLen(intervalCycles)
    {}

    /** The fraction over the interval just ended; advances last(). */
    double
    sample()
    {
        std::uint64_t delta = counter - lastSample;
        lastSample = counter;
        return static_cast<double>(delta) /
               (static_cast<double>(intervalLen) *
                static_cast<double>(capacity));
    }

    /** The counter's value at the last sample (0 before any). */
    std::uint64_t last() const { return lastSample; }

  private:
    const std::uint64_t &counter;
    int capacity;
    Cycle intervalLen;
    std::uint64_t lastSample = 0;
};

/** Per-interval counter growth / (interval length * capacity). */
class CounterBaseline : public AvfEstimator
{
  public:
    /**
     * @param source monotonic pipeline counter that grows by up to
     *        @p units per cycle (the caller keeps it alive).
     * @param units capacity: units or entries the counter spans.
     * @param intervalCycles estimation-interval length (M * N).
     * @param estimatorName the name() to report.
     * @param snapshotKey EstimatorState counter key of the last
     *        boundary sample.
     */
    CounterBaseline(const std::uint64_t &source, int units,
                    Cycle intervalCycles, std::string estimatorName,
                    const char *snapshotKey);

    /** Reads its counter source in onCycle alone. */
    unsigned hooks() const override { return 0; }
    void onCycle(Cycle now) override;
    Cycle nextWake(Cycle now) const override
    {
        return boundaryTick.next(now);
    }

    std::string name() const override { return label; }

    /** Per-interval fraction in [0, 1]. */
    const std::vector<double> &estimates() const override
    {
        return results;
    }

    /** The last boundary sample and the completed estimates. */
    EstimatorState snapshotState() const override;

  private:
    CounterSampler sampler;
    /** Fires on interval-closing cycles ((now + 1) % len == 0). */
    IntervalTicker boundaryTick;
    std::string label;
    const char *sampleKey;
    std::vector<double> results;
};

} // namespace avf::core

#endif // AVF_CORE_COUNTER_BASELINE_HH
