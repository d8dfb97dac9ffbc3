/**
 * @file
 * Streaming first/second-moment accumulation (Welford) plus min/max,
 * used for every error metric reported by the benches.
 */

#ifndef AVF_STATS_RUNNING_STATS_HH
#define AVF_STATS_RUNNING_STATS_HH

#include <cstdint>
#include <limits>
#include <vector>

namespace avf::stats
{

/** Numerically stable streaming mean / variance / extrema. */
class RunningStats
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double x);

    /** Number of samples added. */
    std::uint64_t count() const { return n; }

    /** Sample mean (0 when empty). */
    double mean() const { return n ? meanAcc : 0.0; }

    /** Unbiased sample variance (0 when fewer than two samples). */
    double variance() const;

    /** sqrt(variance()). */
    double stddev() const;

    /** Population variance (divides by n). */
    double populationVariance() const;

    /** Smallest sample seen (+inf when empty). */
    double min() const { return minVal; }

    /** Largest sample seen (-inf when empty). */
    double max() const { return maxVal; }

    /** Sum of all samples. */
    double sum() const { return meanAcc * static_cast<double>(n); }

    /** Merge another accumulator into this one (parallel Welford). */
    void merge(const RunningStats &other);

    /** Reset to the empty state. */
    void clear();

  private:
    std::uint64_t n = 0;
    double meanAcc = 0.0;
    double m2 = 0.0;
    double minVal = std::numeric_limits<double>::infinity();
    double maxVal = -std::numeric_limits<double>::infinity();
};

/**
 * The mean of @p values as a RunningStats accumulates it, in order
 * (0 when empty) — not sum-then-divide, so the last digit can differ
 * from a plain average.
 */
double mean(const std::vector<double> &values);

} // namespace avf::stats

#endif // AVF_STATS_RUNNING_STATS_HH
