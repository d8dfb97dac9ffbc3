/**
 * @file
 * The other related-work estimator the paper discusses (Section 2):
 * Walcott et al. predict AVF from observable microarchitectural
 * variables via regression fitted offline on training workloads.
 * "It requires heavy offline simulation and calibration for
 * different workloads. It is not clear that the parameters
 * calibrated for one set of workloads will give accurate estimation
 * for another set." We implement its two halves faithfully —
 * per-interval feature extraction (FeatureCollector, attached by the
 * experiment driver) and ridge-regularized least squares
 * (LinearAvfModel, fitted and applied offline over
 * ExperimentResult::features) — so the cross-workload-generalization
 * question can be answered experimentally
 * (bench/ablation_regression).
 */

#ifndef AVF_CORE_REGRESSION_ESTIMATOR_HH
#define AVF_CORE_REGRESSION_ESTIMATOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/counter_baseline.hh"
#include "cpu/observer.hh"
#include "cpu/pipeline.hh"
#include "util/interval_ticker.hh"
#include "util/types.hh"

namespace avf::core
{

/** Number of regression features (including the intercept). */
inline constexpr int numRegressionFeatures = 9;

/** One interval's feature vector. */
using FeatureVector = std::array<double, numRegressionFeatures>;

/**
 * Collects the per-interval microarchitectural variables the
 * regression consumes: occupancies, unit utilizations, instruction
 * mix, and IPC — all hardware-countable, as in Walcott et al.
 */
class FeatureCollector : public cpu::PipelineObserver
{
  public:
    /**
     * @param pipe pipeline to watch (caller attaches).
     * @param intervalCycles estimation-interval length.
     */
    FeatureCollector(const cpu::Pipeline &pipe, Cycle intervalCycles);

    unsigned hooks() const override { return cpu::hookRetire; }
    void onRetire(const cpu::DynInstr &instr,
                  const cpu::RetireInfo &info) override;
    void onCycle(Cycle now) override;
    Cycle nextWake(Cycle now) const override
    {
        return boundaryTick.next(now);
    }

    /** One feature vector per completed interval. */
    const std::vector<FeatureVector> &features() const
    {
        return rows;
    }

  private:
    const cpu::Pipeline &pipeline;
    Cycle intervalLen;
    /** Fires on interval-closing cycles ((now + 1) % len == 0). */
    IntervalTicker boundaryTick;

    // columns 1-4: occupancies and utilizations, the counter
    // baselines' ratio
    CounterSampler iqOccupancy;
    CounterSampler robOccupancy;
    CounterSampler fxuBusy;
    CounterSampler fpuBusy;
    // retired count at the last interval boundary
    std::uint64_t lastRetired = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;

    std::vector<FeatureVector> rows;
};

/** Ridge-regularized linear model over the feature vector. */
class LinearAvfModel
{
  public:
    /**
     * Fit weights minimizing ||X w - y||^2 + ridge ||w||^2 by
     * solving the normal equations.
     *
     * @param features training rows.
     * @param targets reference AVFs, same length.
     * @param ridge regularizer (> 0 keeps the solve well-posed).
     */
    void fit(const std::vector<FeatureVector> &features,
             const std::vector<double> &targets,
             double ridge = 1e-6);

    /** Predicted AVF for one feature vector, clamped to [0, 1]. */
    double predict(const FeatureVector &row) const;

    /** Predictions for a whole series. */
    std::vector<double>
    predictSeries(const std::vector<FeatureVector> &rows) const;

    /** Fitted weights (intercept first). */
    const FeatureVector &weights() const { return coeff; }

    /** True once fit() has run. */
    bool trained() const { return isTrained; }

  private:
    FeatureVector coeff{};
    bool isTrained = false;
};

} // namespace avf::core

#endif // AVF_CORE_REGRESSION_ESTIMATOR_HH
