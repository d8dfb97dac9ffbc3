/**
 * @file
 * The other related-work estimator the paper discusses (Section 2):
 * Walcott et al. predict AVF from observable microarchitectural
 * variables via regression fitted offline on training workloads.
 * "It requires heavy offline simulation and calibration for
 * different workloads. It is not clear that the parameters
 * calibrated for one set of workloads will give accurate estimation
 * for another set." We implement it faithfully — per-interval
 * feature extraction, ridge-regularized least squares, online
 * application — so the cross-workload-generalization question can
 * be answered experimentally (bench/ablation_regression).
 */

#ifndef AVF_CORE_REGRESSION_ESTIMATOR_HH
#define AVF_CORE_REGRESSION_ESTIMATOR_HH

#include <array>
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

    // counter snapshots at the last interval boundary
    std::uint64_t lastIqOcc = 0;
    std::uint64_t lastRobOcc = 0;
    std::uint64_t lastBusy[4] = {0, 0, 0, 0};
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

    /**
     * Install weights directly (marks the model trained). The
     * restore path for serve checkpoints: a calibration fitted in
     * one process is reinstalled in another without refitting.
     */
    void setWeights(const FeatureVector &w)
    {
        coeff = w;
        isTrained = true;
    }

    /** True once fit() has run. */
    bool trained() const { return isTrained; }

  private:
    FeatureVector coeff{};
    bool isTrained = false;
};

/**
 * The Walcott-style estimator as a single AvfEstimator: a
 * FeatureCollector attached to the pipeline plus a LinearAvfModel
 * (typically fitted offline on training workloads). estimates()
 * yields one prediction per completed interval; until a trained
 * model is supplied it stays empty — the regression approach cannot
 * produce numbers without calibration, which is exactly the paper's
 * criticism of it.
 */
class RegressionEstimator : public AvfEstimator
{
  public:
    /**
     * @param pipe pipeline to watch (caller attaches).
     * @param intervalCycles estimation-interval length.
     * @param model prediction model; may be untrained and replaced
     *        later via setModel().
     */
    RegressionEstimator(const cpu::Pipeline &pipe,
                        Cycle intervalCycles,
                        LinearAvfModel model = LinearAvfModel{});

    void onRetire(const cpu::DynInstr &instr,
                  const cpu::RetireInfo &info) override;
    void onCycle(Cycle now) override;
    Cycle nextWake(Cycle now) const override
    {
        return collector.nextWake(now);
    }

    /** "regression:iq" (the model is calibrated against IQ AVF). */
    std::string name() const override;

    /** Per-interval predictions; empty until the model is trained. */
    const std::vector<double> &estimates() const override;

    /** Latest completed-interval prediction (regression has no
     *  intra-interval visibility); 0 when none. */
    double partialAvf() const override;

    /** Install a (trained) model; predictions recompute lazily. */
    void setModel(LinearAvfModel model);

    /**
     * The calibration (model weights + trained flag), not the
     * feature history: predictions always recompute lazily from the
     * local collector, so a restored estimator reports exactly what
     * a same-calibration estimator over the same pipeline would. The
     * snapshot's estimates field is informational only.
     */
    EstimatorState snapshotState() const override;
    void restoreState(const EstimatorState &state) override;

    /** Raw per-interval feature rows (for offline fitting). */
    const std::vector<FeatureVector> &features() const
    {
        return collector.features();
    }

  private:
    FeatureCollector collector;
    LinearAvfModel model;
    /** Cache of model.predictSeries(features()), refreshed lazily. */
    mutable std::vector<double> cached;
};

} // namespace avf::core

#endif // AVF_CORE_REGRESSION_ESTIMATOR_HH
