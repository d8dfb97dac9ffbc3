/**
 * @file
 * Online AVF estimator for the data TLB — the experiment the paper
 * could not afford (footnote 1: a reasonable M for TLBs is close to
 * one million cycles, so one AVF estimate costs a billion cycles of
 * simulation; our simulator is fast enough to demonstrate the effect
 * directly). The machinery is Algorithm 1 verbatim — the
 * core::InjectionCampaign loop over the dTLB entry slots
 * (cpu::InjectTarget::Dtlb), a wait window of M cycles, and failure when a
 * load or store retires having used the corrupted translation — on one
 * lane reserved from the caller's injection port, beside any other
 * campaign on the same pipeline.
 */

#ifndef AVF_CORE_TLB_ESTIMATOR_HH
#define AVF_CORE_TLB_ESTIMATOR_HH

#include <cstdint>
#include <span>
#include <string>

#include "core/injection_campaign.hh"

namespace avf::core
{

/** Estimator parameters for the TLB experiment. */
struct TlbEstimatorConfig
{
    /** Wait window in cycles (TLBs need very large values). */
    Cycle m = 100'000;
    /** Injections per estimate. */
    std::uint32_t n = 100;
};

/** Algorithm 1 pointed at the dTLB. */
class TlbAvfEstimator : public InjectionCampaign
{
  public:
    /**
     * @param pipe pipeline to instrument (the caller attaches).
     * @param port port to reserve the estimator's one lane from,
     *        attached to the pipeline before the estimator.
     * @param config M and N.
     */
    TlbAvfEstimator(cpu::Pipeline &pipe, InjectionPort &port,
                    TlbEstimatorConfig config = TlbEstimatorConfig{});

    /** "online:dtlb". */
    std::string name() const override;

    /** Mean of all completed estimates (0 when none). */
    double meanEstimate() const;

  protected:
    std::span<const CounterKey> counterKeys() const override;
};

} // namespace avf::core

#endif // AVF_CORE_TLB_ESTIMATOR_HH
