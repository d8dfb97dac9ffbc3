/**
 * @file
 * The paper's contribution: Algorithm 1, the online AVF estimator —
 * lane-parallel over the InjectionPort.
 *
 * Every M cycles the estimator closes its open injection windows,
 * sweeps its lanes clean, picks the next injection targets in its
 * structure (round-robin across entries for storage structures,
 * across units for logic structures — the paper's hardware-friendly
 * approximation of random sampling), and opens up to `lanes` new
 * tagged windows through the port. Program execution propagates each
 * lane's bit independently; a window whose bit reaches a retiring
 * load, store, or branch before the boundary counts as a failure.
 * After N windows,
 *
 *     AVF ~= failureCount / N,
 *
 * and a new estimation interval begins. With one lane (what lanes = 0
 * means to a directly-constructed estimator) the behavior is exactly
 * the paper's serial Algorithm 1: one injection per M-cycle window, one
 * estimate per M*N cycles. With L lanes, L windows run concurrently
 * per boundary and an estimate needs only ceil(N/L) boundaries —
 * the flips do not interact (FastFlip's composability argument), so
 * the estimate is the same statistic over the same failure test,
 * sampled at a compressed wall-clock cost.
 *
 * The loop itself is core::InjectionCampaign's; this class points it
 * at one structure and reports each window to a lifecycle sink.
 */

#ifndef AVF_CORE_ONLINE_ESTIMATOR_HH
#define AVF_CORE_ONLINE_ESTIMATOR_HH

#include <span>
#include <string>

#include "core/injection_campaign.hh"
#include "core/lifecycle_sink.hh"
#include "core/structures.hh"

namespace avf::core
{

/**
 * Online AVF estimator for one structure, attached to the pipeline as
 * an observer. Multiple estimators (one per structure) may coexist on
 * one InjectionPort; each reserves distinct error-bit lanes from it
 * and individually obeys the one-error-at-a-time rule within each
 * lane.
 */
class OnlineAvfEstimator : public InjectionCampaign
{
  public:
    /**
     * @param pipe pipeline to instrument (attach is the caller's job:
     *        pipe.addObserver(&estimator)).
     * @param structure which structure to estimate.
     * @param config M/N, lane count, and sampling options.
     * @param port injection port to reserve the estimator's lanes
     *        from (non-null). Every campaign on one pipeline shares
     *        one port, attached as an observer before them.
     */
    OnlineAvfEstimator(cpu::Pipeline &pipe, Structure structure,
                       OnlineConfig config, InjectionPort *port);

    /** "online:<structure>", e.g. "online:iq". */
    std::string name() const override;

    /** Structure being estimated. */
    Structure structure() const { return target; }

    /**
     * Attach a lifecycle sink (not owned; nullptr detaches): every
     * injection opens a record there and every window close stamps
     * it. Purely observational — estimates are unaffected.
     */
    void setLifecycleSink(LifecycleSink *s) { sink = s; }

  protected:
    std::span<const CounterKey> counterKeys() const override;
    void onWindowOpened(LaneId lane, const Site &site, bool live,
                        Cycle now) override;
    void onWindowClosed(const Outcome &outcome, Cycle now) override;

  private:
    Structure target;
    /** Lifecycle observer, nullptr when tracing is off. */
    LifecycleSink *sink = nullptr;
};

} // namespace avf::core

#endif // AVF_CORE_ONLINE_ESTIMATOR_HH
