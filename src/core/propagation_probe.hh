/**
 * @file
 * Measures the error-propagation-time distribution used to choose M
 * (Section 3.4, Figure 2): inject an error, record how many cycles it
 * takes to reach a failure point (or give up after a cap), clear, and
 * repeat. Unlike the estimator, the probe waits indefinitely (up to
 * the cap) rather than a fixed window, because its purpose is to
 * characterize the distribution that a good M must cover. Injections
 * go through the InjectionPort API on one lane reserved from the
 * caller's port, so probes and estimators share a pipeline without
 * sharing a lane.
 */

#ifndef AVF_CORE_PROPAGATION_PROBE_HH
#define AVF_CORE_PROPAGATION_PROBE_HH

#include <vector>

#include "core/injection_campaign.hh"
#include "core/injection_port.hh"
#include "core/structures.hh"
#include "cpu/observer.hh"
#include "cpu/pipeline.hh"
#include "util/types.hh"

namespace avf::core
{

/** Probe configuration. */
struct ProbeConfig
{
    /** Give up waiting for a failure after this many cycles. */
    Cycle maxWait = 100'000;
    /** Stop after this many *failing* injections have been timed. */
    std::size_t targetSamples = 2000;
};

/** Propagation-delay sampler for one structure. */
class PropagationProbe : public cpu::PipelineObserver
{
  public:
    /**
     * @param pipe pipeline to instrument (caller attaches).
     * @param port port to reserve the probe's lane from, attached to
     *        the pipeline before the probe so a failure is latched
     *        before the probe's onRetire polls it.
     * @param structure structure to inject into.
     * @param config sampling bounds.
     */
    PropagationProbe(cpu::Pipeline &pipe, InjectionPort &port,
                     Structure structure,
                     ProbeConfig config = ProbeConfig{});

    /** Retire closes a window the moment its failure latches. */
    unsigned hooks() const override { return cpu::hookRetire; }
    void onRetire(const cpu::DynInstr &instr,
                  const cpu::RetireInfo &info) override;
    /**
     * Keeps the default every-cycle nextWake(): a failing retirement
     * closes the window in onRetire, which moves the next injection
     * (and the maxWait timeout) outside onCycle, so no wake computed
     * at the previous onCycle would stay exact.
     */
    void onCycle(Cycle now) override;

    /** Cycles from injection to failure, one entry per failure. */
    const std::vector<double> &delays() const { return samples; }

    /** Injections whose error never surfaced within maxWait. */
    std::uint64_t maskedCount() const { return masked; }

    /** Total injections fired. */
    std::uint64_t injectionCount() const { return injectionsFired; }

    /** Lane this probe injects on. */
    LaneId laneId() const { return lane; }

    /** True once targetSamples failures have been timed. */
    bool finished() const { return samples.size() >= conf.targetSamples; }

  private:
    void inject(Cycle now);

    ProbeConfig conf;
    SiteSource sites;

    InjectionPort &port;
    LaneId lane;
    WindowHandle handle;
    bool windowOpen = false;
    Cycle injectCycle = 0;
    std::uint64_t masked = 0;
    std::uint64_t injectionsFired = 0;
    std::vector<double> samples;
};

} // namespace avf::core

#endif // AVF_CORE_PROPAGATION_PROBE_HH
