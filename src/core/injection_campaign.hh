/**
 * @file
 * Algorithm 1's window loop, once. Every M cycles an injection
 * campaign closes its open windows in lane order, counts their
 * outcomes (an interval ends on exactly its Nth closed window),
 * sweeps its lanes clean with one batched clearLanes(), and opens the
 * next windows on the next round-robin sites. Every campaign reserves
 * its lanes from one InjectionPort the caller attached to the
 * pipeline first, so campaigns on one pipeline never share a lane and
 * one campaign's sweep never touches another's bits. The online
 * estimator, the dTLB estimator and the coverage probes are this loop
 * pointed at different sites; they differ only in
 *
 *  - the SiteSource they walk (a structure, the dTLB, a probe target),
 *  - their name() and the ordered counter keys their EstimatorState
 *    carries (so each family keeps its snapshot bytes), and
 *  - at most a per-window hook: the online estimator reports to its
 *    lifecycle sink, the probes charge the attribution tracker.
 *
 * A new site family (bit-level sites, cache lines, store-buffer
 * entries) is a new cpu::InjectTarget case in Pipeline::injectError
 * and numSites, plus a thin subclass.
 */

#ifndef AVF_CORE_INJECTION_CAMPAIGN_HH
#define AVF_CORE_INJECTION_CAMPAIGN_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/avf_estimator.hh"
#include "core/injection_port.hh"
#include "core/structures.hh"
#include "cpu/pipeline.hh"
#include "util/interval_ticker.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace avf::core
{

/** Campaign parameters (defaults = the paper's M = N = 1000). */
struct OnlineConfig
{
    /** Cycles between successive injections (the wait window M). */
    Cycle m = 1000;
    /** Injections per AVF estimate (the sample count N). */
    std::uint32_t n = 1000;
    /**
     * When true, the injection fires at a uniformly random cycle
     * within each M-cycle window instead of at the window start.
     * Used by the sampling ablation (Section 3.3 discusses the
     * fixed-interval approximation of random sampling).
     */
    bool randomizeInjectionTiming = false;
    /**
     * IQ structure only: inject at field granularity (opcode +
     * three operand fields per entry) instead of whole-entry
     * granularity — Section 3.6's multiple-error-bits extension.
     * Unpopulated fields mask their injections, so the estimated
     * AVF is lower (less conservative) than whole-entry AVF.
     */
    bool fieldGranularIq = false;
    /** Seed for the randomized-timing mode. */
    std::uint64_t seed = 12345;
    /**
     * Concurrent injection windows (error-plane bit lanes) this
     * estimator keeps saturated. 0 means "inherit": the engine fills
     * it from RunOptions::lanes (AVF_LANES); a directly-constructed
     * estimator treats it as 1, the paper's serial Algorithm 1.
     * lanes = 1 reproduces serial behavior exactly; lanes = L closes
     * an N-injection interval in ceil(N/L) boundaries.
     */
    int lanes = 0;
};

/**
 * Round-robin enumerator over the injection sites of one
 * cpu::InjectTarget (a structure's entries or units, field-granular
 * IQ fields, dTLB slots, a coverage-probe structure's slots). Slot k
 * maps to one Site; next() walks the slots in order and wraps — the
 * paper's hardware-friendly approximation of random sampling.
 */
class SiteSource
{
  public:
    /**
     * @param pipe pipeline whose geometry (Pipeline::numSites) sets
     *        the slot count.
     * @param target injection target to enumerate.
     */
    SiteSource(const cpu::Pipeline &pipe, cpu::InjectTarget target);

    /** Slots in the target (the round-robin modulus). */
    int numSlots() const { return slots; }

    /** The site slot @p slot addresses (0 <= slot < numSlots()). */
    Site siteAt(int slot) const;

    /** The site under the cursor; advances the cursor. */
    Site
    next()
    {
        Site site = siteAt(cursor);
        cursor = (cursor + 1) % slots;
        return site;
    }

    /** Slot the next call to next() returns. */
    int position() const { return cursor; }

  private:
    cpu::InjectTarget target;
    int slots = 0;
    int cursor = 0;
};

/**
 * The counters an injection campaign keeps. Each family names the
 * ones its EstimatorState carries, in its own order (counterKeys()).
 */
struct CampaignCounters
{
    /** Windows closed in the current interval. */
    std::uint64_t injections = 0;
    /** ... of which failed. */
    std::uint64_t failures = 0;
    /** Windows opened, all intervals. */
    std::uint64_t lifetimeInjections = 0;
    /** Failed windows, all intervals. */
    std::uint64_t lifetimeFailures = 0;
    /** Windows whose injection landed on an occupied target. */
    std::uint64_t liveInjections = 0;
    /** Windows closed, all intervals. */
    std::uint64_t windowsClosed = 0;
    /** Windows opened since the current interval began. */
    std::uint64_t openedThisInterval = 0;
    /** Windows whose bit the target itself killed (probe hook). */
    std::uint64_t killed = 0;
};

/** One EstimatorState counter: its key and the counter it saves. */
struct CounterKey
{
    const char *key;
    std::uint64_t CampaignCounters::*counter;
};

/**
 * Algorithm 1 over one SiteSource. With one lane it is exactly the
 * paper's serial loop (one estimate per M*N cycles); with L lanes an
 * interval still closes on exactly N windows, in ceil(N/L)
 * boundaries. Subclasses supply name(), counterKeys() and optionally
 * the per-window hooks.
 */
class InjectionCampaign : public AvfEstimator
{
  public:
    /**
     * @param pipe pipeline to instrument (the caller attaches).
     * @param sites the targets to walk.
     * @param config M, N, lanes (0 -> 1) and timing options.
     * @param port port to reserve the campaign's lanes from, the
     *        lowest free ones; it must be attached to the pipeline
     *        ahead of the campaigns, since it latches the failures
     *        the campaign polls.
     */
    InjectionCampaign(cpu::Pipeline &pipe, SiteSource sites,
                      const OnlineConfig &config, InjectionPort &port);

    /** No instruction hooks: the port watches retirements. */
    unsigned hooks() const override { return 0; }
    void onCycle(Cycle now) override;
    /** The next window boundary or pending randomized injection. */
    Cycle nextWake(Cycle now) const override;

    /** Completed per-interval AVF estimates (one per N windows). */
    const std::vector<double> &estimates() const override
    {
        return results;
    }

    /** AVF over the windows closed so far in the open interval. */
    double partialAvf() const;

    /**
     * The family's counters (counterKeys() order), then the
     * round-robin cursor, then the completed estimates. In-flight
     * lane windows are not captured (see EstimatorState).
     */
    EstimatorState snapshotState() const override;

    /** Windows closed in the current (incomplete) interval. */
    std::uint64_t injectionsSoFar() const { return count.injections; }

    /** Failures in the current (incomplete) interval. */
    std::uint64_t failuresSoFar() const { return count.failures; }

    /** Windows opened across all intervals. */
    std::uint64_t totalInjections() const { return count.lifetimeInjections; }

    /** Failed windows across all intervals. */
    std::uint64_t totalFailures() const { return count.lifetimeFailures; }

    /** Windows closed across all intervals. */
    std::uint64_t totalWindowsClosed() const { return count.windowsClosed; }

    /** Injections that landed on an occupied entry / busy unit; the
     *  complement was trivially masked. Diagnostic only. */
    std::uint64_t totalLiveInjections() const { return count.liveInjections; }

    /** Concurrent windows (config.lanes, 0 -> 1). */
    int laneCount() const { return static_cast<int>(windows.size()); }

    /** Union bit mask of the lanes reserved from the port. */
    ErrorMask laneMask() const { return reservedLanes; }

  protected:
    /** EstimatorState counter keys, in the family's order. */
    virtual std::span<const CounterKey> counterKeys() const = 0;

    /** A window just opened on @p lane at @p site. */
    virtual void
    onWindowOpened(LaneId, const Site &, bool /*live*/, Cycle)
    {}

    /** A window closed (before the lanes are swept). */
    virtual void onWindowClosed(const Outcome &, Cycle) {}

    cpu::Pipeline &pipeline;
    CampaignCounters count;

  private:
    /** One concurrent injection window. */
    struct LaneSlot
    {
        LaneId lane = -1;
        WindowHandle handle;
        bool open = false;
        /** Randomized timing: injection pending within the window. */
        bool scheduled = false;
        Cycle injectAt = 0;
    };

    /** Fire one injection on @p slot. */
    void openWindow(LaneSlot &slot, Cycle now);

    /** Close every open window, sweep the lanes, open the next. */
    void windowBoundary(Cycle now);

    SiteSource siteSource;
    OnlineConfig conf;
    Rng rng;
    /** Fires at window boundaries (now % M == 0). */
    IntervalTicker boundaryTick;

    /** Port the lanes are reserved from and injected through. */
    InjectionPort &port;
    /** This campaign's windows, one per reserved lane, lane order. */
    std::vector<LaneSlot> windows;
    /** Union bit mask of the reserved lanes (boundary sweeps). */
    ErrorMask reservedLanes = 0;
    /** Lanes with a pending randomized-timing injection. */
    int scheduledCount = 0;

    std::vector<double> results;
};

} // namespace avf::core

#endif // AVF_CORE_INJECTION_CAMPAIGN_HH
