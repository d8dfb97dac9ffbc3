/**
 * @file
 * The one injection surface. Every estimator family used to grow its
 * own incompatible entry point (OnlineAvfEstimator::inject(Cycle),
 * TlbAvfEstimator::inject(), PropagationProbe::inject(Cycle),
 * Tlb::injectError returning a bare bool); the InjectionPort replaces
 * that scatter with a single tagged-window API over the word-level
 * ErrorPlane:
 *
 *     open(lane, site, cycle) -> WindowHandle   // fire one injection
 *     closed(handle)          -> Outcome        // end its window
 *
 * A Site names a cpu::InjectTarget, an entry and (field-granular IQ
 * only) a field; open() hands it to cpu::Pipeline::injectError, the
 * pipeline's one injection entry point, so the port has no per-target
 * code. A new site family is a new InjectTarget case there.
 *
 * Each of the 64 bit lanes of the plane word carries one independent
 * tagged injection with its own window clock, so up to 64 campaigns
 * advance concurrently per propagation word-op.
 *
 * Contract (see DESIGN.md "The InjectionPort contract"):
 *
 *  - Lane independence: the port never mixes bits across lanes. The
 *    outcome of a window on lane k depends only on the injections
 *    opened on lane k — running other lanes concurrently cannot
 *    change it (pinned by the `lanes`-labeled equivalence tests).
 *  - Window lifecycle: a lane is free, then open (between open() and
 *    closed()), then free again. The port latches the first failure
 *    retirement that carries the lane's bit; closed() reports it.
 *    Handles are serial-numbered so a stale handle cannot close a
 *    later window.
 *  - Outcomes carry simulated-clock data only (openedAt/failCycle) —
 *    never wall-clock readings, which would differ run to run and
 *    break the byte-identical campaign exports.
 *  - Clearing is explicit and batched: closed() does not sweep the
 *    lane's bits out of the machine; callers close a batch of lanes
 *    and issue one clearLanes() for the union, which is what makes a
 *    64-lane boundary sweep cost one AND-NOT pass instead of 64.
 */

#ifndef AVF_CORE_INJECTION_PORT_HH
#define AVF_CORE_INJECTION_PORT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/structures.hh"
#include "cpu/observer.hh"
#include "cpu/pipeline.hh"
#include "util/types.hh"

namespace avf::core
{

/**
 * Where an injection lands: entry @p entry of a pipeline injection
 * target, and the IQ field for field-granular IQ sites (Section 3.6;
 * -1 for every other target). Every site goes to the pipeline through
 * its one entry point, cpu::Pipeline::injectError.
 */
struct Site
{
    cpu::InjectTarget target = cpu::InjectTarget::IqEntry;
    /** Entry index within the target. */
    int entry = 0;
    /** IQ field index, -1 for whole-entry injections. */
    int field = -1;
};

/**
 * The injection target of structure @p s: its register plane, issue
 * queue or unit class. @p fieldGranularIq selects field-granular IQ
 * sites; other structures ignore it.
 */
cpu::InjectTarget injectTargetOf(Structure s, bool fieldGranularIq);

/**
 * Ticket for one open injection window. The inject field reports how
 * the injection landed (Opened / Occupied — see
 * util/types.hh:InjectOutcome; Rejected only in a handle open() did
 * not return); the serial number guards against a stale handle
 * closing a window it did not open.
 */
struct WindowHandle
{
    LaneId lane = -1;
    std::uint64_t serial = 0;
    InjectOutcome inject = InjectOutcome::Rejected;

    /** True when open() actually opened a window. */
    bool valid() const { return lane >= 0; }
};

/**
 * What a closed window observed. Simulated-clock data only: openedAt
 * and failCycle are pipeline cycles, deterministic functions of
 * (trace, seed, config).
 */
struct Outcome
{
    /** A failure point retired carrying the lane's bit. */
    bool failed = false;
    /** The injection landed on an occupied / busy target. */
    bool live = false;
    /** Lane the window ran on. */
    LaneId lane = -1;
    /** Cycle the window opened (injection fired). */
    Cycle openedAt = 0;
    /** Cycle of the first failure retirement (valid when failed). */
    Cycle failCycle = 0;
    /**
     * Blame identity of the failure: trace PC and opcode class of
     * the retiring instruction that carried the lane's bit out.
     * failOp holds the trace::OpClass as an int, -1 when the window
     * closed without a failure. This is what the attribution layer
     * keys root-cause tables on (obs/attribution.hh).
     */
    Addr failPc = 0;
    int failOp = -1;
};

/**
 * The injection surface over one pipeline. Reserve lanes once, then
 * open/close tagged windows on them. The port watches retirements as
 * a PipelineObserver to latch per-lane failures; attach it to the
 * pipeline *before* the estimators and probes that poll it. Every
 * campaign on a pipeline reserves its lanes from the one port, so no
 * two campaigns share a lane.
 *
 * The port is the only sanctioned writer of injected error bits
 * (avflint's injection-port-discipline check enforces this): every
 * open() tags exactly one lane, so no injection can enter the plane
 * untagged.
 */
class InjectionPort : public cpu::PipelineObserver
{
  public:
    /** @param pipe pipeline to inject into (must outlive the port). */
    explicit InjectionPort(cpu::Pipeline &pipe);

    // ---- lane reservation (setup time) ----

    /** Reserve the lowest free lane. Fatal when none remain. */
    LaneId reserveLane();

    /** Reserve lane @p lane, which must be free (the lane tests pin
     *  lanes this way; campaigns take the lowest free ones). */
    void reserveLane(LaneId lane);

    /** Reserve @p count lowest free lanes, in ascending order. */
    std::vector<LaneId> reserveLanes(int count);

    // ---- the injection surface ----

    /**
     * Open an injection window on @p lane: fire one injection tagged
     * with the lane's bit at @p site. The lane must be reserved and
     * not already open, and the site inside the pipeline's geometry
     * (Pipeline::injectError; out of range is fatal). @return the
     * window's handle; handle.inject tells how the injection landed.
     */
    WindowHandle open(LaneId lane, const Site &site, Cycle now);

    /**
     * Close the window @p handle opened. The handle must be the one
     * returned by the matching open() (stale serials are fatal).
     * Does NOT clear the lane's bits — batch with clearLanes().
     */
    Outcome closed(const WindowHandle &handle);

    /**
     * Sweep the bits of @p mask lanes out of the whole machine (one
     * pipeline-wide AND-NOT pass). Callers batch: close every lane
     * of a boundary, then clear their union once.
     */
    void clearLanes(ErrorMask mask);

    /** True when @p handle's window has latched a failure so far. */
    bool failureSeen(const WindowHandle &handle) const;

    /** Union bit mask of this port's open lanes. */
    ErrorMask openMask() const { return openLanes; }

    /** Union bit mask of every reserved lane. */
    ErrorMask reservedMask() const { return reservedLanes; }

    // ---- cpu::PipelineObserver ----

    unsigned hooks() const override { return cpu::hookRetire; }
    /** Latch failures: first failure retirement per open lane. */
    void onRetire(const cpu::DynInstr &instr,
                  const cpu::RetireInfo &info) override;
    /** No per-cycle work: off the onCycle schedule. */
    Cycle nextWake(Cycle) const override { return cpu::neverWake; }

  private:
    struct Lane
    {
        bool reserved = false;
        bool open = false;
        bool failed = false;
        bool live = false;
        std::uint64_t serial = 0;
        Cycle openedAt = 0;
        Cycle failCycle = 0;
        /** Blame identity of the latched failure (see Outcome). */
        Addr failPc = 0;
        int failOp = -1;
    };

    Lane &laneAt(LaneId lane);
    const Lane &laneAt(LaneId lane) const;
    cpu::Pipeline &pipeline;
    std::array<Lane, numErrorChannels> laneState{};
    ErrorMask reservedLanes = 0;
    ErrorMask openLanes = 0;
    ErrorMask failedLanes = 0;
};

} // namespace avf::core

#endif // AVF_CORE_INJECTION_PORT_HH
