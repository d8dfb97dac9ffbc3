/**
 * @file
 * Observation interface over the pipeline. The online estimator and
 * the SoftArch offline analyzer both attach here; the pipeline calls
 * out at dispatch, issue, completion and retirement, and at the end
 * of every cycle an observer's nextWake() names.
 */

#ifndef AVF_CPU_OBSERVER_HH
#define AVF_CPU_OBSERVER_HH

#include <limits>

#include "cpu/dyn_instr.hh"

namespace avf::cpu
{

/** nextWake() value of an observer that never needs onCycle. */
inline constexpr Cycle neverWake = std::numeric_limits<Cycle>::max();

/**
 * How an error bit moved during one pipeline event. Mirrors the
 * paper's Section 3 propagation rules: reads carry bits into
 * consumers, multi-input OR gates merge them, corrupted values transit
 * functional units, and overwrites kill whatever the destination held.
 */
enum class ErrorHop : int
{
    ReadCarry = 0,  ///< a source read pulled error bits into a consumer
    OrMerge = 1,    ///< bits from two or more origins merged in one value
    FuTransit = 2,  ///< an erroneous value entered a functional unit
    OverwriteKill = 3, ///< a clean(er) writeback killed resident bits
    NumHops
};

/** Number of distinct hop kinds. */
inline constexpr int numErrorHops = static_cast<int>(ErrorHop::NumHops);

/** Stable display name ("read_carry", "or_merge", ...). */
constexpr const char *
errorHopName(ErrorHop hop)
{
    switch (hop) {
      case ErrorHop::ReadCarry: return "read_carry";
      case ErrorHop::OrMerge: return "or_merge";
      case ErrorHop::FuTransit: return "fu_transit";
      case ErrorHop::OverwriteKill: return "overwrite_kill";
      default: return "invalid";
    }
}

/** Passive pipeline observer; all hooks default to no-ops. */
class PipelineObserver
{
  public:
    virtual ~PipelineObserver() = default;

    /** Instruction entered the ROB (and its issue queue). */
    virtual void onDispatch(const DynInstr &) {}

    /** Instruction left its issue queue for a functional unit. */
    virtual void onIssue(const DynInstr &) {}

    /** Instruction finished execution / wrote back. */
    virtual void onComplete(const DynInstr &) {}

    /** Instruction retired (in order). */
    virtual void onRetire(const DynInstr &, const RetireInfo &) {}

    /** End of cycle @p now; only on the cycles nextWake() names. */
    virtual void onCycle(Cycle) {}

    /**
     * The next cycle at which onCycle must run, asked right after
     * the onCycle(@p now) call (and after every other observer due at
     * @p now has had its own). The answer must be exact: never later
     * than the next cycle on which onCycle would change anything.
     * The default, now + 1, keeps an observer on every cycle;
     * neverWake takes it off the schedule; a value <= @p now acts
     * as now + 1. See DESIGN.md, "The wake contract".
     */
    virtual Cycle nextWake(Cycle now) const { return now + 1; }

    /**
     * Error bits @p bits moved via @p hop at instruction @p instr.
     * Only delivered when the pipeline's hop events are enabled
     * (Pipeline::setHopSink) and the build retains the hooks
     * (cmake -DAVF_LIFECYCLE_HOOKS=ON, the default); bits is always
     * nonzero. @p instr is the consumer for ReadCarry/OrMerge/
     * FuTransit and the overwriting producer for OverwriteKill.
     */
    virtual void onErrorHop(const DynInstr &, ErrorMask, ErrorHop) {}
};

} // namespace avf::cpu

#endif // AVF_CPU_OBSERVER_HH
