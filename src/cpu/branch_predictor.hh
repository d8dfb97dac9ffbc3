/**
 * @file
 * Gshare direction predictor. In a trace-driven simulator the
 * predictor exists to decide *when* fetch stalls: a mispredicted
 * conditional branch blocks fetch until the branch resolves plus a
 * redirect penalty, which is how Turandot-style models account for
 * wrong-path time without simulating wrong-path instructions.
 */

#ifndef AVF_CPU_BRANCH_PREDICTOR_HH
#define AVF_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace avf::cpu
{

/** Prediction statistics. */
struct PredictorStats
{
    std::uint64_t lookups = 0;
    std::uint64_t mispredicts = 0;

    /** Fraction of lookups predicted correctly. */
    double
    accuracy() const
    {
        return lookups ? 1.0 - static_cast<double>(mispredicts) /
                               static_cast<double>(lookups)
                       : 0.0;
    }
};

/** Gshare with 2-bit saturating counters. */
class BranchPredictor
{
  public:
    /**
     * @param tableBits log2 of the counter-table size.
     * @param historyBits global-history length (0 = pure bimodal).
     */
    BranchPredictor(int tableBits, int historyBits);

    /**
     * Predict-and-update for a conditional branch whose actual
     * outcome is known from the trace.
     *
     * @param pc branch address.
     * @param taken actual outcome.
     * @return true if the prediction matched the outcome.
     */
    bool predictAndUpdate(Addr pc, bool taken);

    /** Accumulated statistics. */
    const PredictorStats &stats() const { return statsData; }

    /** Reset statistics (tables keep training). */
    void clearStats() { statsData = PredictorStats{}; }

    // ---- error-bit plane over the counter table ----
    //
    // Predictor state is architecturally masked in this model: a
    // flipped counter can only change a prediction, never a retired
    // value, so an injected bit never reaches a failure point. It
    // either dies when the next update overwrites its entry
    // (tracked in killedBits) or survives untouched to the window
    // close. The plane is pure metadata — predictions and timing are
    // computed from the counters alone, so an armed plane perturbs
    // nothing (the byte-identity contracts rely on that).

    /** Counter-table slots available for injection. */
    int numSlots() const { return static_cast<int>(table.size()); }

    /**
     * OR @p mask into the error bits of table slot @p slot, which
     * must be in [0, numSlots()).
     * @return Occupied (a counter always holds trained state).
     */
    InjectOutcome injectError(int slot, ErrorMask mask);

    /**
     * Lanes whose injected bits were overwritten by a counter update
     * since the last clearErrors() of those lanes.
     */
    ErrorMask killedMask() const { return killedBits; }

    /** Sweep @p mask lanes out of the plane and the killed latch. */
    void clearErrors(ErrorMask mask);

  private:
    std::vector<std::uint8_t> table;
    std::uint32_t indexMask;
    std::uint32_t historyMask;
    std::uint32_t history = 0;
    PredictorStats statsData;

    /** Per-slot error bits, one word per counter. */
    std::vector<ErrorMask> tableError;
    /** Union of all resident bits: zero skips the hot-path check. */
    ErrorMask errAny = 0;
    /** Lanes killed by counter updates since their last clear. */
    ErrorMask killedBits = 0;
};

} // namespace avf::cpu

#endif // AVF_CPU_BRANCH_PREDICTOR_HH
