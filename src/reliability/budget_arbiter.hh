/**
 * @file
 * Arbitration of a chip-level MTTF budget across structures. Each
 * estimation interval the arbiter folds the per-structure AVF row
 * into its MttfTracker, compares the interval's SOFR failure rate
 * against the rate the budget allows, and — while over budget —
 * names the structure contributing the most FIT as the one to act on
 * first. Occupancy-driven structures (IQ, REG) are throttleable:
 * fewer instructions in flight directly lowers their AVF. The rest
 * (FXU, FPU, FREG) are protected instead: the arbiter raises their
 * model coverage just enough to bring the interval's rate back to
 * the budget, the provisioning move of the paper's introduction
 * ("more protection during highly vulnerable periods").
 *
 * The exceeded state is hysteretic: it engages when an interval's
 * FIT rises above the budget rate and releases only when FIT falls
 * below releaseMargin * budget rate, so a rate that hovers at the
 * budget cannot thrash the actuators.
 */

#ifndef AVF_RELIABILITY_BUDGET_ARBITER_HH
#define AVF_RELIABILITY_BUDGET_ARBITER_HH

#include <array>
#include <cstdint>

#include "reliability/mttf_tracker.hh"

namespace avf::reliability
{

/** What the arbiter decided for one estimation interval. */
struct BudgetDecision
{
    /** Actuator the decision calls for. */
    enum class Action
    {
        None,     ///< within budget; leave everything alone
        Throttle, ///< target is occupancy-driven: throttle dispatch
        Protect   ///< target is logic/FP: raise protection coverage
    };

    /** True while the budget is exceeded (hysteretic). */
    bool exceeded = false;
    /** Structure contributing the most FIT this interval. */
    core::Structure target = core::Structure::IQ;
    /** Recommended actuation (None when within budget). */
    Action action = Action::None;
    /** This interval's SOFR failure rate (FIT). */
    double intervalFit = 0.0;
    /** Running-average MTTF projection (hours). */
    double projectedMttfHours = 0.0;
    /** The target's FIT contribution this interval. */
    double targetFit = 0.0;
    /** The target's protection coverage after this decision. */
    double coverage = 0.0;
    /** Per-structure FIT attribution, indexed by core::Structure. */
    std::array<double, core::numStructures> structureFit{};
};

/** MTTF-budget arbiter over the SOFR model. */
class BudgetArbiter
{
  public:
    /**
     * @param model failure-rate model (copied into the tracker; the
     *        arbiter owns and may mutate coverage).
     * @param budgetMttfHours the MTTF the chip must sustain
     *        (AVF_MTTF_BUDGET_HOURS); must be positive.
     * @param releaseMargin fraction of the budget rate below which
     *        the exceeded state releases, in (0, 1]; 1 disables the
     *        hysteresis band.
     */
    BudgetArbiter(FitModel model, double budgetMttfHours,
                  double releaseMargin = 0.9);

    /**
     * Fold one interval's per-structure AVFs and decide. Coverage
     * changes a Protect decision applies take effect from the next
     * interval on.
     */
    BudgetDecision decide(
        const std::array<double, core::numStructures> &avf);

    /** The rolling MTTF accounting behind the decisions. */
    const MttfTracker &tracker() const { return mttf; }

    /** The budget, in hours. */
    double budgetHours() const { return goalHours; }

    /** Intervals decided while the budget was exceeded. */
    std::uint64_t exceededIntervals() const { return overBudget; }

    /** Current protection coverage of @p structure. */
    double coverageOf(core::Structure structure) const
    {
        return mttf.model().coverageOf(structure);
    }

    /**
     * True when the dispatch throttle can lower @p structure's AVF:
     * the occupancy-driven storage structures (IQ, REG). FXU/FPU
     * vulnerability tracks utilization, not queue depth, and FREG
     * lifetimes are workload-bound — those are protected instead.
     */
    static bool throttleable(core::Structure structure)
    {
        return structure == core::Structure::IQ ||
               structure == core::Structure::REG;
    }

  private:
    MttfTracker mttf;
    double goalHours;
    double goalRate;
    double releaseMargin;
    bool engagedState = false;
    std::uint64_t overBudget = 0;
};

} // namespace avf::reliability

#endif // AVF_RELIABILITY_BUDGET_ARBITER_HH
