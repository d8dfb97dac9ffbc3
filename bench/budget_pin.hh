/**
 * @file
 * The budget pin of the closed-loop scenarios (scenario_budget_storm,
 * scenario_delayed_report): measure an uncontrolled run's
 * per-interval failure-rate range and place the MTTF budget inside it.
 */

#ifndef AVF_BENCH_BUDGET_PIN_HH
#define AVF_BENCH_BUDGET_PIN_HH

#include <algorithm>

#include "harness/experiment.hh"
#include "reliability/fit_model.hh"

namespace avf::bench
{

struct BudgetPin
{
    double fitLo = 0.0, fitHi = 0.0, budgetFit = 0.0, budgetHours = 0.0;
};

/**
 * Pin the budget between the calm and storm regimes of @p base, a
 * run of machine @p cpu without control: calm phases comply, storms
 * exceed. Degenerate (flat) runs fall back to a budget below the
 * observed rate so the loop still has work.
 */
inline BudgetPin
pinBudget(const cpu::CpuConfig &cpu, const harness::ExperimentResult &base)
{
    reliability::FitModel model(reliability::defaultFitModel(cpu));
    BudgetPin pin;
    bool first = true;
    for (const auto &row : base.intervals) {
        double fit = model.fit(row.softarch);
        pin.fitLo = first ? fit : std::min(pin.fitLo, fit);
        pin.fitHi = first ? fit : std::max(pin.fitHi, fit);
        first = false;
    }
    pin.budgetFit = (pin.fitLo + pin.fitHi) / 2.0;
    if (pin.budgetFit <= 0.0)
        pin.budgetFit = 1.0;
    pin.budgetHours = 1e9 / pin.budgetFit;
    return pin;
}

} // namespace avf::bench

#endif // AVF_BENCH_BUDGET_PIN_HH
