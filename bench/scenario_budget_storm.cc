/**
 * @file
 * Scenario bench: budget-exceeded storm. A two-phase workload
 * alternates calm stretches (heavy dead-value masking, shallow
 * dependency chains → low AVF) with vulnerability storms (live
 * long-lived values → high AVF). A baseline run measures the two
 * regimes' SOFR failure rates; the MTTF budget is then pinned between
 * them, so the calm phases sit inside the budget and every storm
 * drives the chip over it. The controlled run shows the BudgetArbiter
 * tripping on the storms, naming the highest-FIT structure first, and
 * the throttle shaving the storm AVF at an IPC cost.
 *
 * With AVF_METRICS set, the controlled task's full decision trail
 * lands in <prefix>_METRICS.json — render it with
 * `avf-report budget <prefix>_METRICS.json --task controlled`.
 */

#include <cstdio>

#include "budget_pin.hh"
#include "core/structures.hh"
#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "stats/running_stats.hh"
#include "stats/table_printer.hh"

namespace
{

using namespace avf;
using namespace avf::harness;

/** Calm/storm alternation; each phase spans several intervals. */
trace::WorkloadProfile
stormProfile()
{
    trace::WorkloadProfile profile;
    profile.name = "budget_storm";

    trace::PhaseParams calm;
    calm.deadFrac = 0.35;
    calm.depRecency = 0.15;

    trace::PhaseParams storm;
    storm.deadFrac = 0.02;
    storm.depRecency = 0.65;
    storm.fpFrac = 0.25;
    storm.footprint = 2 * 1024 * 1024;

    profile.base = calm;
    profile.phases.push_back({calm, 400'000});
    profile.phases.push_back({storm, 400'000});
    return profile;
}

} // namespace

int
main()
{
    using core::Structure;
    using stats::TablePrinter;

    auto options = loadRunOptions(24);
    ExperimentConfig conf;
    conf.profile = stormProfile();
    conf.numIntervals = options.intervals;

    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));

    // Pass 1: measure the uncontrolled failure-rate range.
    engine.submit("baseline", conf);
    auto tasks = collectOrDie(engine);
    const auto pin = bench::pinBudget(conf.cpu, tasks.front().result);

    std::printf("Scenario: budget-exceeded storms (uncontrolled FIT "
                "%.3f..%.3f; budget %.3f FIT = %.4g h MTTF)\n\n",
                pin.fitLo, pin.fitHi, pin.budgetFit, pin.budgetHours);

    // Pass 2: same workload under the closed loop.
    ExperimentConfig controlled = conf;
    controlled.control.enabled = true;
    controlled.control.mttfBudgetHours = pin.budgetHours;
    engine.submit("controlled", controlled);
    tasks.push_back(std::move(collectOrDie(engine).front()));

    // One METRICS.json carrying both runs, decision trail included.
    exportCampaign("scenario_budget_storm", engine, tasks);
    const auto &base = tasks.front().result;
    const auto &result = tasks.back().result;

    TablePrinter table("Budget storms: uncontrolled vs closed loop");
    table.setHeader({"mode", "IQ AVF", "IPC", "over budget",
                     "throttled", "first target"});
    table.addRow({"baseline",
                  TablePrinter::num(
                      stats::mean(base.softarchSeries(Structure::IQ))),
                  TablePrinter::num(base.summary.ipc, 2), "0",
                  TablePrinter::pct(0.0, 0), "-"});
    const auto &cs = result.control;
    double throttledShare = cs.intervals
        ? static_cast<double>(cs.throttledIntervals) /
              static_cast<double>(cs.intervals)
        : 0.0;
    std::string target = cs.firstTarget >= 0
        ? std::string(core::structureName(
              static_cast<Structure>(cs.firstTarget)))
        : "-";
    table.addRow({"controlled",
                  TablePrinter::num(
                      stats::mean(result.softarchSeries(Structure::IQ))),
                  TablePrinter::num(result.summary.ipc, 2),
                  std::to_string(cs.budgetExceededIntervals),
                  TablePrinter::pct(throttledShare * 100, 0),
                  target});
    table.print();

    std::printf("\ncontrolled run: %llu intervals, %llu engagements, "
                "%llu actuations, %llu protect actions, projected "
                "MTTF %.4g h\n",
                static_cast<unsigned long long>(cs.intervals),
                static_cast<unsigned long long>(cs.engagements),
                static_cast<unsigned long long>(cs.actuations),
                static_cast<unsigned long long>(cs.protectActions),
                cs.projectedMttfHours);
    std::printf("\nReading: the arbiter trips exactly in the storm "
                "phases (over-budget intervals ~ the storms' share of "
                "the run), throttles the structure contributing the "
                "most FIT first, and releases in the calm phases — "
                "the decision trail is in `avf-report budget`.\n");
    return 0;
}
