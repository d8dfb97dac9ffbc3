/**
 * @file
 * Scenario bench: the delayed-error-reporting regime (after Jaulmes
 * et al., "Memory Vulnerability: A Case for Delaying Error
 * Reporting"): a configurable latency separates an estimation window
 * closing from the moment the controller may see its value. The bench
 * runs the budget-mode control loop on a storm workload while
 * sweeping that latency in multiples of the estimation interval, and
 * reports how late visibility erodes the loop's effect: the later
 * the controller learns of a storm, the longer the machine runs
 * unthrottled through it.
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

/** Calm/storm alternation (same regime as scenario_budget_storm). */
trace::WorkloadProfile
stormProfile()
{
    trace::WorkloadProfile profile;
    profile.name = "delayed_report";

    trace::PhaseParams calm;
    calm.deadFrac = 0.35;
    calm.depRecency = 0.15;

    trace::PhaseParams storm;
    storm.deadFrac = 0.02;
    storm.depRecency = 0.65;
    storm.fpFrac = 0.25;

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
    // The campaign's lane count, set here rather than inherited at
    // submit() so the interval length below sees it.
    conf.online.lanes = options.lanes;
    const Cycle intervalLen = intervalGeometry(conf).intervalCycles;

    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));
    engine.submit("baseline", conf);
    auto tasks = collectOrDie(engine);
    const auto &base = tasks.front().result;
    const auto pin = bench::pinBudget(conf.cpu, base);

    std::printf("Scenario: delayed error reporting (budget %.3f FIT; "
                "interval %llu cycles)\n\n", pin.budgetFit,
                static_cast<unsigned long long>(intervalLen));

    TablePrinter table("Reporting latency vs control effectiveness");
    table.setHeader({"latency", "IQ AVF", "IPC", "over budget",
                     "throttled"});
    table.addRow({"(none)",
                  TablePrinter::num(
                      stats::mean(base.softarchSeries(Structure::IQ))),
                  TablePrinter::num(base.summary.ipc, 2), "0",
                  TablePrinter::pct(0.0, 0)});

    for (int mult : {0, 1, 4, 16}) {
        ExperimentConfig delayed = conf;
        delayed.control.enabled = true;
        delayed.control.mttfBudgetHours = pin.budgetHours;
        delayed.control.reportLatencyCycles =
            intervalLen * static_cast<Cycle>(mult);
        char name[32];
        std::snprintf(name, sizeof(name), "latency_%dx", mult);
        engine.submit(name, delayed);
    }
    for (auto &task : collectOrDie(engine)) {
        const auto &cs = task.result.control;
        double share = cs.intervals
            ? static_cast<double>(cs.throttledIntervals) /
                  static_cast<double>(cs.intervals)
            : 0.0;
        table.addRow({task.name.substr(8),
                      TablePrinter::num(stats::mean(
                          task.result.softarchSeries(Structure::IQ))),
                      TablePrinter::num(task.result.summary.ipc, 2),
                      std::to_string(cs.budgetExceededIntervals),
                      TablePrinter::pct(share * 100, 0)});
        tasks.push_back(std::move(task));
    }
    table.print();
    exportCampaign("scenario_delayed_report", engine, tasks);

    std::printf("\nReading: at zero latency the loop throttles the "
                "storms as they happen; each added interval of "
                "reporting latency delays every decision by the same "
                "amount, so the machine rides further into each storm "
                "unprotected — vulnerability bought back by faster "
                "error reporting, the Jaulmes et al. trade.\n");
    return 0;
}
