/**
 * @file
 * Extension experiment: the design argument of the paper's
 * introduction, quantified. An AVF-oblivious design must provision
 * protection for the worst case (every bit ACE); an AVF-aware design
 * can provision against the measured vulnerability. Using the SOFR
 * failure-rate model on the Table 1 machine, we compute, per
 * benchmark: the worst-case FIT, the real (SoftArch) FIT, the FIT
 * inferred from the *online* estimates, and the protection coverage
 * each implies for a fixed MTTF goal — showing how much overhead
 * AVF knowledge saves and that online estimates are good enough to
 * provision from.
 */

#include <cstdio>

#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "reliability/fit_model.hh"
#include "reliability/mttf_tracker.hh"
#include "stats/table_printer.hh"
#include "trace/spec_profiles.hh"

int
main()
{
    using namespace avf;
    using namespace avf::harness;
    using namespace avf::reliability;
    using stats::TablePrinter;

    auto options = loadRunOptions(20);
    // Reliability goal expressed as this core's allocation of the
    // chip-level FIT budget (the usual way architects budget SER).
    const double fit_budget = 5.0;
    const double goal_hours = 1e9 / fit_budget;

    FitModel base_model(defaultFitModel(cpu::CpuConfig{}));
    std::printf("Extension: AVF-aware MTTF provisioning (SOFR, raw "
                "%.0e FIT/bit, budget %.1f FIT for these "
                "structures)\n",
                base_model.config().rawFitPerBit, fit_budget);
    std::printf("worst-case (AVF = 1) chip FIT: %.2f\n\n",
                base_model.worstCaseFit());

    TablePrinter table("Per-benchmark failure rates and required "
                       "protection coverage");
    table.setHeader({"app", "FIT real", "FIT online", "FIT worst",
                     "cov needed (real)", "cov needed (online)",
                     "cov needed (worst)"});

    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));
    for (const auto &name : trace::specBenchmarkNames()) {
        ExperimentConfig conf;
        conf.profile = trace::specProfile(name);
        conf.numIntervals = options.intervals;
        engine.submit(name, conf);
    }

    auto tasks = collectOrDie(engine);
    exportCampaign("ext_mttf", engine, tasks);
    for (const auto &task : tasks) {
        const auto &name = task.name;
        const auto &result = task.result;

        MttfTracker real_tracker(base_model, goal_hours);
        MttfTracker online_tracker(base_model, goal_hours);
        for (const auto &row : result.intervals) {
            real_tracker.observe(row.softarch);
            online_tracker.observe(row.online);
        }

        // Coverage needed assuming worst-case AVF everywhere.
        MttfTracker worst_tracker(base_model, goal_hours);
        std::array<double, core::numStructures> worst{};
        worst.fill(1.0);
        worst_tracker.observe(worst);

        table.addRow({name,
                      TablePrinter::num(real_tracker.averageFit(), 2),
                      TablePrinter::num(online_tracker.averageFit(),
                                        2),
                      TablePrinter::num(worst_tracker.averageFit(), 2),
                      TablePrinter::pct(
                          real_tracker.requiredCoverage() * 100, 1),
                      TablePrinter::pct(
                          online_tracker.requiredCoverage() * 100, 1),
                      TablePrinter::pct(
                          worst_tracker.requiredCoverage() * 100,
                          1)});
    }
    table.print();

    std::printf("\nReading: provisioning from the online estimates "
                "matches ground truth within a few percent of "
                "coverage (slightly low at high AVF, the M-window "
                "truncation), while worst-case provisioning demands "
                "far more protection than the workloads ever need — "
                "the paper's motivation, in MTTF terms.\n");
    return 0;
}
