/**
 * @file
 * Baseline shoot-out across estimator families the paper discusses:
 *
 *  - the online error-bit estimator (this paper),
 *  - utilization counting for logic structures (Section 4's simple
 *    alternative),
 *  - occupancy counting for the issue queue (the Soundararajan-style
 *    approach of Section 2, which estimates storage-structure AVF
 *    from entry counts).
 *
 * Both counters are blind to dead values and un-ACE instructions, so
 * they systematically overestimate; the error-bit method does not.
 * All three families now report through the common core::AvfEstimator
 * interface inside runExperiment, so this bench is a plain engine
 * campaign over the eleven benchmarks.
 */

#include <cstdio>
#include <vector>

#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "stats/running_stats.hh"
#include "stats/table_printer.hh"
#include "trace/spec_profiles.hh"

int
main()
{
    using namespace avf;
    using namespace avf::harness;
    using core::Structure;
    using stats::mean;
    using stats::TablePrinter;

    auto options = loadRunOptions();
    const int intervals = options.fastMode ? 4 : 20;

    TablePrinter table("Baselines: mean AVF per method (SoftArch = "
                       "ground truth; counters overestimate)");
    table.setHeader({"app", "structure", "softarch", "online",
                     "counter", "counter type"});

    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));
    for (const auto &name : trace::specBenchmarkNames()) {
        ExperimentConfig conf;
        conf.profile = trace::specProfile(name);
        conf.numIntervals = intervals;
        engine.submit(name, conf);
    }

    auto tasks = collectOrDie(engine);
    exportCampaign("ablation_baselines", engine, tasks);
    for (const auto &task : tasks) {
        const auto &result = task.result;
        table.addRow({task.name, "iq",
                      TablePrinter::num(
                          mean(result.softarchSeries(Structure::IQ))),
                      TablePrinter::num(
                          mean(result.onlineSeries(Structure::IQ))),
                      TablePrinter::num(mean(result.occupancySeries())),
                      "occupancy"});
        table.addRow({task.name, "fxu",
                      TablePrinter::num(
                          mean(result.softarchSeries(Structure::FXU))),
                      TablePrinter::num(
                          mean(result.onlineSeries(Structure::FXU))),
                      TablePrinter::num(mean(
                          result.utilizationSeries(Structure::FXU))),
                      "utilization"});
    }
    table.print();
    std::printf("\nReading: occupancy bounds IQ AVF from above the "
                "same way utilization bounds FXU AVF — both include "
                "dead/un-ACE work the error-bit method correctly "
                "discounts.\n");
    return 0;
}
