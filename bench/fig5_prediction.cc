/**
 * @file
 * Reproduces Figure 5: feed the online AVF estimates to the simple
 * last-value predictor ("next interval's AVF = this interval's") and
 * report, per application and structure, the average absolute
 * prediction error against the real (SoftArch) AVF next to the
 * average real AVF itself — exactly the two stacks of the paper's
 * bar chart.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/predictor.hh"
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
    using stats::TablePrinter;

    auto options = loadRunOptions(60);
    std::printf("Figure 5 reproduction: last-value predictor over %d "
                "intervals per application\n", options.intervals);

    TablePrinter table("Figure 5: absolute prediction error of the "
                       "simple (last-value) predictor vs average "
                       "real AVF");
    table.setHeader({"app", "structure", "avg_prediction_error",
                     "avg_real_AVF", "rel_error"});

    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));
    for (const auto &name : trace::specBenchmarkNames()) {
        ExperimentConfig conf;
        conf.profile = trace::specProfile(name);
        conf.numIntervals = options.intervals;
        engine.submit(name, conf);
    }

    double worst = 0.0;
    int above_005 = 0, cells = 0;
    auto tasks = collectOrDie(engine);
    exportCampaign("fig5_prediction", engine, tasks);
    for (const auto &task : tasks) {
        const auto &name = task.name;
        const auto &result = task.result;

        for (int s = 0; s < core::numPaperStructures; ++s) {
            auto structure = static_cast<Structure>(s);
            core::LastValuePredictor predictor;
            auto errors = core::predictionErrors(
                predictor, result.onlineSeries(structure),
                result.softarchSeries(structure));

            const double err = stats::mean(errors);
            const double avf =
                stats::mean(result.softarchSeries(structure));
            double rel = avf > 1e-6 ? err / avf * 100.0 : 0.0;
            table.addRow({name,
                          std::string(core::structureName(structure)),
                          TablePrinter::num(err),
                          TablePrinter::num(avf),
                          TablePrinter::pct(rel)});
            worst = std::max(worst, err);
            ++cells;
            if (err > 0.05)
                ++above_005;
        }
    }
    table.print();

    std::printf("\nHeadline check (paper: prediction error < 0.05 "
                "with two exceptions):\n");
    std::printf("  worst average prediction error = %.4f\n", worst);
    std::printf("  cells above 0.05: %d of %d\n", above_005, cells);
    return 0;
}
