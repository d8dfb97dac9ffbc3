/**
 * @file
 * Reproduces Figure 3: the accuracy of the online estimator (O) and
 * the utilization-based baseline (U) against the SoftArch reference,
 * for all four structures across the eleven benchmarks. For every
 * (application, structure) pair the paper reports the mean, standard
 * deviation, and top-4-excluded maximum of the per-interval absolute
 * error (left charts) and relative error (right charts).
 *
 * Interval count defaults to the paper's 100 per application;
 * override with AVF_INTERVALS or AVF_FAST=1. AVF_LIFECYCLE=1 traces
 * every injection's lifecycle: per-task outcome digests go to stderr
 * and the retained records land in
 * fig3_accuracy_<app>_lifecycle.jsonl; the stdout tables are
 * byte-identical either way (tracing is passive).
 * The eleven applications are independent tasks fanned out over the
 * ExperimentEngine's worker pool; output is byte-identical at any
 * thread count.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "stats/error_metrics.hh"
#include "stats/table_printer.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace avf;
using namespace avf::harness;
using core::Structure;
using stats::TablePrinter;

struct AppResult
{
    std::string name;
    ExperimentResult result;
};

void
printStructure(const std::vector<AppResult> &apps, Structure s,
               const char *label, bool with_utilization)
{
    TablePrinter abs_table(std::string("Figure 3: ") + label +
                           " — absolute error of AVF vs SoftArch");
    TablePrinter rel_table(std::string("Figure 3: ") + label +
                           " — relative error of AVF vs SoftArch");
    if (with_utilization) {
        abs_table.setHeader({"app", "O mean", "O stddev", "O max",
                             "U mean", "U stddev", "U max"});
        rel_table.setHeader({"app", "O mean", "O stddev", "O max",
                             "U mean", "U stddev", "U max"});
    } else {
        abs_table.setHeader({"app", "O mean", "O stddev", "O max"});
        rel_table.setHeader({"app", "O mean", "O stddev", "O max"});
    }

    for (const auto &app : apps) {
        auto reference = app.result.softarchSeries(s);
        auto online = app.result.onlineSeries(s);
        auto abs_o = stats::summarizeErrors(
            stats::absoluteErrors(online, reference));
        auto rel_o = stats::summarizeErrors(
            stats::relativeErrors(online, reference, 0.01));

        std::vector<std::string> abs_row = {
            app.name, TablePrinter::num(abs_o.mean),
            TablePrinter::num(abs_o.stddev),
            TablePrinter::num(abs_o.maxExcl)};
        std::vector<std::string> rel_row = {
            app.name, TablePrinter::pct(rel_o.mean),
            TablePrinter::pct(rel_o.stddev),
            TablePrinter::pct(rel_o.maxExcl)};

        if (with_utilization) {
            auto util = app.result.utilizationSeries(s);
            auto abs_u = stats::summarizeErrors(
                stats::absoluteErrors(util, reference));
            auto rel_u = stats::summarizeErrors(
                stats::relativeErrors(util, reference, 0.01));
            abs_row.push_back(TablePrinter::num(abs_u.mean));
            abs_row.push_back(TablePrinter::num(abs_u.stddev));
            abs_row.push_back(TablePrinter::num(abs_u.maxExcl));
            rel_row.push_back(TablePrinter::pct(rel_u.mean));
            rel_row.push_back(TablePrinter::pct(rel_u.stddev));
            rel_row.push_back(TablePrinter::pct(rel_u.maxExcl));
        }
        abs_table.addRow(abs_row);
        rel_table.addRow(rel_row);
    }
    abs_table.print();
    rel_table.print();
}

} // namespace

int
main()
{
    auto options = loadRunOptions(100);
    std::printf("Figure 3 reproduction: M = N = 1000, %d estimation "
                "intervals of 1M cycles per application\n",
                options.intervals);

    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));
    for (const auto &name : trace::specBenchmarkNames()) {
        ExperimentConfig conf;
        conf.profile = trace::specProfile(name);
        conf.numIntervals = options.intervals;
        engine.submit(name, conf);
    }

    auto tasks = collectOrDie(engine);
    exportCampaign("fig3_accuracy", engine, tasks);
    std::vector<AppResult> apps;
    for (auto &task : tasks)
        apps.push_back({task.name, std::move(task.result)});

    printStructure(apps, Structure::IQ, "(a) instruction queue",
                   false);
    printStructure(apps, Structure::REG, "(b) register file", false);
    printStructure(apps, Structure::FXU, "(c) FXU", true);
    printStructure(apps, Structure::FPU, "(d) FPU", true);

    // Headline claims from the abstract, checked against this run.
    double worst_mean = 0.0, worst_max = 0.0;
    for (const auto &app : apps) {
        for (int s = 0; s < core::numPaperStructures; ++s) {
            auto structure = static_cast<Structure>(s);
            auto summary = stats::summarizeErrors(
                stats::absoluteErrors(
                    app.result.onlineSeries(structure),
                    app.result.softarchSeries(structure)));
            worst_mean = std::max(worst_mean, summary.mean);
            worst_max = std::max(worst_max, summary.maxExcl);
        }
    }
    std::printf("\nHeadline check (paper: mean abs err < 0.05 for "
                "every app/structure; max rarely exceeds 0.08):\n");
    std::printf("  worst mean abs error  = %.4f\n", worst_mean);
    std::printf("  worst max (excl top4) = %.4f\n", worst_max);
    return 0;
}
