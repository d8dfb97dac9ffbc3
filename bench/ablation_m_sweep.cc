/**
 * @file
 * Ablation for Section 3.4's choice of M: sweep the wait window and
 * show the truncation bias (errors that would eventually surface but
 * have not propagated to a failure point within M cycles) vanishing
 * as M grows past the propagation-time distribution of Figure 2.
 * The online estimate is biased LOW for small M and converges to the
 * SoftArch reference around the paper's M = 1000.
 */

#include <cstdio>
#include <string>
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

    const std::vector<Cycle> ms = {50, 100, 250, 500, 1000, 2000,
                                   4000};
    auto options = loadRunOptions();
    const int intervals = options.fastMode ? 3 : 8;

    TablePrinter table("Ablation: truncation bias vs wait window M "
                       "(bzip2, N = 1000)");
    table.setHeader({"M", "IQ online", "IQ real", "IQ bias",
                     "REG online", "REG real", "REG bias"});

    // One engine task per M value; the sweep points are independent.
    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));
    std::vector<Cycle> task_m;
    for (auto m : ms) {
        ExperimentConfig conf;
        conf.profile = trace::specProfile("bzip2");
        conf.online.m = m;
        conf.numIntervals = intervals;
        engine.submit("M=" + std::to_string(m), conf);
        task_m.push_back(m);
    }

    auto tasks = collectOrDie(engine);
    exportCampaign("ablation_m_sweep", engine, tasks);
    for (const auto &task : tasks) {
        Cycle m = task_m[task.index];
        const auto &result = task.result;
        double iq_on = mean(result.onlineSeries(Structure::IQ));
        double iq_sa = mean(result.softarchSeries(Structure::IQ));
        double reg_on = mean(result.onlineSeries(Structure::REG));
        double reg_sa = mean(result.softarchSeries(Structure::REG));

        table.addRow({TablePrinter::intNum(static_cast<long long>(m)),
                      TablePrinter::num(iq_on),
                      TablePrinter::num(iq_sa),
                      TablePrinter::num(iq_on - iq_sa),
                      TablePrinter::num(reg_on),
                      TablePrinter::num(reg_sa),
                      TablePrinter::num(reg_on - reg_sa)});
    }
    table.print();
    std::printf("\nReading: small M truncates slow-propagating errors "
                "(negative bias, strongest for the register file); by "
                "M = 1000 the bias is inside the statistical noise, "
                "matching the paper's choice.\n");
    return 0;
}
