/**
 * @file
 * Reproduces Figure 4: per-interval AVF time series for mesa (100
 * intervals) and ammp (200 intervals) across the four structures,
 * showing the SoftArch ("real") AVF, our online estimate, and — for
 * the logic structures — the utilization-based estimate. The paper's
 * observation: AVF moves substantially across intervals and the
 * online method tracks it closely, while utilization tracks the
 * *shape* but sits visibly off the real value.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "stats/table_printer.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace avf;
using namespace avf::harness;
using core::Structure;

void
printApp(const std::string &name, const ExperimentResult &result)
{
    std::vector<double> xs;
    for (std::size_t k = 0; k < result.intervals.size(); ++k)
        xs.push_back(static_cast<double>(k));

    for (int s = 0; s < core::numPaperStructures; ++s) {
        auto structure = static_cast<Structure>(s);
        std::vector<std::string> names = {"Real_AVF", "Estimated_AVF"};
        std::vector<std::vector<double>> series = {
            result.softarchSeries(structure),
            result.onlineSeries(structure),
        };
        if (structure == Structure::FXU ||
            structure == Structure::FPU) {
            names.push_back("Utilization_based_AVF");
            series.push_back(result.utilizationSeries(structure));
        }
        std::string title = "Figure 4: " +
            std::string(core::structureName(structure)) + " AVF for " +
            name;
        stats::printSeries(title, "interval", xs, names, series);
    }
}

} // namespace

int
main()
{
    // mesa uses the paper's 100 intervals, ammp its 200; both runs
    // proceed in parallel on the engine.
    const auto options = loadRunOptions(100);
    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));
    for (const auto &[name, paper_intervals] :
         {std::pair<std::string, int>{"mesa", 100},
          std::pair<std::string, int>{"ammp", 200}}) {
        ExperimentConfig conf;
        conf.profile = trace::specProfile(name);
        conf.numIntervals = loadRunOptions(paper_intervals).intervals;
        engine.submit(name, conf);
    }
    auto tasks = collectOrDie(engine);
    exportCampaign("fig4_traces", engine, tasks);
    for (const auto &task : tasks)
        printApp(task.name, task.result);
    return 0;
}
