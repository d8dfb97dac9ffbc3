/**
 * @file
 * Live MTTF monitoring, the deployment scenario the paper's
 * introduction sketches: the online AVF estimates feed a SOFR
 * failure-rate model every estimation interval; the monitor reports
 * the running MTTF projection against a reliability goal and the
 * protection coverage that would close any gap. Also demonstrates
 * the CSV/JSON/gnuplot exporters.
 *
 *   Usage: mttf_monitor [benchmark] [intervals] [output-prefix]
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

#include "harness/experiment.hh"
#include "harness/export.hh"
#include "reliability/fit_model.hh"
#include "reliability/mttf_tracker.hh"
#include "trace/spec_profiles.hh"
#include "util/cli.hh"

int
main(int argc, char **argv)
{
    using namespace avf;
    using namespace avf::reliability;

    std::string bench = argc > 1 ? argv[1] : "mesa";
    std::uint64_t count = 15;
    if (argc > 2 && !parseCount("mttf_monitor", "intervals", argv[2], 1,
                                INT_MAX, count))
        return 1;
    const int intervals = static_cast<int>(count);
    std::string prefix = argc > 3 ? argv[3] : "";

    harness::ExperimentConfig conf;
    conf.profile = trace::specProfile(bench);
    conf.numIntervals = intervals;
    std::printf("MTTF monitor: %s, %d estimation intervals\n\n",
                bench.c_str(), intervals);
    auto result = harness::runExperiment(conf);

    const double fit_budget = 5.0; // this core's share of the chip SER budget
    const double goal_hours = 1e9 / fit_budget;
    FitModel model(defaultFitModel(conf.cpu));
    MttfTracker tracker(model, goal_hours);

    std::printf("interval  FIT(now)  FIT(avg)  MTTF proj (years)  "
                "goal met  coverage needed\n");
    for (const auto &row : result.intervals) {
        tracker.observe(row.online);
        double years = tracker.projectedMttfHours() /
                       (365.0 * 24.0);
        std::printf("%8zu  %8.2f  %8.2f  %17.0f  %-8s  %8.1f%%\n",
                    tracker.intervals() - 1, tracker.currentFit(),
                    tracker.averageFit(), years,
                    tracker.meetsGoal() ? "yes" : "NO",
                    tracker.requiredCoverage() * 100.0);
    }

    std::printf("\nworst-case design point: %.2f FIT (AVF-oblivious); "
                "this workload's average: %.2f FIT (%.1fx less)\n",
                model.worstCaseFit(), tracker.averageFit(),
                tracker.averageFit() > 0
                    ? model.worstCaseFit() / tracker.averageFit()
                    : 0.0);

    if (!prefix.empty()) {
        std::string csv = prefix + ".csv";
        std::string json = prefix + ".json";
        std::string plot = prefix + ".gnuplot";
        harness::writeCsv(result, csv);
        harness::writeJson(result, json);
        harness::writeGnuplotScript(csv, plot, bench);
        std::printf("\nwrote %s, %s, %s\n", csv.c_str(), json.c_str(),
                    plot.c_str());
    }
    return 0;
}
