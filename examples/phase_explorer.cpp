/**
 * @file
 * Explore AVF phase behaviour across the SPEC-like workloads: for a
 * chosen benchmark, print the per-interval AVF of every structure
 * (online vs reference), the phase-to-phase movement, and how well
 * the last-value and EMA predictors cope — the "AVF varies across
 * phases, so adapt online" argument of the paper's introduction,
 * made tangible.
 *
 *   Usage: phase_explorer [benchmark] [intervals]
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "harness/experiment.hh"
#include "stats/running_stats.hh"
#include "trace/spec_profiles.hh"
#include "util/cli.hh"

int
main(int argc, char **argv)
{
    using namespace avf;
    using core::Structure;

    std::string bench = argc > 1 ? argv[1] : "mesa";
    std::uint64_t count = 25;
    if (argc > 2 && !parseCount("phase_explorer", "intervals", argv[2], 1,
                                INT_MAX, count))
        return 1;
    const int intervals = static_cast<int>(count);

    harness::ExperimentConfig conf;
    conf.profile = trace::specProfile(bench);
    conf.numIntervals = intervals;
    std::printf("Phase explorer: %s, %d one-million-cycle "
                "intervals\n\n", bench.c_str(), intervals);
    auto result = harness::runExperiment(conf);

    std::printf("interval |   iq(real/est)   reg(real/est)   "
                "fxu(real/est)   fpu(real/est)\n");
    for (std::size_t k = 0; k < result.intervals.size(); ++k) {
        const auto &row = result.intervals[k];
        std::printf("%8zu |", k);
        for (int s = 0; s < core::numPaperStructures; ++s)
            std::printf("   %.3f/%.3f", row.softarch[s],
                        row.online[s]);
        std::printf("\n");
    }

    std::printf("\nper-structure phase movement and predictability:\n");
    std::printf("%-5s %9s %9s %9s %16s %16s\n", "struct", "meanAVF",
                "minAVF", "maxAVF", "lastval_err", "ema(0.5)_err");
    for (int s = 0; s < core::numPaperStructures; ++s) {
        auto structure = static_cast<Structure>(s);
        auto real = result.softarchSeries(structure);
        auto online = result.onlineSeries(structure);

        stats::RunningStats avf;
        for (double v : real)
            avf.add(v);

        core::LastValuePredictor last;
        core::EmaPredictor ema(0.5);
        auto last_errs = core::predictionErrors(last, online, real);
        auto ema_errs = core::predictionErrors(ema, online, real);
        stats::RunningStats last_stats, ema_stats;
        for (double e : last_errs)
            last_stats.add(e);
        for (double e : ema_errs)
            ema_stats.add(e);

        std::printf("%-5s %9.3f %9.3f %9.3f %16.4f %16.4f\n",
                    std::string(core::structureName(structure))
                        .c_str(),
                    avf.mean(), avf.min(), avf.max(),
                    last_stats.mean(), ema_stats.mean());
    }

    std::printf("\nrun summary: IPC %.2f, branch accuracy %.1f%%, "
                "L1D miss %.1f%%, L2 miss %.1f%%\n",
                result.summary.ipc,
                result.summary.branchAccuracy * 100.0,
                result.summary.l1dMissRate * 100.0,
                result.summary.l2MissRate * 100.0);
    return 0;
}
