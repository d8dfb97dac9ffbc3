/**
 * @file
 * Ablation for Section 3.3's choice of N: sweep the number of
 * injections per estimate and show that the estimator's standard
 * deviation around the SoftArch reference tracks the analytic bound
 * sigma <= 0.5 / sqrt(N) (and the tighter sqrt(AVF(1-AVF)/N)).
 * N = 1000 is where the paper lands: ~0.016 worst-case standard
 * error at one estimate per million cycles.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "stats/running_stats.hh"
#include "stats/sample_size.hh"
#include "stats/table_printer.hh"
#include "trace/spec_profiles.hh"

int
main()
{
    using namespace avf;
    using namespace avf::harness;
    using core::Structure;
    using stats::TablePrinter;

    auto options = loadRunOptions();
    // Keep total simulated cycles roughly constant per configuration
    // so every N gets a fair sample budget.
    const std::uint64_t budget = options.fastMode ? 12'000'000ull
                                                  : 48'000'000ull;
    const std::vector<std::uint32_t> ns = {100, 250, 500, 1000, 2000,
                                           4000};

    TablePrinter table("Ablation: estimate deviation vs sample count "
                       "N (bzip2, instruction queue, M = 1000)");
    table.setHeader({"N", "intervals", "mean online AVF",
                     "measured sd(err)", "bound 0.5/sqrt(N)",
                     "predicted sd at this AVF"});

    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));
    for (auto n : ns) {
        ExperimentConfig conf;
        conf.profile = trace::specProfile("bzip2");
        conf.online.n = n;
        conf.numIntervals = static_cast<int>(
            budget / (conf.online.m * static_cast<std::uint64_t>(n)));
        if (conf.numIntervals < 3)
            conf.numIntervals = 3;
        engine.submit("N=" + std::to_string(n), conf);
    }

    auto tasks = collectOrDie(engine);
    exportCampaign("ablation_n_sweep", engine, tasks);
    for (const auto &task : tasks) {
        std::uint32_t n = ns[task.index];
        const auto &result = task.result;

        stats::RunningStats err, avf;
        auto online = result.onlineSeries(Structure::IQ);
        auto reference = result.softarchSeries(Structure::IQ);
        for (std::size_t k = 0; k < online.size(); ++k) {
            err.add(online[k] - reference[k]);
            avf.add(reference[k]);
        }

        table.addRow({TablePrinter::intNum(n),
                      TablePrinter::intNum(static_cast<long long>(
                          online.size())),
                      TablePrinter::num(avf.mean()),
                      TablePrinter::num(err.stddev(), 4),
                      TablePrinter::num(
                          0.5 / std::sqrt(static_cast<double>(n)), 4),
                      TablePrinter::num(
                          stats::predictedSigma(
                              avf.mean(), static_cast<double>(n)),
                          4)});
    }
    table.print();
    std::printf("\nReading: measured deviation shrinks ~1/sqrt(N); at "
                "very small N the fixed-interval/round-robin "
                "approximation of random sampling (Sec. 3.3) shows up "
                "as mild excess correlation. N = 1000 buys sigma "
                "~0.016 at a 1M-cycle estimation interval.\n");
    return 0;
}
