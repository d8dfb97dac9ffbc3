/**
 * @file
 * The paper's motivating use case (cf. Soundararajan et al. [16]):
 * drive a dynamic protection controller from *predicted* AVF. Each
 * estimation interval the controller predicts the next interval's
 * AVF from the online estimate (last-value predictor) and picks a
 * protection level:
 *
 *   level 0  no protection        (no overhead)
 *   level 1  instruction throttle (small IPC cost, halves exposure)
 *   level 2  selective redundancy (larger cost, quarters exposure)
 *
 * We then score the policy against an oracle that sees the real
 * (SoftArch) AVF of the interval, reporting effective exposure
 * (AVF x exposure-factor, proportional to 1/MTTF contribution) and
 * overhead, versus always-off and always-max static policies.
 */

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "harness/experiment.hh"
#include "trace/spec_profiles.hh"
#include "util/cli.hh"

namespace
{

using namespace avf;
using core::Structure;

struct ProtectionLevel
{
    const char *name;
    double exposureFactor; ///< fraction of raw AVF left unprotected
    double overhead;       ///< performance/energy cost in percent
};

constexpr ProtectionLevel levels[] = {
    {"off", 1.00, 0.0},
    {"throttle", 0.50, 3.0},
    {"redundant", 0.25, 9.0},
};

int
pickLevel(double predicted_avf)
{
    if (predicted_avf < 0.10)
        return 0;
    if (predicted_avf < 0.25)
        return 1;
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "mesa";
    std::uint64_t count = 20;
    if (argc > 2 && !parseCount("adaptive_protection", "intervals",
                                argv[2], 1, INT_MAX, count))
        return 1;
    const int intervals = static_cast<int>(count);

    std::printf("Adaptive protection driven by online AVF "
                "(benchmark %s, %d intervals)\n\n", bench.c_str(),
                intervals);

    harness::ExperimentConfig conf;
    conf.profile = trace::specProfile(bench);
    conf.numIntervals = intervals;
    auto result = harness::runExperiment(conf);

    // Protect the structure with the largest average AVF.
    auto pick_structure = [&]() {
        double best = -1.0;
        Structure which = Structure::IQ;
        for (int s = 0; s < core::numPaperStructures; ++s) {
            double sum = 0;
            for (const auto &row : result.intervals)
                sum += row.softarch[static_cast<std::size_t>(s)];
            if (sum > best) {
                best = sum;
                which = static_cast<Structure>(s);
            }
        }
        return which;
    };
    Structure target = pick_structure();
    std::printf("most vulnerable structure on this workload: %s\n\n",
                std::string(core::structureName(target)).c_str());

    auto online = result.onlineSeries(target);
    auto real = result.softarchSeries(target);

    core::LastValuePredictor predictor;
    double adaptive_exposure = 0, adaptive_overhead = 0;
    double off_exposure = 0;
    double max_exposure = 0, oracle_exposure = 0, oracle_overhead = 0;

    std::printf("interval  est_AVF  pred_AVF  real_AVF  level      "
                "exposure\n");
    for (std::size_t k = 0; k < online.size(); ++k) {
        double predicted = k == 0 ? 0.5 /* conservative cold start */
                                  : predictor.predict();
        int level = pickLevel(predicted);
        int oracle_level = pickLevel(real[k]);

        adaptive_exposure += real[k] * levels[level].exposureFactor;
        adaptive_overhead += levels[level].overhead;
        off_exposure += real[k];
        max_exposure += real[k] * levels[2].exposureFactor;
        oracle_exposure += real[k] *
            levels[oracle_level].exposureFactor;
        oracle_overhead += levels[oracle_level].overhead;

        std::printf("%8zu  %7.3f  %8.3f  %8.3f  %-9s  %8.3f\n", k,
                    online[k], predicted, real[k],
                    levels[level].name,
                    real[k] * levels[level].exposureFactor);
        predictor.observe(online[k]);
    }

    auto n = static_cast<double>(online.size());
    std::printf("\npolicy comparison (lower exposure = higher MTTF; "
                "overhead = avg %%cost):\n");
    std::printf("  %-12s exposure %.3f  overhead %4.1f%%\n",
                "always-off", off_exposure / n, 0.0);
    std::printf("  %-12s exposure %.3f  overhead %4.1f%%\n",
                "always-max", max_exposure / n, levels[2].overhead);
    std::printf("  %-12s exposure %.3f  overhead %4.1f%%\n",
                "adaptive", adaptive_exposure / n,
                adaptive_overhead / n);
    std::printf("  %-12s exposure %.3f  overhead %4.1f%% "
                "(knows real AVF)\n",
                "oracle", oracle_exposure / n, oracle_overhead / n);
    return 0;
}
