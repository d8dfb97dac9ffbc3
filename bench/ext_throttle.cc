/**
 * @file
 * Closed-loop experiment: instruction throttling driven by the
 * online AVF estimate (the Soundararajan-style adaptation the paper
 * says *requires* real-time estimation). Three engine tasks per
 * benchmark on identical workloads, each the standard experiment at
 * one lane (the paper's serial Algorithm 1):
 *
 *   baseline        — no throttling;
 *   always-throttle — statically throttled (worst-case provisioning):
 *                     the machine's dispatch width is the throttled
 *                     width;
 *   adaptive        — the control loop in threshold mode: the throttle
 *                     controller engages only when the predicted IQ
 *                     AVF crosses its threshold, deciding from the
 *                     published metrics series (ControlFeed), never
 *                     from the estimator's private history.
 *
 * Reported: mean IQ AVF (from the independent SoftArch reference,
 * so the controller cannot grade its own homework) and IPC. The
 * throttle genuinely lowers AVF in this simulator because fewer
 * in-flight instructions mean lower ACE occupancy — the effect
 * emerges from the microarchitecture, it is not scripted.
 *
 * As in every engine bench, AVF_LIFECYCLE and AVF_METRICS export the
 * campaign, and AVF_MTTF_BUDGET_HOURS arms budget-mode control on the
 * tasks that configure none (baseline and always-throttle).
 */

#include <cstdio>
#include <iterator>
#include <string>

#include "control/throttle_controller.hh"
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

    // The three runs per benchmark, in submission order.
    constexpr const char *modes[] = {"baseline", "always-throttle",
                                     "adaptive"};
    constexpr std::size_t alwaysThrottled = 1;
    constexpr std::size_t adaptive = 2;

    auto options = loadRunOptions();
    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));
    for (const char *bench : {"mesa", "bzip2", "sixtrack", "art"}) {
        for (std::size_t mode = 0; mode < std::size(modes); ++mode) {
            ExperimentConfig conf;
            conf.profile = trace::specProfile(bench);
            conf.numIntervals = options.fastMode ? 4 : 15;
            conf.online.lanes = 1; // M = N = 1000, serial Algorithm 1
            if (mode == alwaysThrottled)
                conf.cpu.dispatchWidth =
                    control::ThrottleConfig{}.throttledWidth;
            else if (mode == adaptive)
                conf.control.enabled = true; // threshold mode, IQ
            engine.submit(std::string(bench) + "_" + modes[mode], conf);
        }
    }
    auto tasks = collectOrDie(engine);
    exportCampaign("ext_throttle", engine, tasks);

    TablePrinter table("Closed-loop instruction throttling from "
                       "online AVF (IQ AVF from SoftArch; lower is "
                       "safer)");
    table.setHeader({"app", "mode", "IQ AVF", "IPC", "throttled"});
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const std::size_t mode = i % std::size(modes);
        const auto &result = tasks[i].result;
        const auto &cs = result.control;
        double share = cs.intervals
            ? static_cast<double>(cs.throttledIntervals) /
                  static_cast<double>(cs.intervals)
            : 0.0;
        if (mode == alwaysThrottled)
            share = 1.0;
        table.addRow({result.benchmark, modes[mode],
                      TablePrinter::num(stats::mean(
                          result.softarchSeries(Structure::IQ))),
                      TablePrinter::num(result.summary.ipc, 2),
                      TablePrinter::pct(share * 100, 0)});
    }
    table.print();
    std::printf("\nReading: throttling measurably lowers IQ AVF (an "
                "emergent microarchitectural effect: fewer ACE "
                "instruction-cycles in the queue) at an IPC cost; the "
                "adaptive controller pays that cost only in the "
                "vulnerable phases the online estimator flags.\n");
    return 0;
}
