/**
 * @file
 * Workload characterization table (the companion table evaluation
 * sections typically carry): per benchmark, the dynamic instruction
 * mix, branch-prediction accuracy, cache/TLB miss rates, IPC, and
 * the mean AVF of each structure — context for interpreting the
 * figure reproductions, and a quick check that the synthetic
 * stand-ins behave like the workload classes they model.
 *
 * The simulations fan out over the engine; the cheap instruction-mix
 * census (a generator clone, no pipeline) stays on the main thread.
 */

#include <cstdio>
#include <map>
#include <string>

#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "stats/table_printer.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

int
main()
{
    using namespace avf;
    using namespace avf::harness;
    using core::Structure;
    using stats::TablePrinter;

    auto options = loadRunOptions();
    const int intervals = options.fastMode ? 2 : 10;

    TablePrinter perf("Workload characterization: performance");
    perf.setHeader({"app", "IPC", "branch acc", "L1D miss",
                    "L2 miss", "dTLB miss", "mix int/fp/ld/st/br"});

    TablePrinter avf("Workload characterization: mean AVF "
                     "(SoftArch reference)");
    avf.setHeader({"app", "iq", "reg", "fxu", "fpu", "freg"});

    ExperimentEngine engine(options);
    engine.onTaskDone(progressLine(options));
    for (const auto &name : trace::specBenchmarkNames()) {
        ExperimentConfig conf;
        conf.profile = trace::specProfile(name);
        conf.numIntervals = intervals;
        engine.submit(name, conf);
    }

    // Instruction-mix census on a generator clone, while the workers
    // churn through the simulations.
    std::map<std::string, std::string> mixes;
    for (const auto &name : trace::specBenchmarkNames()) {
        trace::SyntheticTraceGenerator census(
            trace::specProfile(name));
        std::uint64_t counts[16] = {};
        const int census_n = 300'000;
        trace::TraceInstruction in;
        for (int i = 0; i < census_n; ++i) {
            census.next(in);
            ++counts[static_cast<int>(in.op)];
        }
        using trace::OpClass;
        auto pct = [&](std::initializer_list<OpClass> ops) {
            std::uint64_t total = 0;
            for (auto op : ops)
                total += counts[static_cast<int>(op)];
            return 100.0 * static_cast<double>(total) / census_n;
        };
        char mix[64];
        std::snprintf(mix, sizeof(mix),
                      "%2.0f/%2.0f/%2.0f/%2.0f/%2.0f",
                      pct({OpClass::IntAlu, OpClass::IntMul,
                           OpClass::IntDiv}),
                      pct({OpClass::FpAlu, OpClass::FpDiv}),
                      pct({OpClass::Load}), pct({OpClass::Store}),
                      pct({OpClass::BranchCond,
                           OpClass::BranchUncond}));
        mixes[name] = mix;
    }

    auto tasks = collectOrDie(engine);
    exportCampaign("workload_characterization", engine, tasks);
    for (const auto &task : tasks) {
        const auto &name = task.name;
        const auto &summary = task.result.summary;

        perf.addRow(
            {name, TablePrinter::num(summary.ipc, 2),
             TablePrinter::pct(summary.branchAccuracy * 100, 1),
             TablePrinter::pct(summary.l1dMissRate * 100, 1),
             TablePrinter::pct(summary.l2MissRate * 100, 1),
             TablePrinter::pct(summary.dtlbMissRate * 100, 2),
             mixes[name]});

        auto mean = [&](Structure s) {
            const auto series = task.result.softarchSeries(s);
            double sum = 0.0;
            for (double v : series)
                sum += v;
            return series.empty()
                ? 0.0
                : sum / static_cast<double>(series.size());
        };
        avf.addRow({name, TablePrinter::num(mean(Structure::IQ)),
                    TablePrinter::num(mean(Structure::REG)),
                    TablePrinter::num(mean(Structure::FXU)),
                    TablePrinter::num(mean(Structure::FPU)),
                    TablePrinter::num(mean(Structure::FREG))});
    }
    perf.print();
    avf.print();
    return 0;
}
