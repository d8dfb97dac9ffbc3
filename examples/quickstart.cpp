/**
 * @file
 * Quickstart: estimate the AVF of the four processor structures for
 * one workload, online, while the "program" runs — the minimal use of
 * the public API.
 *
 *   Usage: quickstart [benchmark] [intervals]
 *   e.g.   quickstart mesa 5
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/injection_port.hh"
#include "core/online_estimator.hh"
#include "cpu/pipeline.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "util/cli.hh"

int
main(int argc, char **argv)
{
    using namespace avf;

    std::string bench = argc > 1 ? argv[1] : "mesa";
    std::uint64_t count = 5;
    if (argc > 2 && !parseCount("quickstart", "intervals", argv[2], 1,
                                INT_MAX, count))
        return 1;
    const int intervals = static_cast<int>(count);

    // 1. A workload. Here a synthetic SPEC-like trace; any
    //    trace::TraceSource works (e.g. trace::TraceFileReader).
    trace::SyntheticTraceGenerator workload(
        trace::specProfile(bench));

    // 2. The machine: Table 1 of the paper by default.
    cpu::CpuConfig machine;
    cpu::Pipeline pipeline(machine, workload);

    // 3. One online estimator per structure of interest, each taking
    //    its error-bit lane from one injection port. The port latches
    //    failures as instructions retire, so it is attached first.
    //    M = N = 1000 means an AVF estimate every million cycles.
    core::InjectionPort port(pipeline);
    pipeline.addObserver(&port);
    core::OnlineConfig online; // defaults: m = 1000, n = 1000
    std::vector<std::unique_ptr<core::OnlineAvfEstimator>> estimators;
    for (int s = 0; s < core::numPaperStructures; ++s) {
        estimators.push_back(
            std::make_unique<core::OnlineAvfEstimator>(
                pipeline, static_cast<core::Structure>(s), online,
                &port));
        pipeline.addObserver(estimators.back().get());
    }

    // 4. Run. In hardware this would be production execution; here we
    //    just advance the simulator.
    const Cycle interval_cycles = online.m * online.n;
    std::printf("Estimating AVF for '%s' every %llu cycles "
                "(M = %llu, N = %u)\n\n",
                bench.c_str(),
                static_cast<unsigned long long>(interval_cycles),
                static_cast<unsigned long long>(online.m), online.n);
    std::printf("interval      iq     reg     fxu     fpu     ipc\n");

    std::uint64_t last_retired = 0;
    for (int k = 0; k < intervals; ++k) {
        // One extra cycle so the interval-closing bookkeeping (which
        // fires on the first cycle of the next interval) has run.
        pipeline.run(interval_cycles + 1);
        std::uint64_t retired = pipeline.stats().retired;
        double ipc = static_cast<double>(retired - last_retired) /
                     static_cast<double>(interval_cycles);
        last_retired = retired;
        std::printf("%8d ", k);
        for (auto &est : estimators) {
            const auto &series = est->estimates();
            if (series.size() > static_cast<std::size_t>(k))
                std::printf(" %6.3f", series[k]);
            else
                std::printf("      -");
        }
        std::printf("  %6.2f\n", ipc);
    }

    std::printf("\nDone: %llu instructions retired over %llu cycles "
                "(IPC %.2f).\n",
                static_cast<unsigned long long>(
                    pipeline.stats().retired),
                static_cast<unsigned long long>(
                    pipeline.stats().cycles),
                pipeline.stats().ipc());
    return 0;
}
