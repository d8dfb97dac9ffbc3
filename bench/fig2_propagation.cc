/**
 * @file
 * Reproduces Figure 2: the cumulative distribution of the time an
 * injected error takes to propagate to a failure point, for the
 * register file (a) and the FXU (b), on bzip2. This distribution is
 * what justifies the paper's choice of M = 1000: the wait window must
 * cover (nearly) the whole CDF or unmasked errors get truncated.
 */

#include <cstdio>
#include <vector>

#include "core/injection_port.hh"
#include "core/propagation_probe.hh"
#include "cpu/pipeline.hh"
#include "stats/histogram.hh"
#include "stats/table_printer.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "harness/config_loader.hh"

namespace
{

using namespace avf;
using core::PropagationProbe;
using core::Structure;

void
report(const char *name, PropagationProbe &probe)
{
    stats::EmpiricalCdf cdf;
    for (double d : probe.delays())
        cdf.add(d);

    std::printf("\n== Figure 2(%s): error propagation time CDF "
                "(bzip2, %s) ==\n",
                name == std::string("register file") ? "a" : "b",
                name);
    std::printf("# failing injections: %zu, masked: %llu, total: "
                "%llu\n",
                probe.delays().size(),
                static_cast<unsigned long long>(probe.maskedCount()),
                static_cast<unsigned long long>(
                    probe.injectionCount()));
    std::printf("%-14s %s\n", "cycles", "CDF(failures <= cycles)");
    for (double t : {10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 700.0,
                     1000.0, 2000.0, 5000.0, 10000.0, 20000.0})
        std::printf("%-14.0f %.4f\n", t, cdf.at(t));
    std::printf("coverage at the paper's M = 1000: %.1f%% of "
                "eventually-failing errors\n",
                cdf.at(1000.0) * 100.0);
    std::printf("p50 = %.0f cycles, p95 = %.0f, p99 = %.0f\n",
                cdf.quantile(0.5), cdf.quantile(0.95),
                cdf.quantile(0.99));
}

} // namespace

int
main()
{
    std::size_t target =
        harness::loadRunOptions().fastMode ? 300 : 1500;

    trace::SyntheticTraceGenerator gen(trace::specProfile("bzip2"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);

    core::ProbeConfig conf;
    conf.maxWait = 20'000;
    conf.targetSamples = target;

    // Both probes reserve a lane from one port, attached first so it
    // latches a failure before a probe's onRetire polls it.
    core::InjectionPort port(pipe);
    pipe.addObserver(&port);
    PropagationProbe reg_probe(pipe, port, Structure::REG, conf);
    PropagationProbe fxu_probe(pipe, port, Structure::FXU, conf);
    pipe.addObserver(&reg_probe);
    pipe.addObserver(&fxu_probe);

    // Run until both probes are satisfied (bounded).
    const Cycle max_cycles = 400'000'000;
    while (pipe.now() < max_cycles &&
           !(reg_probe.finished() && fxu_probe.finished())) {
        pipe.run(1'000'000);
    }

    report("register file", reg_probe);
    report("FXU", fxu_probe);
    return 0;
}
