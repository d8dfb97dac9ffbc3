#include "ladder.hh"

#include <algorithm>
#include <memory>

#include <sys/stat.h>

#include "control/throttle_controller.hh"
#include "core/injection_port.hh"
#include "core/occupancy_estimator.hh"
#include "core/online_estimator.hh"
#include "core/regression_estimator.hh"
#include "core/utilization_estimator.hh"
#include "cpu/pipeline.hh"
#include "harness/engine.hh"
#include "harness/export.hh"
#include "mem/hierarchy.hh"
#include "obs/attribution.hh"
#include "obs/control_feed.hh"
#include "obs/coverage_probe.hh"
#include "obs/lifecycle.hh"
#include "reliability/budget_arbiter.hh"
#include "reliability/fit_model.hh"
#include "softarch/ace_analyzer.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "util/timing.hh"

namespace avfbench
{

namespace
{

using namespace avf;
using core::Structure;

enum class Rung
{
    Cpu,
    Core,
    SoftArch,
    Obs,
    Control
};

/** Interval geometry, resolved as runExperimentDirect resolves it for
 *  the engine's default 64 lanes. */
struct Geometry
{
    int perEstimator = 1;
    Cycle boundaries = 1;
    Cycle intervalLen = 1;
    Cycle lookahead = 1;
};

Geometry
geometryOf(const LadderSpec &spec)
{
    Geometry g;
    g.perEstimator = std::max(
        1, std::min(harness::RunOptions{}.lanes,
                    numErrorChannels / core::numStructures));
    const auto lanes = static_cast<std::uint32_t>(g.perEstimator);
    g.boundaries = (spec.n + lanes - 1) / lanes;
    g.intervalLen = spec.m * g.boundaries;
    g.lookahead = harness::ExperimentConfig{}.lookahead;
    if (g.perEstimator > 1)
        g.lookahead = std::min(g.lookahead, g.intervalLen);
    return g;
}

/**
 * The experiment roster up to one rung, attached in
 * runExperimentDirect's order. Holds the pipeline by value and hands
 * its address to every observer, so it is neither copied nor moved.
 */
struct Roster
{
    Roster(const harness::ExperimentConfig &config, const Geometry &g,
           Rung rung, Cycle cycles)
        : generator(config.profile), pipeline(config.cpu, generator)
    {
        if (rung == Rung::Cpu)
            return;
        port = std::make_unique<core::InjectionPort>(pipeline);
        pipeline.addObserver(port.get());
        core::OnlineConfig online = config.online;
        online.lanes = g.perEstimator;
        for (int s = 0; s < core::numStructures; ++s)
            estimators.push_back(std::make_unique<core::OnlineAvfEstimator>(
                pipeline, static_cast<Structure>(s), online,
                port.get()));
        utilFxu = std::make_unique<core::UtilizationEstimator>(
            pipeline, cpu::FuClass::Fxu, g.intervalLen);
        utilFpu = std::make_unique<core::UtilizationEstimator>(
            pipeline, cpu::FuClass::Fpu, g.intervalLen);
        occupancy = std::make_unique<core::OccupancyEstimator>(
            pipeline, g.intervalLen);
        if (rung != Rung::Core) {
            softarch::SoftArchConfig sa;
            sa.intervalCycles = g.intervalLen;
            sa.lookahead = g.lookahead;
            sa.fieldGranularIq = config.online.fieldGranularIq;
            reference =
                std::make_unique<softarch::AceAnalyzer>(pipeline, sa);
        }
        for (auto &est : estimators)
            pipeline.addObserver(est.get());
        if (reference)
            pipeline.addObserver(reference.get());
        pipeline.addObserver(utilFxu.get());
        pipeline.addObserver(utilFpu.get());
        pipeline.addObserver(occupancy.get());
        features = std::make_unique<core::FeatureCollector>(
            pipeline, g.intervalLen);
        pipeline.addObserver(features.get());
        if (rung == Rung::Core || rung == Rung::SoftArch)
            return;

        obs::LifecycleConfig lc;
        lc.enabled = true;
        lc.windowCycles = config.online.m;
        tracker = std::make_unique<obs::LifecycleTracker>(lc);
        pipeline.addObserver(tracker.get());
        pipeline.setHopSink(tracker.get());
        obs::AttributionConfig at;
        at.enabled = true;
        at.phaseCycles = g.intervalLen;
        at.phaseCount = static_cast<std::uint32_t>(
            std::max<Cycle>(1, cycles / g.intervalLen));
        attribution = std::make_unique<obs::AttributionTracker>(at);
        obs::CoverageProbeConfig probe;
        probe.m = config.online.m;
        probe.n = static_cast<std::uint32_t>(g.boundaries);
        for (int t = 0; t < obs::numCoverageTargets; ++t) {
            probes.push_back(std::make_unique<obs::CoverageProbe>(
                pipeline, *port, *attribution,
                static_cast<obs::CoverageTarget>(t), probe));
            pipeline.addObserver(probes.back().get());
        }
        tee = std::make_unique<obs::LifecycleTee>(*tracker,
                                                  *attribution);
        for (auto &est : estimators)
            est->setLifecycleSink(tee.get());
        if (rung == Rung::Obs)
            return;

        feed = std::make_unique<obs::ControlFeed>(0);
        for (int s = 0; s < core::numStructures; ++s)
            feed->attachAvf(static_cast<Structure>(s),
                            *estimators[static_cast<std::size_t>(s)]);
        feed->attachOccupancy(*occupancy);
        pipeline.addObserver(feed.get());
        arbiter = std::make_unique<reliability::BudgetArbiter>(
            reliability::FitModel(
                reliability::defaultFitModel(config.cpu)),
            tightBudgetHours);
        controller = std::make_unique<control::ThrottleController>(
            pipeline, *feed, control::ThrottleConfig{}, arbiter.get());
        pipeline.addObserver(controller.get());
    }

    Roster(const Roster &) = delete;
    Roster &operator=(const Roster &) = delete;

    trace::SyntheticTraceGenerator generator;
    cpu::Pipeline pipeline;
    std::unique_ptr<core::InjectionPort> port;
    std::vector<std::unique_ptr<core::OnlineAvfEstimator>> estimators;
    std::unique_ptr<core::UtilizationEstimator> utilFxu;
    std::unique_ptr<core::UtilizationEstimator> utilFpu;
    std::unique_ptr<core::OccupancyEstimator> occupancy;
    std::unique_ptr<softarch::AceAnalyzer> reference;
    std::unique_ptr<core::FeatureCollector> features;
    std::unique_ptr<obs::LifecycleTracker> tracker;
    std::unique_ptr<obs::AttributionTracker> attribution;
    std::vector<std::unique_ptr<obs::CoverageProbe>> probes;
    std::unique_ptr<obs::LifecycleTee> tee;
    std::unique_ptr<obs::ControlFeed> feed;
    std::unique_ptr<reliability::BudgetArbiter> arbiter;
    std::unique_ptr<control::ThrottleController> controller;
};

/** Counts cycles in which nothing retired (untimed pass only). */
class RetireCounter : public cpu::PipelineObserver
{
  public:
    void
    onRetire(const cpu::DynInstr &, const cpu::RetireInfo &) override
    {
        ++retiredThisCycle;
    }

    void
    onCycle(Cycle) override
    {
        if (retiredThisCycle == 0)
            ++zeroRetireCycles;
        retiredThisCycle = 0;
    }

    std::uint64_t zeroRetireCycles = 0;

  private:
    std::uint64_t retiredThisCycle = 0;
};

/** Per-rung host time and pipeline totals, summed over profiles. */
struct RungTotals
{
    double ns = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
};

double
perCycle(double ns, std::uint64_t cycles)
{
    return cycles ? ns / static_cast<double>(cycles) : 0.0;
}

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

} // namespace

void
runLadder(const LadderSpec &spec, SpanLog &spans, MetricList &metrics,
          std::vector<std::string> &errors)
{
    const Geometry g = geometryOf(spec);
    RungTotals cpuT, coreT, saT, obsT, ctlT;
    double traceNs = 0.0, memNs = 0.0, finalizeNs = 0.0;
    double setupNs = 0.0;
    std::uint64_t fetched = 0, dataAccesses = 0, replayed = 0;
    std::uint64_t fetchStall = 0, zeroRetire = 0;
    std::uint64_t l1dAcc = 0, l1dMiss = 0, l2Acc = 0, l2Miss = 0;
    std::uint64_t tlbAcc = 0, tlbMiss = 0;
    std::uint64_t injections = 0, failures = 0, windows = 0, live = 0;
    std::uint64_t buffered = 0, lifecycleRecords = 0, attrRows = 0;
    std::uint64_t actuations = 0;
    std::vector<harness::TaskResult> observed;

    auto timed = [&spans](const char *name, auto &&body) {
        ScopedSpan span(spans, name);
        const std::uint64_t t0 = timing::steadyNowNs();
        body();
        return static_cast<double>(timing::steadyNowNs() - t0);
    };
    auto checkPassive = [&](const char *rung, const Roster &r,
                            const RungTotals &bare,
                            const std::string &profile) {
        const auto &st = r.pipeline.stats();
        if (st.cycles != bare.cycles || st.retired != bare.retired)
            errors.push_back("ladder: " + profile + " rung " + rung +
                             " ran " + std::to_string(st.cycles) +
                             " cycles / " +
                             std::to_string(st.retired) +
                             " retired, bare pipeline " +
                             std::to_string(bare.cycles) + " / " +
                             std::to_string(bare.retired));
    };

    const auto &names = trace::specBenchmarkNames();
    for (std::size_t p = 0; p < names.size(); ++p) {
        harness::ExperimentConfig config;
        config.profile = trace::specProfile(names[p]);
        config.online.m = spec.m;
        config.online.n = spec.n;
        harness::deriveTaskSeeds(config, spec.seedSalt, p);
        const std::string &name = config.profile.name;
        ScopedSpan profileSpan(spans, "ladder." + name);

        // cpu: the bare pipeline; its counts are the passive baseline.
        RungTotals bare;
        std::uint64_t bareFetched = 0;
        {
            Roster r(config, g, Rung::Cpu, spec.cycles);
            bare.ns = timed("cpu.run",
                            [&] { r.pipeline.run(spec.cycles); });
            const auto &st = r.pipeline.stats();
            bare.cycles = st.cycles;
            bare.retired = st.retired;
            bareFetched = st.fetched;
            fetched += st.fetched;
            fetchStall += st.fetchStallCycles;
            const auto &mem = r.pipeline.memory();
            dataAccesses += mem.stats().dataAccesses;
            l1dAcc += mem.l1d().stats().accesses;
            l1dMiss += mem.l1d().stats().misses;
            l2Acc += mem.l2().stats().accesses;
            l2Miss += mem.l2().stats().misses;
            tlbAcc += mem.dtlb().stats().accesses;
            tlbMiss += mem.dtlb().stats().misses;
        }
        cpuT.ns += bare.ns;
        cpuT.cycles += bare.cycles;
        cpuT.retired += bare.retired;

        // trace: the generator alone, for as many instructions as the
        // bare pipeline fetched.
        {
            trace::SyntheticTraceGenerator gen(config.profile);
            trace::TraceInstruction in;
            traceNs += timed("trace.next", [&] {
                for (std::uint64_t i = 0; i < bareFetched; ++i)
                    gen.next(in);
            });
        }

        // mem: replay the same instructions' data addresses through a
        // fresh hierarchy.
        {
            trace::SyntheticTraceGenerator gen(config.profile);
            trace::TraceInstruction in;
            std::vector<Addr> addrs;
            addrs.reserve(bareFetched);
            for (std::uint64_t i = 0; i < bareFetched; ++i) {
                gen.next(in);
                if (trace::isMemOp(in.op))
                    addrs.push_back(in.effAddr);
            }
            mem::MemoryHierarchy hierarchy;
            std::uint64_t latency = 0;
            memNs += timed("mem.dataAccess", [&] {
                for (std::size_t i = 0; i < addrs.size(); ++i)
                    latency += hierarchy.dataAccess(addrs[i], i + 1);
            });
            replayed += addrs.size();
            if (latency == 0 && !addrs.empty())
                errors.push_back("ladder: " + name +
                                 " memory replay returned no latency");
        }

        // Untimed pass: cycles in which nothing retired.
        {
            Roster r(config, g, Rung::Cpu, spec.cycles);
            RetireCounter counter;
            r.pipeline.addObserver(&counter);
            r.pipeline.run(spec.cycles);
            zeroRetire += counter.zeroRetireCycles;
        }

        {
            Roster r(config, g, Rung::Core, spec.cycles);
            coreT.ns += timed("core.run",
                              [&] { r.pipeline.run(spec.cycles); });
            checkPassive("core", r, bare, name);
            coreT.cycles += r.pipeline.stats().cycles;
            for (const auto &est : r.estimators) {
                injections += est->totalInjections();
                failures += est->totalFailures();
                windows += est->totalWindowsClosed();
                live += est->totalLiveInjections();
            }
        }

        {
            std::unique_ptr<Roster> r;
            setupNs += timed("harness.task_setup", [&] {
                r = std::make_unique<Roster>(config, g, Rung::SoftArch,
                                             spec.cycles);
            });
            saT.ns += timed("softarch.run",
                            [&] { r->pipeline.run(spec.cycles); });
            checkPassive("softarch", *r, bare, name);
            saT.cycles += r->pipeline.stats().cycles;
            buffered += r->reference->bufferedRecords();
            const std::size_t through = static_cast<std::size_t>(
                std::max<Cycle>(1, spec.cycles / g.intervalLen) - 1);
            finalizeNs += timed("softarch.finalizeAll", [&] {
                r->reference->finalizeAll(through);
            });
            if (r->reference->results().empty())
                errors.push_back("ladder: " + name +
                                 " SoftArch finalized no interval");
        }

        {
            Roster r(config, g, Rung::Obs, spec.cycles);
            obsT.ns += timed("obs.run",
                             [&] { r.pipeline.run(spec.cycles); });
            checkPassive("obs", r, bare, name);
            obsT.cycles += r.pipeline.stats().cycles;
            for (const auto &est : r.estimators) {
                std::string mismatch = r.tracker->reconcile(*est);
                if (!mismatch.empty())
                    errors.push_back("ladder: " + name + ": " +
                                     mismatch);
            }
            harness::TaskResult task;
            task.index = p;
            task.name = name;
            task.result.benchmark = name;
            task.result.lifecycle = r.tracker->summary();
            task.result.attribution = r.attribution->snapshot();
            lifecycleRecords += task.result.lifecycle.totalClosed();
            attrRows += task.result.attribution.rows.size();
            observed.push_back(std::move(task));
        }

        {
            Roster r(config, g, Rung::Control, spec.cycles);
            ctlT.ns += timed("control.run",
                             [&] { r.pipeline.run(spec.cycles); });
            ctlT.cycles += r.pipeline.stats().cycles;
            actuations += r.controller->actuations();
        }
    }

    // obs export: what an observed campaign writes for these runs.
    std::uint64_t exportBytes = 0;
    const double exportNs = timed("obs.export", [&] {
        for (const auto &task : observed) {
            std::string path = spec.exportDir + "/ladder_" +
                               task.name + "_lifecycle.jsonl";
            harness::writeLifecycleJsonl(task.result, path);
            exportBytes += fileBytes(path);
        }
        std::string path = spec.exportDir + "/ladder_ROOTCAUSE.json";
        harness::writeRootCauseJson(path, "ladder", observed);
        exportBytes += fileBytes(path);
    });

    const auto profiles = static_cast<double>(names.size());
    const double stepNs = perCycle(cpuT.ns, cpuT.cycles);
    const double nextNs = ratio(traceNs, static_cast<double>(fetched));
    const double accessNs =
        ratio(memNs, static_cast<double>(replayed));
    const double traceShare = ratio(traceNs, cpuT.ns);
    const double memPerCycle =
        accessNs * ratio(static_cast<double>(dataAccesses),
                         static_cast<double>(cpuT.cycles));
    const double corePerCycle = perCycle(coreT.ns, coreT.cycles);
    const double saPerCycle = perCycle(saT.ns, saT.cycles);
    const double obsPerCycle = perCycle(obsT.ns, obsT.cycles);
    const double ctlPerCycle = perCycle(ctlT.ns, ctlT.cycles);
    const auto cyc = static_cast<double>(cpuT.cycles);

    metrics.emplace_back("trace.next_ns", nextNs);
    metrics.emplace_back("trace.share", traceShare);
    metrics.emplace_back("mem.access_ns", accessNs);
    metrics.emplace_back("mem.l1d_miss_rate",
                         ratio(static_cast<double>(l1dMiss),
                               static_cast<double>(l1dAcc)));
    metrics.emplace_back("mem.l2_miss_rate",
                         ratio(static_cast<double>(l2Miss),
                               static_cast<double>(l2Acc)));
    metrics.emplace_back("mem.dtlb_miss_rate",
                         ratio(static_cast<double>(tlbMiss),
                               static_cast<double>(tlbAcc)));
    metrics.emplace_back("cpu.step_ns", stepNs);
    metrics.emplace_back("cpu.self_ns",
                         stepNs - nextNs * ratio(static_cast<double>(
                                                     fetched),
                                                 cyc) -
                             memPerCycle);
    metrics.emplace_back("cpu.ipc",
                         ratio(static_cast<double>(cpuT.retired), cyc));
    metrics.emplace_back("cpu.cycles", cyc);
    metrics.emplace_back("cpu.retired",
                         static_cast<double>(cpuT.retired));
    metrics.emplace_back("cpu.fetch_stall_frac",
                         ratio(static_cast<double>(fetchStall), cyc));
    metrics.emplace_back("cpu.zero_retire_frac",
                         ratio(static_cast<double>(zeroRetire), cyc));
    metrics.emplace_back("core.ns_per_cycle", corePerCycle - stepNs);
    metrics.emplace_back("core.injections",
                         static_cast<double>(injections));
    metrics.emplace_back("core.failures",
                         static_cast<double>(failures));
    metrics.emplace_back("core.windows_closed",
                         static_cast<double>(windows));
    metrics.emplace_back("core.live_frac",
                         ratio(static_cast<double>(live),
                               static_cast<double>(injections)));
    metrics.emplace_back("softarch.ns_per_cycle",
                         saPerCycle - corePerCycle);
    metrics.emplace_back("softarch.finalize_ms",
                         finalizeNs * 1e-6 / profiles);
    metrics.emplace_back("softarch.buffered_records",
                         static_cast<double>(buffered) / profiles);
    metrics.emplace_back("obs.ns_per_cycle", obsPerCycle - saPerCycle);
    metrics.emplace_back("obs.export_ms", exportNs * 1e-6);
    metrics.emplace_back("obs.export_bytes",
                         static_cast<double>(exportBytes));
    metrics.emplace_back("obs.lifecycle_records",
                         static_cast<double>(lifecycleRecords));
    metrics.emplace_back("obs.attribution_rows",
                         static_cast<double>(attrRows));
    metrics.emplace_back("control.ns_per_cycle",
                         ctlPerCycle - obsPerCycle);
    metrics.emplace_back("control.actuations",
                         static_cast<double>(actuations));
    metrics.emplace_back("harness.task_setup_us",
                         setupNs * 1e-3 / profiles);
}

} // namespace avfbench
