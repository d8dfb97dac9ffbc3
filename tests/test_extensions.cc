/**
 * @file
 * Tests for the extension experiments: FP-register-file AVF (FREG),
 * the occupancy baseline, and dTLB error bits + online estimation
 * (the paper's footnote 1 experiment).
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/occupancy_estimator.hh"
#include "core/injection_port.hh"
#include "core/online_estimator.hh"
#include "core/tlb_estimator.hh"
#include "cpu/pipeline.hh"
#include "mem/tlb.hh"
#include "softarch/ace_analyzer.hh"
#include "test_helpers.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;
using namespace avf::core;
using namespace avf::cpu;
using namespace avf::testutil;

// ---------------------------------------------------------------------
// dTLB error bits (mem-level semantics)
// ---------------------------------------------------------------------

TEST(TlbErrorBits, InjectedErrorRidesNextTranslation)
{
    mem::Tlb tlb({"t", 4, 4096, 50});
    ErrorMask err = ~ErrorMask{0};
    tlb.access(0x1000, 10, &err);
    EXPECT_EQ(err, 0); // fresh fill is clean

    // The fill went to slot 0 (first invalid slot).
    EXPECT_EQ(tlb.injectError(0, 0x4), InjectOutcome::Occupied);
    tlb.access(0x1800, 20, &err); // same page, uses the entry
    EXPECT_EQ(err, 0x4);
}

TEST(TlbErrorBits, RefillOverwritesError)
{
    mem::Tlb tlb({"t", 1, 4096, 50}); // single entry
    ErrorMask err = 0;
    tlb.access(0x1000, 10, &err);
    EXPECT_EQ(tlb.injectError(0, 0x4), InjectOutcome::Occupied);
    // A different page evicts and refills the only slot.
    tlb.access(0x2000, 20, &err);
    EXPECT_EQ(err, 0);
    // Back to the first page: refilled again, still clean.
    tlb.access(0x1000, 30, &err);
    EXPECT_EQ(err, 0);
}

TEST(TlbErrorBits, InvalidSlotMasksInjection)
{
    mem::Tlb tlb({"t", 8, 4096, 50});
    EXPECT_EQ(tlb.injectError(3, 0x1),
              InjectOutcome::Opened); // nothing resident
}

TEST(TlbErrorBits, ClearErrors)
{
    mem::Tlb tlb({"t", 4, 4096, 50});
    ErrorMask err = 0;
    tlb.access(0x1000, 10, &err);
    tlb.injectError(0, 0x3);
    tlb.clearErrors(0x1);
    tlb.access(0x1008, 20, &err);
    EXPECT_EQ(err, 0x2); // only the cleared channel is gone
}

TEST(TlbErrorBits, ReferenceAvfCountsInterUseSpans)
{
    mem::Tlb tlb({"t", 2, 4096, 50});
    tlb.access(0x1000, 100); // fill at t=100
    tlb.access(0x1010, 400); // reuse: span 300 was ACE
    tlb.access(0x1020, 500); // reuse: span 100 was ACE
    EXPECT_EQ(tlb.stats().aceCycles, 400u);
    EXPECT_DOUBLE_EQ(tlb.referenceAvf(1000), 400.0 / (1000.0 * 2.0));
}

TEST(TlbErrorBits, UntimedAccessSkipsAceAccounting)
{
    mem::Tlb tlb({"t", 2, 4096, 50});
    tlb.access(0x1000);
    tlb.access(0x1008);
    EXPECT_EQ(tlb.stats().aceCycles, 0u);
    EXPECT_DOUBLE_EQ(tlb.referenceAvf(0), 0.0);
}

// ---------------------------------------------------------------------
// dTLB online estimation through the pipeline
// ---------------------------------------------------------------------

TEST(TlbEstimator, CorruptedTranslationFailsTheLoad)
{
    // One load fills a dTLB entry; a later load to the same page uses
    // the (corrupted) entry and must retire as a failure.
    trace::VectorTraceSource src(withPcs({
        load(5, 1, 0x4000),                   // seq 0: fills the TLB
        alu(9, 1, 2, trace::OpClass::IntDiv), // seq 1: spacer
        load(6, 9, 0x4800),                   // seq 2: same page
    }));
    Pipeline pipe(CpuConfig{}, src);

    struct Log : PipelineObserver
    {
        void
        onRetire(const DynInstr &instr, const RetireInfo &info)
            override
        {
            if (instr.seq == 2)
                mask = info.failureMask;
        }
        ErrorMask mask = 0;
    } log;
    pipe.addObserver(&log);

    struct Injector : PipelineObserver
    {
        Pipeline *pipe = nullptr;
        int occupied = 0;
        void
        onIssue(const DynInstr &instr) override
        {
            if (instr.seq == 0) {
                // seq 0's issue just filled the dTLB; corrupt every
                // valid slot (only that one page is resident).
                const int slots = pipe->numSites(InjectTarget::Dtlb);
                for (int s = 0; s < slots; ++s)
                    occupied += pipe->injectError(InjectTarget::Dtlb,
                                                  s, -1, 0x1) ==
                                InjectOutcome::Occupied;
            }
        }
    } injector;
    injector.pipe = &pipe;
    pipe.addObserver(&injector);

    drain(pipe);
    EXPECT_EQ(injector.occupied, 1);
    EXPECT_EQ(log.mask, 0x1);
}

TEST(TlbEstimator, ProducesBoundedEstimates)
{
    trace::SyntheticTraceGenerator gen(trace::specProfile("bzip2"));
    Pipeline pipe(CpuConfig{}, gen);
    TlbEstimatorConfig conf;
    conf.m = 2000;
    conf.n = 50;
    InjectionPort port(pipe);
    pipe.addObserver(&port);
    TlbAvfEstimator est(pipe, port, conf);
    pipe.addObserver(&est);

    pipe.run(2000 * 50 * 2 + 2500);
    ASSERT_GE(est.estimates().size(), 2u);
    for (double v : est.estimates()) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
    EXPECT_GT(est.totalInjections(), 100u);
}

TEST(TlbEstimator, LargerWindowCapturesMore)
{
    // The footnote-1 effect: TLB errors surface slowly, so a larger M
    // yields a larger (more complete) estimate.
    auto run_m = [](Cycle m) {
        trace::SyntheticTraceGenerator gen(
            trace::specProfile("equake"));
        Pipeline pipe(CpuConfig{}, gen);
        TlbEstimatorConfig conf;
        conf.m = m;
        conf.n = 400;
        InjectionPort port(pipe);
        pipe.addObserver(&port);
        TlbAvfEstimator est(pipe, port, conf);
        pipe.addObserver(&est);
        pipe.run(m * 400 + m);
        return est.estimates().empty() ? est.partialAvf()
                                       : est.estimates()[0];
    };
    double small = run_m(500);
    double large = run_m(20'000);
    EXPECT_GT(large, small + 0.1);
}

// ---------------------------------------------------------------------
// FREG extension
// ---------------------------------------------------------------------

TEST(FregExtension, FpWorkloadShowsFregVulnerability)
{
    auto run_bench = [](const char *name) {
        trace::SyntheticTraceGenerator gen(trace::specProfile(name));
        Pipeline pipe(CpuConfig{}, gen);
        OnlineConfig conf;
        conf.m = 500;
        conf.n = 200;
        InjectionPort port(pipe);
        pipe.addObserver(&port);
        OnlineAvfEstimator est(pipe, Structure::FREG, conf, &port);
        pipe.addObserver(&est);
        pipe.run(500 * 200 * 2 + 550);
        double sum = 0;
        for (double v : est.estimates())
            sum += v;
        return est.estimates().empty()
            ? 0.0
            : sum / static_cast<double>(est.estimates().size());
    };
    double fp_code = run_bench("swim");
    double int_code = run_bench("perlbmk");
    EXPECT_GT(fp_code, int_code + 0.02);
    EXPECT_LT(int_code, 0.02);
}

TEST(FregExtension, SoftArchTracksOnlineForFreg)
{
    trace::SyntheticTraceGenerator gen(trace::specProfile("lucas"));
    Pipeline pipe(CpuConfig{}, gen);
    OnlineConfig conf;
    conf.m = 1000;
    conf.n = 500;
    InjectionPort port(pipe);
    pipe.addObserver(&port);
    OnlineAvfEstimator est(pipe, Structure::FREG, conf, &port);
    pipe.addObserver(&est);
    softarch::SoftArchConfig sa{1000 * 500, 16'384};
    softarch::AceAnalyzer analyzer(pipe, sa);
    pipe.addObserver(&analyzer);

    pipe.run(1000 * 500 * 2 + 20'000);
    analyzer.finalizeAll(1);
    ASSERT_GE(est.estimates().size(), 2u);
    ASSERT_GE(analyzer.results().size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
        double online = est.estimates()[k];
        double reference =
            analyzer.results()[k][Structure::FREG];
        EXPECT_NEAR(online, reference, 0.08);
        EXPECT_GT(reference, 0.01); // lucas is FP-heavy
    }
}

// ---------------------------------------------------------------------
// Occupancy baseline
// ---------------------------------------------------------------------

TEST(OccupancyEstimator, MatchesPipelineCounters)
{
    trace::SyntheticTraceGenerator gen(trace::specProfile("art"));
    Pipeline pipe(CpuConfig{}, gen);
    OccupancyEstimator occ(pipe, 10'000);
    pipe.addObserver(&occ);
    pipe.run(30'000);

    ASSERT_EQ(occ.estimates().size(), 3u);
    // Cross-check the total against the pipeline's own counter.
    double total = 0;
    for (double v : occ.estimates())
        total += v * 10'000 * pipe.config().totalIqEntries();
    EXPECT_NEAR(total,
                static_cast<double>(pipe.stats().iqOccupancySum),
                1.0);
    for (double v : occ.estimates()) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(OccupancyEstimator, UpperBoundsSoftArchIqAvf)
{
    // Occupancy counts every resident instruction; ACE analysis
    // discounts the dead ones, so occupancy must come out >=.
    trace::SyntheticTraceGenerator gen(
        trace::specProfile("perlbmk"));
    Pipeline pipe(CpuConfig{}, gen);
    const Cycle interval = 50'000;
    OccupancyEstimator occ(pipe, interval);
    softarch::SoftArchConfig sa{interval, 10'000};
    softarch::AceAnalyzer analyzer(pipe, sa);
    pipe.addObserver(&occ);
    pipe.addObserver(&analyzer);

    pipe.run(interval * 3 + 15'000);
    analyzer.finalizeAll(2);
    ASSERT_GE(occ.estimates().size(), 3u);
    ASSERT_GE(analyzer.results().size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_GE(occ.estimates()[k] + 0.02,
                  analyzer.results()[k][Structure::IQ]);
    }
}

} // namespace
