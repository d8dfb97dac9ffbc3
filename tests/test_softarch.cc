/**
 * @file
 * Tests for the SoftArch-style offline ACE analyzer: dead values and
 * transitively dead chains contribute nothing, failure points anchor
 * ACE-ness, residency spans match the pipeline's actual timings, and
 * multi-interval bucketing behaves.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cpu/pipeline.hh"
#include "softarch/ace_analyzer.hh"
#include "test_helpers.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;
using namespace avf::core;
using namespace avf::cpu;
using namespace avf::softarch;
using namespace avf::testutil;

class RetireCollector : public PipelineObserver
{
  public:
    void
    onRetire(const DynInstr &instr, const RetireInfo &) override
    {
        // Test-only collector. avflint: allow(hot-path-alloc)
        retired.push_back(instr);
    }
    std::vector<DynInstr> retired;
};

struct Rig
{
    Rig(std::vector<trace::TraceInstruction> instrs,
        Cycle interval = 1000, Cycle lookahead = 500)
        : src(withPcs(std::move(instrs))), pipe(CpuConfig{}, src),
          analyzer(pipe, SoftArchConfig{interval, lookahead})
    {
        pipe.addObserver(&collector);
        pipe.addObserver(&analyzer);
    }

    SoftArchAvf
    runOneInterval()
    {
        drain(pipe);
        analyzer.finalizeAll(0);
        return analyzer.results().at(0);
    }

    trace::VectorTraceSource src;
    Pipeline pipe;
    RetireCollector collector;
    AceAnalyzer analyzer;
};

TEST(AceAnalyzer, DeadValueContributesNothing)
{
    // The ALU result is never read: FXU and REG must show zero ACE
    // residency; the store itself still makes its IQ entry ACE.
    Rig rig({
        alu(5, 1, 2),        // dead
        store(6, 1, 0x1000), // stores an (external) r6 value
    });
    auto avf = rig.runOneInterval();
    EXPECT_DOUBLE_EQ(avf[Structure::FXU], 0.0);
    EXPECT_DOUBLE_EQ(avf[Structure::REG], 0.0);
    EXPECT_GT(avf[Structure::IQ], 0.0);
    EXPECT_DOUBLE_EQ(avf[Structure::FPU], 0.0);
}

TEST(AceAnalyzer, TransitiveChainToStoreIsAce)
{
    // a -> b -> c -> store: all three ALU ops are ACE; each occupies
    // the FXU for exactly one cycle.
    Rig rig({
        alu(5, 1, 2),        // a
        alu(6, 5, 1),        // b
        alu(7, 6, 1),        // c
        store(7, 1, 0x1000),
    });
    auto avf = rig.runOneInterval();
    double fxu_unit_cycles = avf[Structure::FXU] * 1000.0 * 2.0;
    EXPECT_NEAR(fxu_unit_cycles, 3.0, 1e-9);
}

TEST(AceAnalyzer, TransitivelyDeadChainIsNotAce)
{
    // a -> b -> c but c is never consumed: the whole chain is dead.
    Rig rig({
        alu(5, 1, 2),
        alu(6, 5, 1),
        alu(7, 6, 1),
        store(2, 1, 0x1000), // unrelated store keeps a failure point
    });
    auto avf = rig.runOneInterval();
    EXPECT_DOUBLE_EQ(avf[Structure::FXU], 0.0);
    EXPECT_DOUBLE_EQ(avf[Structure::REG], 0.0);
}

TEST(AceAnalyzer, LoadAddressAndBranchConditionAreAce)
{
    Rig rig({
        alu(5, 1, 2),       // feeds the load's base: ACE
        load(6, 5, 0x2000), // failure point
        alu(7, 1, 2),       // feeds the branch: ACE
        branch(7, false),   // failure point
        alu(8, 1, 2),       // dead
    });
    auto avf = rig.runOneInterval();
    double fxu_unit_cycles = avf[Structure::FXU] * 1000.0 * 2.0;
    EXPECT_NEAR(fxu_unit_cycles, 2.0, 1e-9); // seq 0 and seq 2 only
}

TEST(AceAnalyzer, RegResidencyMatchesPipelineTimings)
{
    // The store's base register depends on a divide, so the ACE value
    // in r5 sits in the register file from its writeback until the
    // store finally issues.
    Rig rig({
        alu(5, 1, 2),                         // seq 0: ACE value
        alu(9, 1, 2, trace::OpClass::IntDiv), // seq 1: delays store
        store(5, 9, 0x1000),                  // seq 2
    });
    auto avf = rig.runOneInterval();

    const auto &retired = rig.collector.retired;
    ASSERT_EQ(retired.size(), 3u);
    // Expected REG ACE cycles: r5 from seq0.complete to seq2.issue,
    // plus r9 (also an ACE value: the store reads it as base) from
    // seq1.complete to seq2.issue (zero if back-to-back).
    double expected =
        static_cast<double>(retired[2].issueCycle -
                            retired[0].completeCycle) +
        static_cast<double>(retired[2].issueCycle -
                            retired[1].completeCycle);
    double measured = avf[Structure::REG] * 1000.0 * 80.0;
    EXPECT_NEAR(measured, expected, 1e-9);
}

TEST(AceAnalyzer, IqResidencyMatchesPipelineTimings)
{
    // Every instruction in this trace is ACE, so total IQ ACE cycles
    // must equal the summed dispatch-to-issue residencies.
    Rig rig({
        alu(9, 1, 2, trace::OpClass::IntDiv), // seq 0, feeds seq 1
        alu(5, 9, 1),                         // seq 1: waits ~35 cycles
        store(5, 1, 0x1000),                  // seq 2
    });
    auto avf = rig.runOneInterval();

    const auto &retired = rig.collector.retired;
    ASSERT_EQ(retired.size(), 3u);
    double expected = 0.0;
    for (const auto &instr : retired)
        expected += static_cast<double>(instr.issueCycle -
                                        instr.dispatchCycle);
    double measured = avf[Structure::IQ] * 1000.0 * 68.0;
    EXPECT_NEAR(measured, expected, 1e-9);
}

TEST(AceAnalyzer, FpChainCountsTowardFpuOnly)
{
    Rig rig({
        fp(40, 33, 34),       // FP value
        fp(41, 40, 33),       // consumes it
        store(41, 1, 0x1000), // exposes it
    });
    auto avf = rig.runOneInterval();
    EXPECT_GT(avf[Structure::FPU], 0.0);
    EXPECT_DOUBLE_EQ(avf[Structure::FXU], 0.0);
    // FP registers are not part of the (integer) REG structure.
    EXPECT_DOUBLE_EQ(avf[Structure::REG], 0.0);
    double fpu_unit_cycles = avf[Structure::FPU] * 1000.0 * 2.0;
    EXPECT_NEAR(fpu_unit_cycles, 10.0, 1e-9); // two 5-cycle FP ops
}

TEST(AceAnalyzer, StoreDataIsAce)
{
    Rig rig({
        alu(5, 1, 2),        // store data producer: ACE
        store(5, 1, 0x1000),
    });
    auto avf = rig.runOneInterval();
    EXPECT_GT(avf[Structure::FXU], 0.0);
}

TEST(AceAnalyzer, MultiIntervalBucketing)
{
    trace::SyntheticTraceGenerator gen(trace::specProfile("mesa"));
    Pipeline pipe(CpuConfig{}, gen);
    SoftArchConfig conf;
    conf.intervalCycles = 5000;
    conf.lookahead = 2000;
    AceAnalyzer analyzer(pipe, conf);
    pipe.addObserver(&analyzer);

    pipe.run(5000 * 4 + 2500);
    analyzer.finalizeAll(3);
    ASSERT_GE(analyzer.results().size(), 4u);
    for (const auto &row : analyzer.results()) {
        for (double v : row.avf) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
}

TEST(AceAnalyzer, BufferIsBounded)
{
    // The rolling log must not grow without bound: after many
    // intervals it holds at most ~interval+lookahead worth of
    // records.
    trace::SyntheticTraceGenerator gen(trace::specProfile("swim"));
    Pipeline pipe(CpuConfig{}, gen);
    SoftArchConfig conf;
    conf.intervalCycles = 2000;
    conf.lookahead = 500;
    AceAnalyzer analyzer(pipe, conf);
    pipe.addObserver(&analyzer);

    pipe.run(2000 * 10);
    // Generous bound: 3 intervals of records at IPC <= 5.
    EXPECT_LT(analyzer.bufferedRecords(), 3u * 2000u * 5u);
    EXPECT_GE(analyzer.results().size(), 7u);
}

TEST(AceAnalyzer, ShortLookaheadUndercountsConservatively)
{
    // The documented approximation: a value whose last ACE read
    // falls more than `lookahead` cycles after its interval's
    // finalization point is (partially) missed. The error direction
    // is always an UNDERcount — the analyzer never invents ACE time.
    auto run_with_lookahead = [](Cycle lookahead) {
        trace::SyntheticTraceGenerator gen(
            trace::specProfile("lucas"));
        Pipeline pipe(CpuConfig{}, gen);
        SoftArchConfig conf;
        conf.intervalCycles = 10'000;
        conf.lookahead = lookahead;
        AceAnalyzer analyzer(pipe, conf);
        pipe.addObserver(&analyzer);
        pipe.run(10'000 * 6 + lookahead + 100);
        analyzer.finalizeAll(4);
        double sum = 0;
        for (std::size_t k = 0; k < 5; ++k)
            sum += analyzer.results()[k][Structure::REG];
        return sum;
    };
    double tiny = run_with_lookahead(200);
    double ample = run_with_lookahead(8'000);
    EXPECT_LE(tiny, ample + 1e-9);
    EXPECT_GT(ample, 0.0);
}

TEST(AceAnalyzer, DeterministicAcrossRuns)
{
    auto run_once = []() {
        trace::SyntheticTraceGenerator gen(
            trace::specProfile("equake"));
        Pipeline pipe(CpuConfig{}, gen);
        SoftArchConfig conf;
        conf.intervalCycles = 4000;
        conf.lookahead = 1000;
        AceAnalyzer analyzer(pipe, conf);
        pipe.addObserver(&analyzer);
        pipe.run(4000 * 3 + 1500);
        analyzer.finalizeAll(2);
        return analyzer.results();
    };
    auto a = run_once();
    auto b = run_once();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        for (int s = 0; s < numStructures; ++s)
            EXPECT_DOUBLE_EQ(a[i].avf[s], b[i].avf[s]);
}

/** FNV-1a over the bit patterns of every finalized AVF. */
std::uint64_t
resultsDigest(const std::vector<SoftArchAvf> &rows)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const SoftArchAvf &row : rows) {
        for (double v : row.avf) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof bits);
            for (int byte = 0; byte < 8; ++byte) {
                hash ^= (bits >> (8 * byte)) & 0xff;
                hash *= 0x100000001b3ull;
            }
        }
    }
    return hash;
}

/** Short intervals over a real profile: at each finalize the log
 *  spans several blocks and drops a prefix that ends mid-block. */
std::vector<SoftArchAvf>
shortIntervalResults(const std::string &profile, bool fieldGranular)
{
    trace::SyntheticTraceGenerator gen(trace::specProfile(profile));
    Pipeline pipe(CpuConfig{}, gen);
    SoftArchConfig conf;
    conf.intervalCycles = 3000;
    conf.lookahead = 1000;
    conf.fieldGranularIq = fieldGranular;
    AceAnalyzer analyzer(pipe, conf);
    pipe.addObserver(&analyzer);
    pipe.run(3000 * 24 + 1000);
    analyzer.finalizeAll(23);
    return analyzer.results();
}

TEST(AceAnalyzer, ShortIntervalResultsPinned)
{
    // Any change to the records, the backward pass or the order of
    // addSpan calls moves these bits.
    auto fp = shortIntervalResults("sixtrack", false);
    auto integer = shortIntervalResults("perlbmk", true);
    ASSERT_EQ(fp.size(), 24u);
    ASSERT_EQ(integer.size(), 24u);
    EXPECT_EQ(resultsDigest(fp), 0x718fb00d37658d9aull);
    EXPECT_EQ(resultsDigest(integer), 0x1f3d73be8681a478ull);
}

TEST(AceAnalyzer, LogStopsGrowingAfterWarmUp)
{
    // Dropped blocks are recycled, so once the log has held its
    // longest interval plus lookahead it takes no more memory. lucas
    // settles within a dozen 3000-cycle intervals.
    trace::SyntheticTraceGenerator gen(trace::specProfile("lucas"));
    Pipeline pipe(CpuConfig{}, gen);
    SoftArchConfig conf;
    conf.intervalCycles = 3000;
    conf.lookahead = 1000;
    AceAnalyzer analyzer(pipe, conf);
    pipe.addObserver(&analyzer);

    pipe.run(3000 * 20);
    const std::size_t warm = analyzer.reservedLogBytes();
    EXPECT_GT(warm, 0u);
    for (int k = 20; k < 100; ++k) {
        pipe.run(3000);
        EXPECT_EQ(analyzer.reservedLogBytes(), warm) << "interval " << k;
    }
    EXPECT_GE(analyzer.results().size(), 98u);
}

} // namespace
