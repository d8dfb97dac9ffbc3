/**
 * @file
 * Pipeline correctness tests: stage ordering, latencies, renaming,
 * structural hazards, store-to-load forwarding, branch-misprediction
 * stalls, and conservation invariants.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/pipeline.hh"
#include "test_helpers.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;
using namespace avf::cpu;
using namespace avf::testutil;

/** Collects every retired instruction for post-mortem checks. */
class RetireCollector : public PipelineObserver
{
  public:
    void
    onRetire(const DynInstr &instr, const RetireInfo &info) override
    {
        // Test-only collector; runs are a few hundred instructions.
        // avflint: allow(hot-path-alloc)
        retired.push_back(instr);
        // avflint: allow(hot-path-alloc)
        infos.push_back(info);
    }

    std::vector<DynInstr> retired;
    std::vector<RetireInfo> infos;
};

CpuConfig
table1()
{
    return CpuConfig{};
}

TEST(Pipeline, SingleInstructionFlowsThrough)
{
    auto instrs = withPcs({alu(5, 1, 2)});
    trace::VectorTraceSource src(instrs);
    Pipeline pipe(table1(), src);
    RetireCollector collector;
    pipe.addObserver(&collector);
    drain(pipe);

    ASSERT_EQ(collector.retired.size(), 1u);
    const auto &instr = collector.retired[0];
    EXPECT_LT(instr.fetchCycle, instr.dispatchCycle);
    EXPECT_LT(instr.dispatchCycle, instr.issueCycle);
    EXPECT_EQ(instr.completeCycle, instr.issueCycle + 1);
    EXPECT_GT(instr.retireCycle, instr.completeCycle);
    EXPECT_TRUE(pipe.done());
    EXPECT_EQ(pipe.stats().retired, 1u);
}

TEST(Pipeline, OpLatenciesMatchTable1)
{
    auto instrs = withPcs({
        alu(5, 1, 2, trace::OpClass::IntAlu),
        alu(6, 1, 2, trace::OpClass::IntMul),
        alu(7, 1, 2, trace::OpClass::IntDiv),
        fp(40, 33, 34, trace::OpClass::FpAlu),
        fp(41, 33, 34, trace::OpClass::FpDiv),
    });
    trace::VectorTraceSource src(instrs);
    Pipeline pipe(table1(), src);
    RetireCollector collector;
    pipe.addObserver(&collector);
    drain(pipe);

    ASSERT_EQ(collector.retired.size(), 5u);
    auto exec = [&](std::size_t i) {
        return collector.retired[i].completeCycle -
               collector.retired[i].issueCycle;
    };
    EXPECT_EQ(exec(0), 1u);
    EXPECT_EQ(exec(1), 4u);
    EXPECT_EQ(exec(2), 35u);
    EXPECT_EQ(exec(3), 5u);
    EXPECT_EQ(exec(4), 28u);
}

TEST(Pipeline, DependentChainBackToBack)
{
    // B reads A's result: it must issue exactly when A completes
    // (same-cycle wakeup through the bypass).
    auto instrs = withPcs({alu(5, 1, 2), alu(6, 5, 1)});
    trace::VectorTraceSource src(instrs);
    Pipeline pipe(table1(), src);
    RetireCollector collector;
    pipe.addObserver(&collector);
    drain(pipe);

    ASSERT_EQ(collector.retired.size(), 2u);
    EXPECT_EQ(collector.retired[1].issueCycle,
              collector.retired[0].completeCycle);
    // And the rename edge is recorded for SoftArch.
    EXPECT_EQ(collector.retired[1].srcProducer[0],
              collector.retired[0].seq);
}

TEST(Pipeline, RenamingTracksLatestWriter)
{
    // r5 written twice; the reader after the second write must link
    // to the second producer.
    auto instrs = withPcs({
        alu(5, 1, 2), // seq 0
        alu(6, 5, 1), // seq 1 reads first r5
        alu(5, 1, 3), // seq 2 overwrites r5
        alu(7, 5, 1), // seq 3 reads second r5
    });
    trace::VectorTraceSource src(instrs);
    Pipeline pipe(table1(), src);
    RetireCollector collector;
    pipe.addObserver(&collector);
    drain(pipe);

    ASSERT_EQ(collector.retired.size(), 4u);
    EXPECT_EQ(collector.retired[1].srcProducer[0], 0u);
    EXPECT_EQ(collector.retired[3].srcProducer[0], 2u);
    // Renaming must give the two r5 writes different phys regs.
    EXPECT_NE(collector.retired[0].destPhys,
              collector.retired[2].destPhys);
}

TEST(Pipeline, RetirementIsInProgramOrder)
{
    // A slow divide followed by fast ALUs: ALUs complete first but
    // must retire after the divide.
    std::vector<trace::TraceInstruction> instrs;
    instrs.push_back(alu(5, 1, 2, trace::OpClass::IntDiv));
    for (int i = 0; i < 10; ++i)
        instrs.push_back(alu(6, 1, 2));
    trace::VectorTraceSource src(withPcs(std::move(instrs)));
    Pipeline pipe(table1(), src);
    RetireCollector collector;
    pipe.addObserver(&collector);
    drain(pipe);

    ASSERT_EQ(collector.retired.size(), 11u);
    for (std::size_t i = 1; i < collector.retired.size(); ++i) {
        EXPECT_EQ(collector.retired[i].seq, i);
        EXPECT_GE(collector.retired[i].retireCycle,
                  collector.retired[i - 1].retireCycle);
    }
    // The fast ALUs completed before the div but retired after it.
    EXPECT_LT(collector.retired[1].completeCycle,
              collector.retired[0].completeCycle);
}

TEST(Pipeline, FxuThroughputLimitedToTwo)
{
    // Three independent multiplies: only two issue per cycle.
    auto instrs = withPcs({
        alu(5, 1, 2, trace::OpClass::IntMul),
        alu(6, 1, 2, trace::OpClass::IntMul),
        alu(7, 1, 2, trace::OpClass::IntMul),
    });
    trace::VectorTraceSource src(instrs);
    Pipeline pipe(table1(), src);
    RetireCollector collector;
    pipe.addObserver(&collector);
    drain(pipe);

    ASSERT_EQ(collector.retired.size(), 3u);
    EXPECT_EQ(collector.retired[0].issueCycle,
              collector.retired[1].issueCycle);
    EXPECT_EQ(collector.retired[2].issueCycle,
              collector.retired[0].issueCycle + 1);
}

TEST(Pipeline, LoadLatencyColdAndWarm)
{
    // Two loads from the same line: the first pays dTLB + memory,
    // the second hits L1 behind it.
    auto instrs = withPcs({
        load(5, 1, 0x10000),
        alu(9, 3, 4, trace::OpClass::IntDiv), // spacer to order issue
        load(6, 1, 0x10000),
    });
    // Make the second load dependent on the divide so it issues after
    // the first load's miss has filled the cache.
    instrs[2].src[0] = 9;
    trace::VectorTraceSource src(instrs);
    Pipeline pipe(table1(), src);
    RetireCollector collector;
    pipe.addObserver(&collector);
    drain(pipe);

    ASSERT_EQ(collector.retired.size(), 3u);
    auto exec0 = collector.retired[0].completeCycle -
                 collector.retired[0].issueCycle;
    auto exec2 = collector.retired[2].completeCycle -
                 collector.retired[2].issueCycle;
    // Cold: agen(1) + dTLB(50) + memory(165).
    EXPECT_EQ(exec0, 1u + 50u + 165u);
    // Warm: agen(1) + L1(1).
    EXPECT_EQ(exec2, 2u);
}

TEST(Pipeline, StoreToLoadForwarding)
{
    // A divide at the head of the window blocks retirement, keeping
    // the store in the store queue; the load's base depends on the
    // divide, so it issues after the store's address resolved and
    // must forward (latency agen + forward = 3) instead of missing.
    auto instrs = withPcs({
        alu(9, 3, 4, trace::OpClass::IntDiv),
        store(2, 1, 0x40000),
        load(5, 9, 0x40000),
    });
    trace::VectorTraceSource src(instrs);
    Pipeline pipe(table1(), src);
    RetireCollector collector;
    pipe.addObserver(&collector);
    drain(pipe);

    ASSERT_EQ(collector.retired.size(), 3u);
    auto exec = collector.retired[2].completeCycle -
                collector.retired[2].issueCycle;
    EXPECT_EQ(exec, 3u);
}

TEST(Pipeline, MispredictionStallsFetch)
{
    // A pseudo-random branch defeats the predictor; a heavily biased
    // one trains quickly. Both traces revisit the same two PCs (a
    // loop), so the predictor actually gets to train. The random run
    // must take longer and record fetch stalls.
    auto make_trace = [](bool random) {
        std::vector<trace::TraceInstruction> instrs;
        for (std::uint32_t i = 0; i < 400; ++i) {
            auto body = alu(5, 1, 2);
            body.pc = 0x1000;
            bool taken = random ? ((i * 2654435761u) >> 13) & 1 : true;
            auto br = branch(5, taken, 0x1000);
            br.pc = 0x1004;
            instrs.push_back(body);
            instrs.push_back(br);
        }
        return instrs;
    };

    trace::VectorTraceSource good_src(make_trace(false));
    Pipeline good(table1(), good_src);
    drain(good);

    trace::VectorTraceSource bad_src(make_trace(true));
    Pipeline bad(table1(), bad_src);
    drain(bad);

    EXPECT_GT(bad.stats().cycles, good.stats().cycles + 100);
    EXPECT_GT(bad.branchPredictor().stats().mispredicts,
              good.branchPredictor().stats().mispredicts + 50);
    EXPECT_GT(bad.stats().fetchStallCycles,
              good.stats().fetchStallCycles);
}

TEST(Pipeline, NopsRetire)
{
    auto instrs = withPcs({nop(), nop(), alu(5, 1, 2), nop()});
    trace::VectorTraceSource src(instrs);
    Pipeline pipe(table1(), src);
    drain(pipe);
    EXPECT_EQ(pipe.stats().retired, 4u);
    EXPECT_TRUE(pipe.done());
}

TEST(Pipeline, ConservationOnSyntheticWorkload)
{
    trace::SyntheticTraceGenerator gen(trace::specProfile("bzip2"));
    Pipeline pipe(table1(), gen);
    pipe.run(50'000);

    const auto &stats = pipe.stats();
    EXPECT_GT(stats.retired, 0u);
    EXPECT_LE(stats.retired, stats.dispatched);
    EXPECT_LE(stats.dispatched, stats.fetched);
    // Sensible IPC range for this machine (bzip2 is branchy and
    // memory-bound, so the floor is modest).
    EXPECT_GT(stats.ipc(), 0.05);
    EXPECT_LT(stats.ipc(), 5.0);
}

TEST(Pipeline, FreeListsRestoredAfterDrain)
{
    // After everything retires, exactly the initial number of
    // physical registers must be free (no leaks, no double frees).
    trace::SyntheticTraceGenerator gen(trace::specProfile("mesa"));
    std::vector<trace::TraceInstruction> instrs;
    trace::TraceInstruction in;
    for (int i = 0; i < 5000; ++i) {
        gen.next(in);
        instrs.push_back(in);
    }
    trace::VectorTraceSource src(instrs);
    CpuConfig conf = table1();
    Pipeline pipe(conf, src);
    drain(pipe);

    EXPECT_TRUE(pipe.done());
    EXPECT_EQ(pipe.stats().retired, 5000u);
    EXPECT_EQ(pipe.renameUnit().intFreeCount(),
              static_cast<std::size_t>(conf.intPhysRegs -
                                       trace::numArchIntRegs));
    EXPECT_EQ(pipe.renameUnit().fpFreeCount(),
              static_cast<std::size_t>(conf.fpPhysRegs -
                                       trace::numArchFpRegs));
}

TEST(Pipeline, UtilizationCountersTrackMix)
{
    // An FP-heavy workload must accumulate more FPU busy-cycles than
    // FXU busy-cycles, and vice versa.
    trace::SyntheticTraceGenerator fp_gen(trace::specProfile("swim"));
    Pipeline fp_pipe(table1(), fp_gen);
    fp_pipe.run(30'000);
    const auto &fp_stats = fp_pipe.stats();
    EXPECT_GT(fp_stats.busyUnitCycles[static_cast<int>(FuClass::Fpu)],
              fp_stats.busyUnitCycles[static_cast<int>(FuClass::Fxu)]);

    trace::SyntheticTraceGenerator int_gen(
        trace::specProfile("perlbmk"));
    Pipeline int_pipe(table1(), int_gen);
    int_pipe.run(30'000);
    const auto &int_stats = int_pipe.stats();
    EXPECT_GT(int_stats.busyUnitCycles[static_cast<int>(FuClass::Fxu)],
              int_stats.busyUnitCycles[static_cast<int>(FuClass::Fpu)]);
}

TEST(Pipeline, IqOccupancyReflectsBackpressure)
{
    // A chain of dependent divides keeps consumers waiting in the
    // issue queue, so average occupancy must be noticeably nonzero.
    std::vector<trace::TraceInstruction> instrs;
    instrs.push_back(alu(5, 1, 2, trace::OpClass::IntDiv));
    for (int i = 0; i < 40; ++i)
        instrs.push_back(alu(5, 5, 1, trace::OpClass::IntDiv));
    trace::VectorTraceSource src(withPcs(std::move(instrs)));
    Pipeline pipe(table1(), src);
    drain(pipe);
    double avg_occ = static_cast<double>(pipe.stats().iqOccupancySum) /
                     static_cast<double>(pipe.stats().cycles);
    EXPECT_GT(avg_occ, 1.0);
}

/** Error bits each instruction carried into dispatch, by sequence. */
class DispatchErrors : public PipelineObserver
{
  public:
    explicit DispatchErrors(std::size_t instrs) : masks(instrs, ~0ull) {}

    void
    onDispatch(const DynInstr &instr) override
    {
        ASSERT_LT(instr.seq, masks.size());
        masks[instr.seq] = instr.errorMask;
    }

    std::vector<ErrorMask> masks;
};

// The fetch buffer is a ring. After it wraps, slot k is still the
// k-th oldest buffered instruction, a slot at or past the occupancy
// masks the injection, and clearErrorChannels sweeps every slot.
TEST(Pipeline, FetchBufferRingInjectsByAgeAfterWrapping)
{
    CpuConfig conf = table1();
    conf.fetchBufferEntries = 8;
    const std::size_t total = 300;
    trace::VectorTraceSource src(withPcs(
        std::vector<trace::TraceInstruction>(total, alu(5, 1, 2))));
    Pipeline pipe(conf, src);
    DispatchErrors seen(total);
    pipe.addObserver(&seen);
    // Fetch brings up to 8 a cycle and dispatch takes 1, so the ring
    // stays full and its head walks around the storage.
    pipe.setDispatchThrottle(1);
    const int slots = pipe.numSites(InjectTarget::FetchBuf);
    ASSERT_EQ(slots, 8);
    auto inject = [&](int slot, ErrorMask mask) {
        return pipe.injectError(InjectTarget::FetchBuf, slot, -1, mask);
    };
    EXPECT_EQ(inject(0, 0x1), InjectOutcome::Opened); // empty at reset

    auto buffered = [&] {
        return static_cast<int>(pipe.stats().fetched -
                                pipe.stats().dispatched);
    };
    // Full, with the oldest entry 3 storage slots in after a wrap:
    // slots 5..7 sit at storage 0..2.
    for (int i = 0; i < 10'000 && !(buffered() == slots &&
                                    pipe.stats().dispatched > 16 &&
                                    pipe.stats().dispatched % 8 == 3);
         ++i)
        ASSERT_TRUE(pipe.step());
    ASSERT_EQ(buffered(), slots);
    const std::uint64_t oldest = pipe.stats().dispatched;
    EXPECT_EQ(inject(0, 0x1), InjectOutcome::Occupied);
    EXPECT_EQ(inject(slots - 1, 0x2), InjectOutcome::Occupied);
    EXPECT_EQ(inject(6, 0x4), InjectOutcome::Occupied);
    pipe.clearErrorChannels(0x4);

    // Drain the trace until 3 instructions remain buffered.
    for (int i = 0; i < 10'000 && !(pipe.stats().fetched == total &&
                                    buffered() == 3);
         ++i)
        ASSERT_TRUE(pipe.step());
    ASSERT_EQ(buffered(), 3);
    for (int slot = 3; slot < slots; ++slot)
        EXPECT_EQ(inject(slot, 0x8), InjectOutcome::Opened) << slot;
    EXPECT_EQ(inject(2, 0x8), InjectOutcome::Occupied);
    const std::uint64_t newest = total - 1;

    drain(pipe);
    ASSERT_EQ(pipe.stats().dispatched, total);
    for (std::uint64_t seq = 0; seq < total; ++seq) {
        ErrorMask want = 0;
        if (seq == oldest)
            want = 0x1;
        else if (seq == oldest + 7)
            want = 0x2;
        else if (seq == newest)
            want = 0x8;
        EXPECT_EQ(seen.masks[seq], want) << "seq " << seq;
    }
}

TEST(Pipeline, ConfigValidationRejectsNonsense)
{
    CpuConfig bad = table1();
    bad.intPhysRegs = 10; // fewer than architectural registers
    EXPECT_DEATH(
        {
            trace::VectorTraceSource src(
                std::vector<trace::TraceInstruction>{});
            Pipeline pipe(bad, src);
        },
        "physical registers");
}

TEST(Pipeline, DispatchGroupWidthBoundsRetirement)
{
    // 100 independent 1-cycle ALU ops: retire width 5 caps throughput.
    std::vector<trace::TraceInstruction> instrs;
    for (int i = 0; i < 100; ++i)
        instrs.push_back(alu(static_cast<RegIndex>(4 + i % 20), 1, 2));
    trace::VectorTraceSource src(withPcs(std::move(instrs)));
    Pipeline pipe(table1(), src);
    drain(pipe);
    // At most 5 retire per cycle; at least 20 cycles must elapse.
    EXPECT_GE(pipe.stats().cycles, 20u);
    EXPECT_EQ(pipe.stats().retired, 100u);
}

} // namespace
