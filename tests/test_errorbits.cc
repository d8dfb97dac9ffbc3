/**
 * @file
 * Error-bit propagation semantics, mirroring the worked examples of
 * Section 3.1: dead values mask injected errors, live values carry
 * them to failure points, idle units mask logic injections, busy
 * units propagate them, issue-queue injections corrupt the occupying
 * instruction, and clearing restores a pristine machine.
 */

#include <gtest/gtest.h>

#include <functional>
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

constexpr ErrorMask ch0 = 1;
constexpr ErrorMask ch1 = 2;

/** Observer exposing per-event lambdas for surgical injections. */
class Hook : public PipelineObserver
{
  public:
    std::function<void(const DynInstr &)> dispatchFn;
    std::function<void(const DynInstr &)> issueFn;
    std::function<void(const DynInstr &)> completeFn;
    std::function<void(const DynInstr &, const RetireInfo &)> retireFn;

    void
    onDispatch(const DynInstr &instr) override
    {
        if (dispatchFn)
            dispatchFn(instr);
    }
    void
    onIssue(const DynInstr &instr) override
    {
        if (issueFn)
            issueFn(instr);
    }
    void
    onComplete(const DynInstr &instr) override
    {
        if (completeFn)
            completeFn(instr);
    }
    void
    onRetire(const DynInstr &instr, const RetireInfo &info) override
    {
        if (retireFn)
            retireFn(instr, info);
    }
};

/** Failure masks seen at retirement, per sequence number. */
struct FailureLog
{
    std::vector<ErrorMask> maskBySeq;

    void
    record(const DynInstr &instr, const RetireInfo &info)
    {
        if (maskBySeq.size() <= instr.seq)
            maskBySeq.resize(instr.seq + 1, 0);
        maskBySeq[instr.seq] = info.failureMask;
    }

    bool
    failed(InstrSeq seq, ErrorMask bit = ch0) const
    {
        return seq < maskBySeq.size() && (maskBySeq[seq] & bit);
    }

    bool
    anyFailure(ErrorMask bit = ch0) const
    {
        for (auto m : maskBySeq)
            if (m & bit)
                return true;
        return false;
    }
};

struct Rig
{
    explicit Rig(std::vector<trace::TraceInstruction> instrs)
        : src(withPcs(std::move(instrs))), pipe(CpuConfig{}, src)
    {
        pipe.addObserver(&hook);
        hook.retireFn = [this](const DynInstr &i, const RetireInfo &r) {
            log.record(i, r);
        };
    }

    trace::VectorTraceSource src;
    Pipeline pipe;
    Hook hook;
    FailureLog log;
};

TEST(ErrorBits, DeadValueMasksInjection)
{
    // Paper example 1: r3 is written, then overwritten without being
    // read; an error injected into the first r3 value must vanish.
    Rig rig({
        alu(3, 1, 2),  // seq 0: r3 = r1 + r2 (value will be dead)
        alu(3, 2, 4),  // seq 1: r3 overwritten by clean sources
        store(3, 1, 0x1000), // seq 2: store reads the NEW r3
    });
    rig.hook.completeFn = [&](const DynInstr &instr) {
        if (instr.seq == 0)
            rig.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                 -1, ch0);
    };
    drain(rig.pipe);

    EXPECT_FALSE(rig.log.anyFailure());
}

TEST(ErrorBits, LiveValuePropagatesToStore)
{
    // Paper example 2: error in r4 propagates through r5 to a store.
    Rig rig({
        alu(4, 1, 2),        // seq 0: r4 = ...
        alu(5, 4, 1),        // seq 1: r5 = r4 + r1 (inherits error)
        store(5, 1, 0x1000), // seq 2: erroneous store -> failure
    });
    rig.hook.completeFn = [&](const DynInstr &instr) {
        if (instr.seq == 0)
            rig.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                 -1, ch0);
    };
    drain(rig.pipe);

    EXPECT_TRUE(rig.log.failed(2));
    EXPECT_FALSE(rig.log.failed(0));
    EXPECT_FALSE(rig.log.failed(1)); // ALU ops are not failure points
}

TEST(ErrorBits, BusyFxuPropagates)
{
    // Paper example 4: an error in the ALU while it computes r7
    // propagates into r7 and then to the branch.
    Rig rig({
        alu(7, 5, 6, trace::OpClass::IntDiv), // seq 0: long op in FXU
        branch(7, false),                     // seq 1: branch on r7
    });
    rig.hook.issueFn = [&](const DynInstr &instr) {
        if (instr.seq == 0) {
            EXPECT_EQ(rig.pipe.injectError(InjectTarget::Fxu,
                                           instr.fuUnit, -1, ch0),
                      InjectOutcome::Occupied);
        }
    };
    drain(rig.pipe);

    EXPECT_TRUE(rig.log.failed(1));
}

TEST(ErrorBits, IdleFuMasks)
{
    // Paper example 3: an error injected into an idle unit never
    // propagates.
    Rig rig({
        alu(5, 1, 2),
        store(5, 1, 0x1000),
    });
    bool injected = false;
    rig.hook.dispatchFn = [&](const DynInstr &instr) {
        if (instr.seq == 0 && !injected) {
            injected = true;
            // Nothing is executing in the FPU in this program.
            EXPECT_EQ(rig.pipe.injectError(InjectTarget::Fpu, 0, -1, ch0),
                      InjectOutcome::Opened);
        }
    };
    drain(rig.pipe);

    EXPECT_FALSE(rig.log.anyFailure());
}

TEST(ErrorBits, IqInjectionCorruptsWaitingInstruction)
{
    // seq 1 waits in the issue queue behind a divide; corrupting its
    // IQ entry corrupts its result, which a store then exposes.
    Rig rig({
        alu(9, 1, 2, trace::OpClass::IntDiv), // seq 0: delays seq 1
        alu(5, 9, 1),                         // seq 1: waits in IQ
        store(5, 1, 0x1000),                  // seq 2
    });
    bool injected = false;
    rig.hook.dispatchFn = [&](const DynInstr &instr) {
        if (instr.seq == 1) {
            ASSERT_GE(instr.iqGlobalEntry, 0);
            EXPECT_EQ(rig.pipe.injectError(InjectTarget::IqEntry,
                                           instr.iqGlobalEntry, -1, ch0),
                      InjectOutcome::Occupied);
            injected = true;
        }
    };
    drain(rig.pipe);

    EXPECT_TRUE(injected);
    EXPECT_TRUE(rig.log.failed(2));
}

TEST(ErrorBits, EmptyIqEntryMasks)
{
    Rig rig({alu(5, 1, 2)});
    // Before anything dispatches, every entry is empty.
    EXPECT_EQ(rig.pipe.injectError(InjectTarget::IqEntry, 0, -1, ch0),
              InjectOutcome::Opened);
    EXPECT_FALSE(rig.pipe.iqEntryOccupied(0));
    drain(rig.pipe);
    EXPECT_FALSE(rig.log.anyFailure());
}

TEST(ErrorBits, CorruptedLoadAddressFails)
{
    Rig rig({
        alu(4, 1, 2),       // seq 0: base register
        load(5, 4, 0x2000), // seq 1: erroneous base -> failing load
    });
    rig.hook.completeFn = [&](const DynInstr &instr) {
        if (instr.seq == 0)
            rig.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                 -1, ch0);
    };
    drain(rig.pipe);

    EXPECT_TRUE(rig.log.failed(1));
}

TEST(ErrorBits, CorruptedBranchConditionFails)
{
    Rig rig({
        alu(4, 1, 2),
        branch(4, true),
    });
    rig.hook.completeFn = [&](const DynInstr &instr) {
        if (instr.seq == 0)
            rig.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                 -1, ch0);
    };
    drain(rig.pipe);

    EXPECT_TRUE(rig.log.failed(1));
}

TEST(ErrorBits, StoreDataErrorForwardsToLoad)
{
    // The erroneous store fails at retirement AND forwards its error
    // to a younger load of the same address. The divide at the head
    // blocks retirement so the store is still in the store queue
    // when the load issues.
    Rig rig({
        alu(9, 3, 4, trace::OpClass::IntDiv), // seq 0: blocks retire
        alu(2, 1, 1),             // seq 1: store data (corrupted)
        store(2, 1, 0x4000),      // seq 2: failing store
        load(5, 9, 0x4000),       // seq 3: forwarded -> failing load
    });
    rig.hook.completeFn = [&](const DynInstr &instr) {
        if (instr.seq == 1)
            rig.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                 -1, ch0);
    };
    drain(rig.pipe);

    EXPECT_TRUE(rig.log.failed(2));
    EXPECT_TRUE(rig.log.failed(3));
}

TEST(ErrorBits, OverwriteReplacesErrorState)
{
    // A register written by clean sources ends up clean even if the
    // physical register previously carried an error: the write
    // overwrites the error bit rather than OR-ing into it.
    Rig rig({
        alu(9, 1, 2, trace::OpClass::IntDiv), // seq 0: delays seq 1
        alu(5, 9, 1),                         // seq 1: writes r5 late
        store(5, 1, 0x1000),                  // seq 2
    });
    rig.hook.dispatchFn = [&](const DynInstr &instr) {
        if (instr.seq == 1) {
            // Corrupt the freshly allocated destination register
            // while the producer is still in flight. The writeback
            // must replace this bit with the (clean) computed mask.
            rig.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                 -1, ch0);
        }
    };
    drain(rig.pipe);

    EXPECT_FALSE(rig.log.anyFailure());
}

TEST(ErrorBits, ClearChannelsScrubsEverything)
{
    Rig rig({
        alu(4, 1, 2),
        alu(9, 1, 2, trace::OpClass::IntDiv), // delay consumer issue
        alu(5, 4, 9),                         // reads r4 late
        store(5, 1, 0x1000),
    });
    rig.hook.completeFn = [&](const DynInstr &instr) {
        if (instr.seq == 0) {
            rig.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                 -1, ch0);
            EXPECT_EQ(rig.pipe.regErrorAt(instr.destPhys), ch0);
            // Immediately scrub: the error must never surface.
            rig.pipe.clearErrorChannels(ch0);
            EXPECT_EQ(rig.pipe.regErrorAt(instr.destPhys), 0);
        }
    };
    drain(rig.pipe);

    EXPECT_FALSE(rig.log.anyFailure());
}

TEST(ErrorBits, ChannelsAreIndependent)
{
    Rig rig({
        alu(4, 1, 2),        // seq 0: live (read by store)
        alu(6, 1, 2),        // seq 1: dead
        store(4, 1, 0x1000), // seq 2
    });
    rig.hook.completeFn = [&](const DynInstr &instr) {
        if (instr.seq == 0)
            rig.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                 -1, ch0);
        if (instr.seq == 1)
            rig.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                 -1, ch1);
    };
    drain(rig.pipe);

    EXPECT_TRUE(rig.log.failed(2, ch0));
    EXPECT_FALSE(rig.log.anyFailure(ch1));
}

TEST(ErrorBits, IqInjectionOnStoreIsDirectFailure)
{
    // A corrupted store instruction sitting in the issue queue is
    // itself a failure point: no value propagation needed.
    Rig rig({
        alu(9, 1, 2, trace::OpClass::IntDiv), // delays the store
        store(9, 1, 0x1000),                  // seq 1: waits in IQ
    });
    rig.hook.dispatchFn = [&](const DynInstr &instr) {
        if (instr.seq == 1) {
            EXPECT_EQ(rig.pipe.injectError(InjectTarget::IqEntry,
                                           instr.iqGlobalEntry, -1, ch0),
                      InjectOutcome::Occupied);
        }
    };
    drain(rig.pipe);
    EXPECT_TRUE(rig.log.failed(1));
}

TEST(ErrorBits, IqInjectionOnBranchIsDirectFailure)
{
    Rig rig({
        alu(9, 1, 2, trace::OpClass::IntDiv),
        branch(9, true), // seq 1: waits on the divide in the BR queue
    });
    rig.hook.dispatchFn = [&](const DynInstr &instr) {
        if (instr.seq == 1) {
            EXPECT_EQ(rig.pipe.injectError(InjectTarget::IqEntry,
                                           instr.iqGlobalEntry, -1, ch0),
                      InjectOutcome::Occupied);
        }
    };
    drain(rig.pipe);
    EXPECT_TRUE(rig.log.failed(1));
}

TEST(ErrorBits, IqInjectionOnLoadIsDirectFailure)
{
    Rig rig({
        alu(9, 1, 2, trace::OpClass::IntDiv),
        load(5, 9, 0x2000), // seq 1: address depends on the divide
    });
    rig.hook.dispatchFn = [&](const DynInstr &instr) {
        if (instr.seq == 1) {
            EXPECT_EQ(rig.pipe.injectError(InjectTarget::IqEntry,
                                           instr.iqGlobalEntry, -1, ch0),
                      InjectOutcome::Occupied);
        }
    };
    drain(rig.pipe);
    EXPECT_TRUE(rig.log.failed(1));
}

TEST(ErrorBits, FuInjectionCorruptsAllResidentOps)
{
    // Two long divides bound to the same FXU unit (issued one cycle
    // apart, pipelined): an injection while both are in flight must
    // corrupt both, and both downstream stores must fail.
    CpuConfig one_fxu;
    one_fxu.numFxu = 1;
    trace::VectorTraceSource src(withPcs({
        alu(5, 1, 2, trace::OpClass::IntDiv), // seq 0
        alu(6, 1, 3, trace::OpClass::IntDiv), // seq 1, same unit
        store(5, 1, 0x1000),                  // seq 2
        store(6, 1, 0x2000),                  // seq 3
    }));
    Pipeline pipe(one_fxu, src);
    Hook hook;
    FailureLog log;
    pipe.addObserver(&hook);
    hook.retireFn = [&](const DynInstr &i, const RetireInfo &r) {
        log.record(i, r);
    };
    hook.issueFn = [&](const DynInstr &instr) {
        if (instr.seq == 1) {
            // Both divides are now in flight in unit 0.
            EXPECT_EQ(pipe.injectError(InjectTarget::Fxu, 0, -1, ch0),
                      InjectOutcome::Occupied);
        }
    };
    drain(pipe);
    EXPECT_TRUE(log.failed(2));
    EXPECT_TRUE(log.failed(3));
}

TEST(ErrorBits, ErrorMasksMergeAcrossSources)
{
    // Errors on both inputs of an add merge into one output error
    // ("or" gates), which still counts as a single failure. The
    // consumer also depends on a divide so both injections land
    // before it reads.
    Rig rig2({
        alu(4, 1, 2),
        alu(5, 1, 2),
        alu(9, 1, 2, trace::OpClass::IntDiv),
        [] {
            auto in = alu(6, 4, 5);
            in.src[2] = 9;
            return in;
        }(),
        store(6, 1, 0x1000),
    });
    rig2.hook.completeFn = [&](const DynInstr &instr) {
        if (instr.seq == 0 || instr.seq == 1)
            rig2.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                  -1, ch0);
    };
    drain(rig2.pipe);
    EXPECT_TRUE(rig2.log.failed(4));
}

TEST(ErrorBits, RetiredCleanInstructionsNeverFlagFailure)
{
    // Sanity sweep: with no injections at all, no retirement may
    // carry a failure mask on a real workload.
    trace::SyntheticTraceGenerator gen(
        trace::specProfile("facerec"));
    Pipeline pipe(CpuConfig{}, gen);
    Hook hook;
    pipe.addObserver(&hook);
    std::uint64_t failures = 0;
    hook.retireFn = [&](const DynInstr &, const RetireInfo &info) {
        if (info.failureMask)
            ++failures;
    };
    pipe.run(20'000);
    EXPECT_EQ(failures, 0u);
}

TEST(ErrorBits, ClearOneChannelLeavesTheOther)
{
    Rig rig({
        alu(4, 1, 2),
        alu(9, 1, 2, trace::OpClass::IntDiv),
        alu(5, 4, 9),
        store(5, 1, 0x1000),
    });
    rig.hook.completeFn = [&](const DynInstr &instr) {
        if (instr.seq == 0) {
            rig.pipe.injectError(InjectTarget::IntReg, instr.destPhys,
                                 -1, ch0 | ch1);
            rig.pipe.clearErrorChannels(ch0);
        }
    };
    drain(rig.pipe);

    EXPECT_FALSE(rig.log.anyFailure(ch0));
    EXPECT_TRUE(rig.log.failed(3, ch1));
}

} // namespace
