/**
 * @file
 * Shared helpers for hand-crafting tiny instruction traces in tests,
 * plus a per-test scratch directory.
 */

#ifndef AVF_TESTS_TEST_HELPERS_HH
#define AVF_TESTS_TEST_HELPERS_HH

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "cpu/config.hh"
#include "cpu/pipeline.hh"
#include "trace/instruction.hh"
#include "trace/trace_source.hh"

namespace avf::testutil
{

using trace::OpClass;
using trace::TraceInstruction;

/** Integer ALU op: dest = src1 (op) src2. */
inline TraceInstruction
alu(RegIndex dest, RegIndex src1, RegIndex src2,
    OpClass op = OpClass::IntAlu)
{
    TraceInstruction in;
    in.op = op;
    in.dest = dest;
    in.src[0] = src1;
    in.src[1] = src2;
    return in;
}

/** FP op on FP architectural registers (32..63). */
inline TraceInstruction
fp(RegIndex dest, RegIndex src1, RegIndex src2,
   OpClass op = OpClass::FpAlu)
{
    TraceInstruction in;
    in.op = op;
    in.dest = dest;
    in.src[0] = src1;
    in.src[1] = src2;
    return in;
}

/** Load into @p dest from address @p addr via base register @p base. */
inline TraceInstruction
load(RegIndex dest, RegIndex base, Addr addr)
{
    TraceInstruction in;
    in.op = OpClass::Load;
    in.dest = dest;
    in.src[0] = base;
    in.effAddr = addr;
    return in;
}

/** Store of @p data (register) to @p addr via base @p base. */
inline TraceInstruction
store(RegIndex data, RegIndex base, Addr addr)
{
    TraceInstruction in;
    in.op = OpClass::Store;
    in.src[0] = data;
    in.src[1] = base;
    in.effAddr = addr;
    return in;
}

/** Conditional branch on @p cond. */
inline TraceInstruction
branch(RegIndex cond, bool taken = false, Addr target = 0x20000)
{
    TraceInstruction in;
    in.op = OpClass::BranchCond;
    in.src[0] = cond;
    in.taken = taken;
    in.effAddr = target;
    return in;
}

/** Pipeline-slot filler. */
inline TraceInstruction
nop()
{
    TraceInstruction in;
    in.op = OpClass::Nop;
    return in;
}

/** Assign ascending PCs (4-byte instructions) to a crafted trace. */
inline std::vector<TraceInstruction>
withPcs(std::vector<TraceInstruction> instrs, Addr base = 0x1000)
{
    for (std::size_t i = 0; i < instrs.size(); ++i)
        instrs[i].pc = base + static_cast<Addr>(i) * 4;
    return instrs;
}

/** Run a pipeline until drained (bounded to avoid hangs). */
inline void
drain(cpu::Pipeline &pipe, Cycle bound = 1'000'000)
{
    for (Cycle i = 0; i < bound && pipe.step(); ++i) {}
}

/**
 * Scratch directory private to the running test: named from the test
 * suite, test name and pid, so tests that ctest runs in parallel (one
 * process each) never share or delete each other's files. The
 * directory is not created; callers own its lifetime.
 */
inline std::filesystem::path
uniqueTempDir()
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "avf_test";
    if (info)
        name += std::string("_") + info->test_suite_name() + "_" +
                info->name();
    name += "_" + std::to_string(::getpid());
    return std::filesystem::temp_directory_path() / name;
}

} // namespace avf::testutil

#endif // AVF_TESTS_TEST_HELPERS_HH
