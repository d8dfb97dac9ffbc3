/**
 * @file
 * Failure-injection and robustness tests: malformed inputs must die
 * loudly through fatal()/panic() rather than corrupting a run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cpu/pipeline.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "test_helpers.hh"
#include "trace/trace_file.hh"
#include "util/logging.hh"

namespace
{

using namespace avf;
using namespace avf::testutil;

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

TEST(Robustness, TraceFileBadMagicIsFatal)
{
    std::string path = tempPath("badmagic.avftrace");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[] = "this is not a trace file at all........";
        ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f),
                  sizeof(junk));
        ASSERT_EQ(std::fclose(f), 0);
    }
    EXPECT_DEATH(trace::TraceFileReader reader(path),
                 "not an AVF trace");
    std::remove(path.c_str());
}

TEST(Robustness, TraceFileMissingIsFatal)
{
    EXPECT_DEATH(trace::TraceFileReader reader("/nonexistent/xyz"),
                 "cannot open");
}

TEST(Robustness, TraceFileTruncatedIsFatal)
{
    std::string path = tempPath("truncated.avftrace");
    {
        trace::TraceFileWriter writer(path);
        trace::TraceInstruction in;
        for (int i = 0; i < 10; ++i)
            writer.append(in);
    }
    // Chop the last record in half.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
        long size = std::ftell(f);
        ASSERT_EQ(
            ::truncate(path.c_str(), size - 16), 0);
        ASSERT_EQ(std::fclose(f), 0);
    }
    EXPECT_DEATH(
        {
            trace::TraceFileReader reader(path);
            trace::TraceInstruction in;
            while (reader.next(in)) {}
        },
        "truncated");
    std::remove(path.c_str());
}

TEST(Robustness, CacheBadGeometryIsFatal)
{
    EXPECT_DEATH(mem::Cache({"bad", 1000, 2, 64}), "geometry");
    EXPECT_DEATH(mem::Cache({"bad", 1024, 2, 65}), "power of two");
    EXPECT_DEATH(mem::Cache({"bad", 1024, 0, 64}), "associativity");
}

TEST(Robustness, TlbBadConfigIsFatal)
{
    EXPECT_DEATH(mem::Tlb({"bad", 0, 4096, 50}), "entry count");
    EXPECT_DEATH(mem::Tlb({"bad", 8, 1000, 50}), "power of two");
}

TEST(Robustness, PipelineRejectsBadWidths)
{
    trace::VectorTraceSource empty{
        std::vector<trace::TraceInstruction>{}};
    cpu::CpuConfig conf;
    conf.fetchWidth = 0;
    EXPECT_DEATH(cpu::Pipeline(conf, empty), "widths");

    cpu::CpuConfig conf2;
    conf2.robEntries = 2; // smaller than one dispatch group
    EXPECT_DEATH(cpu::Pipeline(conf2, empty), "ROB");

    cpu::CpuConfig conf3;
    conf3.numBru = 0;
    EXPECT_DEATH(cpu::Pipeline(conf3, empty), "unit");
}

TEST(Robustness, InjectionIndexBoundsArePanics)
{
    trace::VectorTraceSource src(withPcs({alu(5, 1, 2)}));
    cpu::Pipeline pipe(cpu::CpuConfig{}, src);
    using cpu::InjectTarget;
    auto inject = [&](InjectTarget target, int entry, int field) {
        pipe.injectError(target, entry, field, 1);
    };
    EXPECT_DEATH(inject(InjectTarget::IntReg, -1, -1), "out of range");
    EXPECT_DEATH(inject(InjectTarget::IntReg, 152, -1), "out of range");
    // Each register plane ends at its own size: the first FP register
    // is not an IntReg site, and FpReg entries stop at fpPhysRegs.
    for (InjectTarget plane : {InjectTarget::IntReg, InjectTarget::FpReg})
        EXPECT_DEATH(inject(plane, pipe.numSites(plane), -1),
                     "out of range");
    EXPECT_DEATH(inject(InjectTarget::IqEntry, 68, -1), "out of range");
    EXPECT_DEATH(inject(InjectTarget::Fxu, 5, -1), "out of range");
    EXPECT_DEATH(inject(InjectTarget::Dtlb,
                        pipe.numSites(InjectTarget::Dtlb), -1),
                 "out of range");
    // The field travels with IqField sites only, inside 0..3.
    EXPECT_DEATH(inject(InjectTarget::IqField, 0, 4), "out of range");
    EXPECT_DEATH(inject(InjectTarget::IqField, 0, -1), "out of range");
    EXPECT_DEATH(inject(InjectTarget::IqEntry, 0, 0), "out of range");
}

TEST(Robustness, EmptyTraceDrainsImmediately)
{
    trace::VectorTraceSource src(
        std::vector<trace::TraceInstruction>{});
    cpu::Pipeline pipe(cpu::CpuConfig{}, src);
    EXPECT_FALSE(pipe.step());
    EXPECT_TRUE(pipe.done());
    EXPECT_EQ(pipe.stats().retired, 0u);
}

TEST(Robustness, QuietModeSuppressesWarnings)
{
    setQuiet(true);
    EXPECT_TRUE(isQuiet());
    warn("this must not appear");
    inform("nor this");
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
}

} // namespace
