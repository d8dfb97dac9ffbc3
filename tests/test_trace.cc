/**
 * @file
 * Tests for the trace layer: record predicates, vector/file sources,
 * and the synthetic generator's statistical contract (mix fractions,
 * dead-value fraction, dependency recency, phase switching,
 * determinism).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/instruction.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "trace/trace_source.hh"

namespace
{

using namespace avf;
using namespace avf::trace;

TEST(Instruction, Predicates)
{
    EXPECT_TRUE(isMemOp(OpClass::Load));
    EXPECT_TRUE(isMemOp(OpClass::Store));
    EXPECT_FALSE(isMemOp(OpClass::IntAlu));
    EXPECT_TRUE(isBranch(OpClass::BranchCond));
    EXPECT_TRUE(isBranch(OpClass::BranchUncond));
    EXPECT_FALSE(isBranch(OpClass::Load));
    EXPECT_TRUE(isFpOp(OpClass::FpAlu));
    EXPECT_TRUE(isFpOp(OpClass::FpDiv));
    EXPECT_FALSE(isFpOp(OpClass::IntMul));
    EXPECT_TRUE(isFpReg(40));
    EXPECT_FALSE(isFpReg(10));
}

TEST(Instruction, SourceCountAndDest)
{
    TraceInstruction in;
    EXPECT_EQ(in.numSrcs(), 0);
    EXPECT_FALSE(in.hasDest());
    in.src[0] = 3;
    in.src[2] = 5;
    in.dest = 7;
    EXPECT_EQ(in.numSrcs(), 2);
    EXPECT_TRUE(in.hasDest());
}

TEST(Instruction, OpClassNames)
{
    EXPECT_EQ(opClassName(OpClass::IntAlu), "IntAlu");
    EXPECT_EQ(opClassName(OpClass::FpDiv), "FpDiv");
    EXPECT_EQ(opClassName(OpClass::Nop), "Nop");
}

TEST(VectorTraceSource, ExhaustsAndLoops)
{
    TraceInstruction a, b;
    a.pc = 1;
    b.pc = 2;
    VectorTraceSource once({a, b}, false);
    TraceInstruction out;
    EXPECT_TRUE(once.next(out));
    EXPECT_EQ(out.pc, 1u);
    EXPECT_TRUE(once.next(out));
    EXPECT_EQ(out.pc, 2u);
    EXPECT_FALSE(once.next(out));

    VectorTraceSource looped({a, b}, true);
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(looped.next(out));
        EXPECT_EQ(out.pc, static_cast<Addr>(i % 2 + 1));
    }
}

TEST(TraceFile, RoundTrip)
{
    std::string path = ::testing::TempDir() + "roundtrip.avftrace";

    SyntheticTraceGenerator gen(specProfile("bzip2"));
    std::vector<TraceInstruction> original;
    {
        TraceFileWriter writer(path);
        TraceInstruction in;
        for (int i = 0; i < 5000; ++i) {
            ASSERT_TRUE(gen.next(in));
            writer.append(in);
            original.push_back(in);
        }
        EXPECT_EQ(writer.count(), 5000u);
    }

    TraceFileReader reader(path);
    EXPECT_EQ(reader.count(), 5000u);
    TraceInstruction in;
    for (const auto &want : original) {
        ASSERT_TRUE(reader.next(in));
        EXPECT_EQ(in.pc, want.pc);
        EXPECT_EQ(in.effAddr, want.effAddr);
        EXPECT_EQ(in.op, want.op);
        EXPECT_EQ(in.src, want.src);
        EXPECT_EQ(in.dest, want.dest);
        EXPECT_EQ(in.taken, want.taken);
    }
    EXPECT_FALSE(reader.next(in));
    std::remove(path.c_str());
}

TEST(TraceFile, LoopingReader)
{
    std::string path = ::testing::TempDir() + "loop.avftrace";
    {
        TraceFileWriter writer(path);
        TraceInstruction in;
        in.pc = 99;
        writer.append(in);
    }
    TraceFileReader reader(path, true);
    TraceInstruction in;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(reader.next(in));
        EXPECT_EQ(in.pc, 99u);
    }
    std::remove(path.c_str());
}

TEST(Synthetic, Deterministic)
{
    SyntheticTraceGenerator a(specProfile("mesa"));
    SyntheticTraceGenerator b(specProfile("mesa"));
    TraceInstruction ia, ib;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(a.next(ia));
        ASSERT_TRUE(b.next(ib));
        ASSERT_EQ(ia.pc, ib.pc);
        ASSERT_EQ(ia.op, ib.op);
        ASSERT_EQ(ia.effAddr, ib.effAddr);
        ASSERT_EQ(ia.src, ib.src);
        ASSERT_EQ(ia.dest, ib.dest);
        ASSERT_EQ(ia.taken, ib.taken);
    }
}

TEST(Synthetic, DifferentBenchmarksDiffer)
{
    SyntheticTraceGenerator a(specProfile("mesa"));
    SyntheticTraceGenerator b(specProfile("swim"));
    TraceInstruction ia, ib;
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        a.next(ia);
        b.next(ib);
        if (ia.op == ib.op && ia.effAddr == ib.effAddr)
            ++same;
    }
    EXPECT_LT(same, 500);
}

TEST(Synthetic, MixMatchesProfile)
{
    WorkloadProfile prof;
    prof.name = "mixtest";
    prof.base.loadFrac = 0.30;
    prof.base.storeFrac = 0.10;
    prof.base.branchFrac = 0.10;
    prof.base.nopFrac = 0.05;
    prof.base.fpFrac = 0.40;

    SyntheticTraceGenerator gen(prof);
    std::map<OpClass, int> counts;
    const int n = 200000;
    TraceInstruction in;
    for (int i = 0; i < n; ++i) {
        gen.next(in);
        ++counts[in.op];
    }
    auto frac = [&](OpClass op) {
        return static_cast<double>(counts[op]) / n;
    };
    EXPECT_NEAR(frac(OpClass::Load), 0.30, 0.01);
    EXPECT_NEAR(frac(OpClass::Store), 0.10, 0.01);
    EXPECT_NEAR(frac(OpClass::BranchCond) + frac(OpClass::BranchUncond),
                0.10, 0.01);
    EXPECT_NEAR(frac(OpClass::Nop), 0.05, 0.005);
    double compute = frac(OpClass::IntAlu) + frac(OpClass::IntMul) +
                     frac(OpClass::IntDiv) + frac(OpClass::FpAlu) +
                     frac(OpClass::FpDiv);
    EXPECT_NEAR(compute, 0.45, 0.01);
    double fp_share = (frac(OpClass::FpAlu) + frac(OpClass::FpDiv)) /
                      compute;
    EXPECT_NEAR(fp_share, 0.40, 0.02);
}

TEST(Synthetic, FpOpsUseFpRegisters)
{
    SyntheticTraceGenerator gen(specProfile("swim"));
    TraceInstruction in;
    for (int i = 0; i < 50000; ++i) {
        gen.next(in);
        if (isFpOp(in.op)) {
            EXPECT_TRUE(isFpReg(in.dest));
            for (auto s : in.src) {
                if (s != invalidReg) {
                    EXPECT_TRUE(isFpReg(s));
                }
            }
        } else if (in.op == OpClass::IntAlu || in.op == OpClass::IntMul ||
                   in.op == OpClass::IntDiv) {
            EXPECT_FALSE(isFpReg(in.dest));
        }
    }
}

TEST(Synthetic, DeadValuesAreNeverRead)
{
    // Track read-after-write: with deadFrac = 1.0 every produced
    // value must go unread. The low registers of each class (0-3 and
    // 32-35) are long-lived pointer/counter registers that the
    // generator deliberately keeps reading; exclude them.
    WorkloadProfile prof;
    prof.name = "deadtest";
    prof.base.deadFrac = 1.0;
    prof.base.loadFrac = 0.2;
    prof.base.storeFrac = 0.1;
    prof.base.branchFrac = 0.1;

    auto long_lived = [](RegIndex r) {
        return (r % numArchIntRegs) < 6; // seeds + pointer registers
    };

    SyntheticTraceGenerator gen(prof);
    TraceInstruction in;
    std::array<bool, numArchRegs> written{};
    int reads_of_written = 0;
    for (int i = 0; i < 50000; ++i) {
        gen.next(in);
        for (auto s : in.src)
            if (s != invalidReg && !long_lived(s) &&
                written[static_cast<std::size_t>(s)])
                ++reads_of_written;
        if (in.hasDest())
            written[static_cast<std::size_t>(in.dest)] = true;
    }
    EXPECT_EQ(reads_of_written, 0);
}

TEST(Synthetic, DeadFractionControlsReadShare)
{
    // Lower deadFrac must yield a higher fraction of values that get
    // read at least once.
    auto read_share = [](double dead_frac) {
        WorkloadProfile prof;
        prof.name = "sharetest";
        prof.base.deadFrac = dead_frac;
        SyntheticTraceGenerator gen(prof);
        TraceInstruction in;
        std::map<int, bool> last_write_read; // reg -> current value read?
        int produced = 0, read = 0;
        for (int i = 0; i < 100000; ++i) {
            gen.next(in);
            for (auto s : in.src) {
                if (s != invalidReg) {
                    auto it = last_write_read.find(s);
                    if (it != last_write_read.end() && !it->second) {
                        it->second = true;
                        ++read;
                    }
                }
            }
            if (in.hasDest()) {
                ++produced;
                last_write_read[in.dest] = false;
            }
        }
        return static_cast<double>(read) / produced;
    };
    EXPECT_GT(read_share(0.05), read_share(0.5) + 0.1);
}

TEST(Synthetic, PhasesRotate)
{
    WorkloadProfile prof;
    prof.name = "phasetest";
    prof.phases.push_back({prof.base, 1000});
    PhaseParams second = prof.base;
    second.fpFrac = 0.9;
    prof.phases.push_back({second, 1000});

    SyntheticTraceGenerator gen(prof);
    TraceInstruction in;
    EXPECT_EQ(gen.currentPhase(), 0u);
    for (int i = 0; i < 1000; ++i)
        gen.next(in);
    // One more instruction rolls into phase 1.
    gen.next(in);
    EXPECT_EQ(gen.currentPhase(), 1u);
    EXPECT_NEAR(gen.currentParams().fpFrac, 0.9, 1e-12);
    for (int i = 0; i < 1000; ++i)
        gen.next(in);
    EXPECT_EQ(gen.currentPhase(), 0u);
}

TEST(Synthetic, AddressesStayInFootprint)
{
    WorkloadProfile prof;
    prof.name = "foottest";
    prof.base.footprint = 64 * 1024;
    prof.base.streamFrac = 0.5;
    SyntheticTraceGenerator gen(prof);
    TraceInstruction in;
    Addr lo = ~Addr(0), hi = 0;
    for (int i = 0; i < 100000; ++i) {
        gen.next(in);
        if (isMemOp(in.op)) {
            lo = std::min(lo, in.effAddr);
            hi = std::max(hi, in.effAddr);
        }
    }
    EXPECT_LE(hi - lo, prof.base.footprint + 128);
}

/**
 * FNV-1a digest of every TraceInstruction field over the first @p n
 * instructions @p profile generates: the generator's stream, pinned.
 */
std::uint64_t
streamDigest(WorkloadProfile profile, int n)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    auto reg = [](RegIndex r) {
        return static_cast<std::uint64_t>(static_cast<std::uint16_t>(r));
    };
    SyntheticTraceGenerator gen(std::move(profile));
    TraceInstruction in;
    for (int i = 0; i < n; ++i) {
        gen.next(in);
        mix(in.pc);
        mix(in.effAddr);
        mix(static_cast<std::uint64_t>(in.op) | reg(in.src[0]) << 8 |
            reg(in.src[1]) << 24 | reg(in.src[2]) << 40);
        mix(reg(in.dest) | std::uint64_t{in.memSize} << 16 |
            std::uint64_t{in.taken} << 24);
    }
    return hash;
}

/** Instructions each profile's stream digest covers. */
constexpr int pinnedInstrs = 250'000;

/** The shipped phases run 18-28M instructions; this cut puts five
 *  phase changes inside the pinned prefix. */
constexpr std::uint64_t cutPhaseInstrs = 50'000;

TEST(Synthetic, StreamPinnedPerProfile)
{
    // Any change to the generator's draws, their order or the pool
    // semantics changes these digests (and every golden with them).
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"ammp", 0x7c91dfc917d58ac7ull},
        {"art", 0xe9da4985d44d8a58ull},
        {"bzip2", 0xc07f7388daf7b601ull},
        {"equake", 0xcdc22e52384af818ull},
        {"facerec", 0x4500eaff62217171ull},
        {"lucas", 0x289c7bcd94f99b21ull},
        {"mesa", 0x3f53b42f91177e6aull},
        {"perlbmk", 0xb95ce98852229aa3ull},
        {"sixtrack", 0x73aa1e0972df2898ull},
        {"swim", 0x44b3c2cb7bb251d3ull},
        {"wupwise", 0x2c1003955f55e122ull},
    };
    ASSERT_EQ(pinned.size(), specBenchmarkNames().size());
    for (const auto &[name, digest] : pinned)
        EXPECT_EQ(streamDigest(specProfile(name), pinnedInstrs), digest)
            << name;
}

TEST(Synthetic, StreamPinnedAcrossPhaseChanges)
{
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"ammp", 0x1baddac1a3e1bbcaull},
        {"art", 0x7ec899544019541bull},
        {"bzip2", 0xeb5d04358c34eb9cull},
        {"equake", 0xd29e7c65129aa3dbull},
        {"facerec", 0x523394f50cc528d2ull},
        {"lucas", 0x2abb4cdbf66bdc57ull},
        {"mesa", 0x6926c32110188275ull},
        {"perlbmk", 0x4b05d87a0ea86e6full},
        {"sixtrack", 0xbffda9194a3c93a2ull},
        {"swim", 0x4f5244fca89d9380ull},
        {"wupwise", 0xb659911bc727b0b0ull},
    };
    ASSERT_EQ(pinned.size(), specBenchmarkNames().size());
    for (const auto &[name, digest] : pinned) {
        WorkloadProfile prof = specProfile(name);
        ASSERT_GE(prof.phases.size(), 2u) << name;
        for (WorkloadPhase &phase : prof.phases)
            phase.lengthInstrs = cutPhaseInstrs;
        EXPECT_EQ(streamDigest(std::move(prof), pinnedInstrs), digest)
            << name;
    }
}

TEST(SpecProfiles, AllElevenPresent)
{
    const auto &names = specBenchmarkNames();
    ASSERT_EQ(names.size(), 11u);
    for (const auto &name : names) {
        WorkloadProfile prof = specProfile(name);
        EXPECT_EQ(prof.name, name);
        // Mix fractions must leave room for compute.
        double fixed = prof.base.loadFrac + prof.base.storeFrac +
                       prof.base.branchFrac + prof.base.nopFrac;
        EXPECT_LT(fixed, 0.9) << name;
        EXPECT_GE(prof.base.deadFrac, 0.0) << name;
        EXPECT_LE(prof.base.deadFrac, 1.0) << name;
    }
    EXPECT_EQ(allSpecProfiles().size(), 11u);
}

TEST(SpecProfiles, IntVsFpCharacter)
{
    // bzip2/perlbmk are integer codes; swim/lucas/sixtrack FP codes.
    EXPECT_LT(specProfile("bzip2").base.fpFrac, 0.1);
    EXPECT_LT(specProfile("perlbmk").base.fpFrac, 0.1);
    EXPECT_GT(specProfile("swim").base.fpFrac, 0.4);
    EXPECT_GT(specProfile("lucas").base.fpFrac, 0.4);
    EXPECT_GT(specProfile("sixtrack").base.fpFrac, 0.4);
    // perlbmk models heavy dead-value production (utilization proxy
    // fails there in the paper).
    EXPECT_GT(specProfile("perlbmk").base.deadFrac,
              specProfile("sixtrack").base.deadFrac + 0.2);
}

} // namespace
