/**
 * @file
 * Parameterized property sweeps: invariants that must hold for every
 * benchmark profile, machine configuration, estimator geometry, and
 * cache size — the cross-product coverage that single-example unit
 * tests cannot give.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core/online_estimator.hh"
#include "cpu/pipeline.hh"
#include "mem/cache.hh"
#include "softarch/ace_analyzer.hh"
#include "test_helpers.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;
using namespace avf::cpu;
using namespace avf::core;
using namespace avf::testutil;

// ---------------------------------------------------------------------
// Property: for every benchmark profile, the full stack (pipeline +
// four estimators + SoftArch) preserves its invariants.
// ---------------------------------------------------------------------

class BenchmarkSweep : public ::testing::TestWithParam<std::string>
{};

TEST_P(BenchmarkSweep, StackInvariantsHold)
{
    trace::SyntheticTraceGenerator gen(
        trace::specProfile(GetParam()));
    CpuConfig conf;
    Pipeline pipe(conf, gen);

    OnlineConfig online;
    online.m = 200;
    online.n = 100; // 20k-cycle estimation intervals
    std::vector<std::unique_ptr<OnlineAvfEstimator>> ests;
    for (int s = 0; s < numStructures; ++s) {
        ests.push_back(std::make_unique<OnlineAvfEstimator>(
            pipe, static_cast<Structure>(s), online));
        pipe.addObserver(ests.back().get());
    }
    softarch::SoftArchConfig sa{20'000, 5'000};
    softarch::AceAnalyzer analyzer(pipe, sa);
    pipe.addObserver(&analyzer);

    pipe.run(100'000);
    analyzer.finalizeAll(2);

    const auto &stats = pipe.stats();
    EXPECT_LE(stats.retired, stats.dispatched);
    EXPECT_LE(stats.dispatched, stats.fetched);
    EXPECT_GT(stats.retired, 1000u);
    EXPECT_LE(static_cast<double>(stats.iqOccupancySum) /
                  static_cast<double>(stats.cycles),
              static_cast<double>(conf.totalIqEntries()));
    EXPECT_LE(static_cast<double>(stats.robOccupancySum) /
                  static_cast<double>(stats.cycles),
              static_cast<double>(conf.robEntries));
    for (int cls = 0; cls < static_cast<int>(FuClass::NumClasses);
         ++cls) {
        EXPECT_LE(stats.busyUnitCycles[cls],
                  stats.cycles * static_cast<std::uint64_t>(
                      conf.unitsIn(static_cast<FuClass>(cls))));
    }

    for (auto &est : ests) {
        EXPECT_GE(est->estimates().size(), 3u);
        for (double v : est->estimates()) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
    ASSERT_GE(analyzer.results().size(), 3u);
    for (const auto &row : analyzer.results()) {
        for (double v : row.avf) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkSweep,
    ::testing::ValuesIn(trace::specBenchmarkNames()),
    [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Property: the pipeline drains correctly and conserves registers
// under very different machine geometries.
// ---------------------------------------------------------------------

struct MachineVariant
{
    const char *name;
    CpuConfig config;
};

// Without this, gtest prints the parameter as a byte dump whose first
// eight bytes are the `name` pointer, so the listed test names (and the
// ctest names discovered from them) change from run to run under ASLR.
void
PrintTo(const MachineVariant &variant, std::ostream *os)
{
    *os << '"' << variant.name << '"';
}

MachineVariant
narrowMachine()
{
    CpuConfig conf;
    conf.fetchWidth = 2;
    conf.dispatchWidth = 2;
    conf.retireWidth = 2;
    conf.robEntries = 16;
    conf.intLsIqEntries = 6;
    conf.fpIqEntries = 4;
    conf.brIqEntries = 3;
    conf.numFxu = 1;
    conf.numFpu = 1;
    conf.numLsu = 1;
    conf.numBru = 1;
    conf.intPhysRegs = 40;
    conf.fpPhysRegs = 36;
    conf.storeQueueEntries = 4;
    conf.fetchBufferEntries = 8;
    return {"narrow", conf};
}

MachineVariant
wideMachine()
{
    CpuConfig conf;
    conf.fetchWidth = 16;
    conf.dispatchWidth = 8;
    conf.retireWidth = 8;
    conf.robEntries = 256;
    conf.intLsIqEntries = 64;
    conf.fpIqEntries = 48;
    conf.brIqEntries = 24;
    conf.numFxu = 4;
    conf.numFpu = 4;
    conf.numLsu = 4;
    conf.numBru = 2;
    conf.intPhysRegs = 160;
    conf.fpPhysRegs = 144;
    conf.storeQueueEntries = 64;
    conf.fetchBufferEntries = 128;
    return {"wide", conf};
}

MachineVariant
slowMemoryMachine()
{
    CpuConfig conf;
    conf.mem.memLatency = 400;
    conf.mem.l2Latency = 60;
    conf.mem.l1d.sizeBytes = 8 * 1024;
    conf.mem.l2.sizeBytes = 128 * 1024;
    return {"slowmem", conf};
}

MachineVariant
table1Machine()
{
    return {"table1", CpuConfig{}};
}

class MachineSweep : public ::testing::TestWithParam<MachineVariant>
{};

TEST_P(MachineSweep, DrainsAndConservesResources)
{
    const auto &variant = GetParam();

    trace::SyntheticTraceGenerator gen(trace::specProfile("mesa"));
    std::vector<trace::TraceInstruction> instrs;
    trace::TraceInstruction in;
    for (int i = 0; i < 4000; ++i) {
        gen.next(in);
        instrs.push_back(in);
    }
    trace::VectorTraceSource src(instrs);
    Pipeline pipe(variant.config, src);
    drain(pipe, 5'000'000);

    EXPECT_TRUE(pipe.done());
    EXPECT_EQ(pipe.stats().retired, 4000u);
    EXPECT_EQ(pipe.renameUnit().intFreeCount(),
              static_cast<std::size_t>(variant.config.intPhysRegs -
                                       trace::numArchIntRegs));
    EXPECT_EQ(pipe.renameUnit().fpFreeCount(),
              static_cast<std::size_t>(variant.config.fpPhysRegs -
                                       trace::numArchFpRegs));
}

TEST_P(MachineSweep, RetirementStaysInOrder)
{
    const auto &variant = GetParam();

    class OrderCheck : public PipelineObserver
    {
      public:
        void
        onRetire(const DynInstr &instr, const RetireInfo &) override
        {
            EXPECT_EQ(instr.seq, expected);
            ++expected;
        }
        InstrSeq expected = 0;
    };

    trace::SyntheticTraceGenerator gen(trace::specProfile("bzip2"));
    std::vector<trace::TraceInstruction> instrs;
    trace::TraceInstruction in;
    for (int i = 0; i < 2000; ++i) {
        gen.next(in);
        instrs.push_back(in);
    }
    trace::VectorTraceSource src(instrs);
    Pipeline pipe(variant.config, src);
    OrderCheck check;
    pipe.addObserver(&check);
    drain(pipe, 5'000'000);
    EXPECT_EQ(check.expected, 2000u);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, MachineSweep,
    ::testing::Values(table1Machine(), narrowMachine(), wideMachine(),
                      slowMemoryMachine()),
    [](const auto &info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------
// Property: estimator cadence holds for any (M, N) geometry.
// ---------------------------------------------------------------------

class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(GeometrySweep, OneEstimatePerMNCycles)
{
    auto [m, n] = GetParam();
    trace::SyntheticTraceGenerator gen(trace::specProfile("swim"));
    Pipeline pipe(CpuConfig{}, gen);
    OnlineConfig conf;
    conf.m = static_cast<Cycle>(m);
    conf.n = static_cast<std::uint32_t>(n);
    OnlineAvfEstimator est(pipe, Structure::IQ, conf);
    pipe.addObserver(&est);

    const int estimates = 3;
    pipe.run(static_cast<Cycle>(m) * static_cast<Cycle>(n) *
                 estimates +
             static_cast<Cycle>(m));
    EXPECT_EQ(est.estimates().size(),
              static_cast<std::size_t>(estimates));
    EXPECT_EQ(est.totalInjections(),
              static_cast<std::uint64_t>(estimates) *
                      static_cast<std::uint64_t>(n) +
                  1); // the +1 opens the next interval
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(std::make_tuple(50, 50),
                      std::make_tuple(100, 200),
                      std::make_tuple(250, 40),
                      std::make_tuple(500, 20),
                      std::make_tuple(1000, 10)));

// ---------------------------------------------------------------------
// Property: cache miss rate is monotone non-increasing in capacity
// for a fixed reference stream.
// ---------------------------------------------------------------------

class CacheSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CacheSizeSweep, BiggerIsNeverWorse)
{
    auto size = GetParam();
    auto run_stream = [](std::uint64_t bytes) {
        mem::Cache cache({"t", bytes, 2, 64});
        Rng rng(99);
        for (int i = 0; i < 200'000; ++i) {
            // 64KB hot region plus occasional far misses.
            Addr addr = rng.chance(0.9)
                ? rng.below(64 * 1024)
                : 64 * 1024 + rng.below(4 * 1024 * 1024);
            cache.access(addr & ~Addr(7));
        }
        return cache.stats().missRate();
    };
    double small = run_stream(size);
    double big = run_stream(size * 4);
    EXPECT_LE(big, small + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSizeSweep,
                         ::testing::Values(4 * 1024, 16 * 1024,
                                           64 * 1024));

// ---------------------------------------------------------------------
// Property: per-benchmark determinism of the full stack (same seed,
// same machine => identical estimates), a bit-level check.
// ---------------------------------------------------------------------

class DeterminismSweep : public ::testing::TestWithParam<std::string>
{};

TEST_P(DeterminismSweep, OnlineEstimatesAreBitIdentical)
{
    auto run_once = [&]() {
        trace::SyntheticTraceGenerator gen(
            trace::specProfile(GetParam()));
        Pipeline pipe(CpuConfig{}, gen);
        OnlineConfig conf;
        conf.m = 100;
        conf.n = 100;
        OnlineAvfEstimator est(pipe, Structure::FXU, conf);
        pipe.addObserver(&est);
        pipe.run(100 * 100 * 3 + 150);
        return est.estimates();
    };
    auto a = run_once();
    auto b = run_once();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, DeterminismSweep,
    ::testing::Values(std::string("ammp"), std::string("perlbmk"),
                      std::string("swim")),
    [](const auto &info) { return info.param; });

} // namespace
