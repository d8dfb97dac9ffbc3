/**
 * @file
 * Tests for the experiment-config loader and the CSV/JSON/gnuplot
 * exporters.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/config_loader.hh"
#include "harness/export.hh"
#include "trace/synthetic.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace
{

using namespace avf;
using namespace avf::harness;

// ---------------------------------------------------------------------
// Config loader
// ---------------------------------------------------------------------

/** @p text parsed as JSON; a parse failure fails the test. */
json::Value
doc(const std::string &text)
{
    json::Value out;
    std::string error;
    EXPECT_TRUE(json::parse(text, out, error)) << error;
    return out;
}

/** Load @p text through the file entry point, as a user's file. */
ExperimentConfig
loadText(const std::string &text)
{
    const std::string path = ::testing::TempDir() + "config.json";
    std::ofstream(path) << text;
    return loadExperimentConfig(path);
}

/** stderr of loading @p text, with warnings enabled. */
std::string
warningsOf(const std::string &text)
{
    setLogLevel(LogLevel::Info);
    ::testing::internal::CaptureStderr();
    (void)loadExperimentConfig(doc(text));
    std::string err = ::testing::internal::GetCapturedStderr();
    setQuiet(false); // restore the suite default
    return err;
}

TEST(ConfigLoader, DefaultsAreTable1)
{
    auto conf = loadExperimentConfig(doc("{}"));
    EXPECT_EQ(conf.profile.name, "mesa");
    EXPECT_EQ(conf.cpu.intPhysRegs, 80);
    EXPECT_EQ(conf.cpu.fpPhysRegs, 72);
    EXPECT_EQ(conf.online.m, 1000u);
    EXPECT_EQ(conf.online.n, 1000u);
    EXPECT_EQ(conf.numIntervals, 100);
}

TEST(ConfigLoader, OverridesApply)
{
    auto conf = loadExperimentConfig(doc(R"({
        "experiment": {"benchmark": "swim", "intervals": 7},
        "online": {"m": 500, "n": 200, "randomize": true},
        "cpu": {"fxu": 3, "rob_entries": 64},
        "mem": {"l2_kb": 512, "mem_lat": 300},
        "workload": {"dead_frac": 0.42}
    })"));
    EXPECT_EQ(conf.profile.name, "swim");
    EXPECT_EQ(conf.numIntervals, 7);
    EXPECT_EQ(conf.online.m, 500u);
    EXPECT_EQ(conf.online.n, 200u);
    EXPECT_TRUE(conf.online.randomizeInjectionTiming);
    EXPECT_EQ(conf.cpu.numFxu, 3);
    EXPECT_EQ(conf.cpu.robEntries, 64);
    EXPECT_EQ(conf.cpu.mem.l2.sizeBytes, 512u * 1024u);
    EXPECT_EQ(conf.cpu.mem.memLatency, 300u);
    EXPECT_DOUBLE_EQ(conf.profile.base.deadFrac, 0.42);
    // Phase parameters receive the same override.
    for (const auto &phase : conf.profile.phases)
        EXPECT_DOUBLE_EQ(phase.params.deadFrac, 0.42);
}

TEST(ConfigLoader, RejectsBadValues)
{
    EXPECT_DEATH(loadExperimentConfig(
                     doc(R"({"experiment": {"benchmark": "doom"}})")),
                 "unknown benchmark");
    EXPECT_DEATH(loadExperimentConfig(
                     doc(R"({"experiment": {"intervals": 0}})")),
                 "intervals");
    EXPECT_DEATH(loadExperimentConfig(doc(R"({"cpu": {"int_regs": 8}})")),
                 "physical registers");
}

TEST(ConfigLoader, GenericProfileSupported)
{
    auto conf = loadExperimentConfig(doc(R"({
        "experiment": {"benchmark": "generic"},
        "workload": {"fp_frac": 0.9}
    })"));
    EXPECT_EQ(conf.profile.name, "generic");
    EXPECT_DOUBLE_EQ(conf.profile.base.fpFrac, 0.9);
}

// An integer that does not fit its field is rejected, not wrapped
// (4294967297 would otherwise truncate to 1).
TEST(ConfigLoader, RejectsIntegersOutOfTheFieldsRange)
{
    EXPECT_DEATH(loadExperimentConfig(
                     doc(R"({"experiment": {"intervals": 4294967297}})")),
                 "experiment.intervals = 4294967297 is out of range");
    EXPECT_DEATH(loadExperimentConfig(
                     doc(R"({"online": {"n": 4294967296}})")),
                 "online.n = 4294967296 is out of range");
    // The x1024 of a *_kb key counts against the field's range.
    EXPECT_DEATH(loadExperimentConfig(doc(
                     R"({"mem": {"l2_kb": 18014398509481984}})")),
                 "mem.l2_kb = 18014398509481984 is out of range");
}

// A negative number would otherwise wrap to 2^32-1 or 2^64-1.
TEST(ConfigLoader, RejectsNegativeAndFractionalIntegers)
{
    EXPECT_DEATH(loadExperimentConfig(doc(R"({"online": {"n": -1}})")),
                 "online.n must be a non-negative integer");
    EXPECT_DEATH(loadExperimentConfig(doc(R"({"online": {"m": -1}})")),
                 "online.m must be a non-negative integer");
    EXPECT_DEATH(loadExperimentConfig(doc(R"({"cpu": {"fxu": 2.5}})")),
                 "cpu.fxu must be a non-negative integer");
    EXPECT_DEATH(loadExperimentConfig(doc(R"({"cpu": {"fxu": "2"}})")),
                 "cpu.fxu must be a non-negative integer");
}

// Octal and hex spellings are not JSON numbers, so they never load
// as a different value (020 would otherwise read as 16).
TEST(ConfigLoader, RejectsOctalAndHexSpellings)
{
    EXPECT_DEATH(loadText(R"({"mem": {"l2_lat": 020}})"),
                 "config file '.*config.json': offset .*leading zero");
    EXPECT_DEATH(loadText(R"({"cpu": {"fxu": 0x3}})"),
                 "config file '.*config.json': offset");
}

TEST(ConfigLoader, RejectsValuesOfTheWrongKind)
{
    EXPECT_DEATH(loadExperimentConfig(doc(R"({"cpu": [1, 2]})")),
                 "section 'cpu' is not an object");
    EXPECT_DEATH(loadExperimentConfig(
                     doc(R"({"online": {"randomize": 1}})")),
                 "online.randomize must be true or false");
    EXPECT_DEATH(loadExperimentConfig(
                     doc(R"({"experiment": {"benchmark": 7}})")),
                 "experiment.benchmark must be a string");
    EXPECT_DEATH(loadExperimentConfig(
                     doc(R"({"workload": {"dead_frac": "0.4"}})")),
                 "workload.dead_frac must be a number");
    EXPECT_DEATH(loadExperimentConfig(doc("[]")),
                 "top level is not an object");
}

// A repeated key used to load as its first value with no warning.
TEST(ConfigLoader, RejectsRepeatedKeys)
{
    EXPECT_DEATH(
        loadText(R"({"cpu": {"dispatch_width": 2, "dispatch_width": 4}})"),
        "config file '.*config.json': offset 30: repeated key "
        "\"dispatch_width\"");
}

TEST(ConfigLoader, RejectsWorkloadFractionsOutsideTheUnitInterval)
{
    EXPECT_DEATH(loadExperimentConfig(
                     doc(R"({"workload": {"dead_frac": 1.5}})")),
                 "workload.dead_frac = 1.5 is outside \\[0, 1\\]");
    EXPECT_DEATH(loadExperimentConfig(
                     doc(R"({"workload": {"load_frac": -0.25}})")),
                 "workload.load_frac = -0.25 is outside");
    EXPECT_DEATH(loadExperimentConfig(
                     doc(R"({"workload": {"dep_recency": 2}})")),
                 "workload.dep_recency = 2 is outside");
    auto conf = loadExperimentConfig(
        doc(R"({"workload": {"stream_frac": 0, "branch_noise": 1}})"));
    EXPECT_EQ(conf.profile.base.streamFrac, 0.0);
    EXPECT_EQ(conf.profile.base.branchNoise, 1.0);
}

// A dep_recency of 1e-300 is a valid fraction; the generator's
// geometric draw then lands far past any uint64_t and must clamp to
// the pool rather than convert out of range.
TEST(ConfigLoader, VanishingDepRecencyRunsTheGenerator)
{
    auto conf = loadExperimentConfig(
        doc(R"({"workload": {"dep_recency": 1e-300}})"));
    EXPECT_EQ(conf.profile.base.depRecency, 1e-300);
    trace::SyntheticTraceGenerator gen(conf.profile);
    trace::TraceInstruction in;
    for (int i = 0; i < 20'000; ++i)
        ASSERT_TRUE(gen.next(in));
}

TEST(ConfigLoader, WarnsOnUnknownSectionsAndKeys)
{
    std::string err = warningsOf(R"({"CPU": {"fxu": 3}})");
    EXPECT_NE(err.find("unknown section 'CPU'"), std::string::npos)
        << err;
    err = warningsOf(R"({"cpu": {"fxus": 3}})");
    EXPECT_NE(err.find("unknown key 'fxus' in section 'cpu'"),
              std::string::npos)
        << err;
    EXPECT_EQ(warningsOf(R"({"cpu": {"fxu": 3}})"), "");
}

TEST(ConfigLoader, MalformedOrMissingFileIsFatal)
{
    EXPECT_DEATH(loadText(R"({"cpu": {"fxu": 3})"),
                 "config file '.*config.json': offset");
    EXPECT_DEATH(loadText(""), "config file '.*config.json': offset");
    EXPECT_DEATH(loadExperimentConfig("/nonexistent/config.json"),
                 "cannot open config file");
}

// The shipped configs load from the source tree: table1.json is the
// built-in Table 1 machine in every field the loader sets, and
// lowpower.json is a machine validate() accepts.
TEST(ConfigLoader, ShippedConfigsLoad)
{
    const std::string dir = std::string(AVF_SOURCE_DIR) + "/configs/";
    const cpu::CpuConfig table1 = cpu::CpuConfig{};
    const cpu::CpuConfig got =
        loadExperimentConfig(dir + "table1.json").cpu;
    EXPECT_EQ(got.fetchWidth, table1.fetchWidth);
    EXPECT_EQ(got.dispatchWidth, table1.dispatchWidth);
    EXPECT_EQ(got.retireWidth, table1.retireWidth);
    EXPECT_EQ(got.robEntries, table1.robEntries);
    EXPECT_EQ(got.intLsIqEntries, table1.intLsIqEntries);
    EXPECT_EQ(got.fpIqEntries, table1.fpIqEntries);
    EXPECT_EQ(got.brIqEntries, table1.brIqEntries);
    EXPECT_EQ(got.numFxu, table1.numFxu);
    EXPECT_EQ(got.numFpu, table1.numFpu);
    EXPECT_EQ(got.numLsu, table1.numLsu);
    EXPECT_EQ(got.numBru, table1.numBru);
    EXPECT_EQ(got.intPhysRegs, table1.intPhysRegs);
    EXPECT_EQ(got.fpPhysRegs, table1.fpPhysRegs);
    EXPECT_EQ(got.storeQueueEntries, table1.storeQueueEntries);
    EXPECT_EQ(got.fetchBufferEntries, table1.fetchBufferEntries);
    EXPECT_EQ(got.redirectPenalty, table1.redirectPenalty);
    EXPECT_EQ(got.predictorBits, table1.predictorBits);
    EXPECT_EQ(got.historyBits, table1.historyBits);
    const mem::MemConfig &m = got.mem;
    const mem::MemConfig &want = table1.mem;
    EXPECT_EQ(m.l1d.sizeBytes, want.l1d.sizeBytes);
    EXPECT_EQ(m.l1d.ways, want.l1d.ways);
    EXPECT_EQ(m.l1i.sizeBytes, want.l1i.sizeBytes);
    EXPECT_EQ(m.l1i.ways, want.l1i.ways);
    EXPECT_EQ(m.l2.sizeBytes, want.l2.sizeBytes);
    EXPECT_EQ(m.l2.ways, want.l2.ways);
    EXPECT_EQ(m.l1d.lineBytes, want.l1d.lineBytes);
    EXPECT_EQ(m.l1i.lineBytes, want.l1i.lineBytes);
    EXPECT_EQ(m.l2.lineBytes, want.l2.lineBytes);
    EXPECT_EQ(m.l1Latency, want.l1Latency);
    EXPECT_EQ(m.l2Latency, want.l2Latency);
    EXPECT_EQ(m.memLatency, want.memLatency);
    EXPECT_EQ(m.dtlb.entries, want.dtlb.entries);
    EXPECT_EQ(m.itlb.entries, want.itlb.entries);
    EXPECT_EQ(m.dtlb.missPenalty, want.dtlb.missPenalty);
    EXPECT_EQ(m.itlb.missPenalty, want.itlb.missPenalty);

    // validate() fatal()s, failing the test, on a bad machine.
    const auto lowpower = loadExperimentConfig(dir + "lowpower.json");
    lowpower.cpu.validate();
    EXPECT_EQ(lowpower.cpu.dispatchWidth, 2);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

ExperimentResult
fakeResult()
{
    ExperimentResult result;
    result.benchmark = "fake";
    result.summary.ipc = 1.25;
    result.summary.cycles = 1000;
    result.summary.retired = 1250;
    result.intervals.resize(2);
    for (std::size_t k = 0; k < 2; ++k) {
        for (int s = 0; s < core::numStructures; ++s) {
            result.intervals[k].online[s] = 0.1 * (k + 1);
            result.intervals[k].softarch[s] = 0.1 * (k + 1) + 0.01;
        }
        result.intervals[k].utilization = {0.5, 0.25};
    }
    return result;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Export, CsvRoundTrip)
{
    std::string path = ::testing::TempDir() + "export.csv";
    writeCsv(fakeResult(), path);
    std::string text = slurp(path);
    EXPECT_NE(text.find("interval,iq_online,iq_softarch"),
              std::string::npos);
    EXPECT_NE(text.find("fxu_util,fpu_util"), std::string::npos);
    EXPECT_NE(text.find("0,0.100000,0.110000"), std::string::npos);
    EXPECT_NE(text.find("1,0.200000,0.210000"), std::string::npos);
    // Header + 2 data rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
    std::remove(path.c_str());
}

TEST(Export, JsonContainsSummaryAndSeries)
{
    std::string path = ::testing::TempDir() + "export.json";
    writeJson(fakeResult(), path);
    std::string text = slurp(path);
    EXPECT_NE(text.find("\"benchmark\": \"fake\""),
              std::string::npos);
    EXPECT_NE(text.find("\"ipc\": 1.2500"), std::string::npos);
    EXPECT_NE(text.find("\"intervals\": ["), std::string::npos);
    EXPECT_NE(text.find("\"freg\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Export, GnuplotScriptReferencesCsv)
{
    std::string path = ::testing::TempDir() + "plot.gnuplot";
    writeGnuplotScript("data.csv", path, "mesa");
    std::string text = slurp(path);
    EXPECT_NE(text.find("data.csv"), std::string::npos);
    EXPECT_NE(text.find("multiplot"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Export, UnwritablePathIsFatal)
{
    EXPECT_DEATH(writeCsv(fakeResult(), "/nonexistent/dir/x.csv"),
                 "cannot open");
}

} // namespace
