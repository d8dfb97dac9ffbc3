/**
 * @file
 * Export and trace-file I/O correctness tests (ctest label `export`):
 * trace-file round trips including the looping and truncated-file
 * paths, CSV-header / gnuplot-script column alignment derived from
 * the same enum walk, JSON string escaping, and the lifecycle JSONL
 * stream format.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/export.hh"
#include "harness/experiment.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace avf;
using namespace avf::harness;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::stringstream ss(text);
    std::string line;
    while (std::getline(ss, line))
        lines.push_back(line);
    return lines;
}

std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ','))
        fields.push_back(field);
    return fields;
}

// ---------------------------------------------------------------------
// Trace-file round trips
// ---------------------------------------------------------------------

trace::TraceInstruction
sampleInstr(std::uint64_t k)
{
    trace::TraceInstruction instr;
    instr.pc = 0x1000 + 4 * k;
    instr.effAddr = 0x8000 + 8 * k;
    instr.src = {static_cast<std::int16_t>(k % 31),
                 static_cast<std::int16_t>((k + 1) % 31),
                 std::int16_t{-1}};
    instr.dest = static_cast<std::int16_t>((k + 2) % 31);
    instr.op = static_cast<trace::OpClass>(
        k % static_cast<std::uint64_t>(trace::OpClass::NumOpClasses));
    instr.memSize = 8;
    instr.taken = (k % 2) == 0;
    return instr;
}

TEST(TraceFile, RoundTripPreservesEveryField)
{
    std::string path = ::testing::TempDir() + "roundtrip.avftrace";
    constexpr std::uint64_t kCount = 64;
    {
        trace::TraceFileWriter writer(path);
        for (std::uint64_t k = 0; k < kCount; ++k)
            writer.append(sampleInstr(k));
        EXPECT_EQ(writer.count(), kCount);
    } // destructor closes and finalizes the header

    trace::TraceFileReader reader(path);
    EXPECT_EQ(reader.count(), kCount);
    trace::TraceInstruction got;
    for (std::uint64_t k = 0; k < kCount; ++k) {
        ASSERT_TRUE(reader.next(got)) << "record " << k;
        auto want = sampleInstr(k);
        EXPECT_EQ(got.pc, want.pc);
        EXPECT_EQ(got.effAddr, want.effAddr);
        EXPECT_EQ(got.src, want.src);
        EXPECT_EQ(got.dest, want.dest);
        EXPECT_EQ(got.op, want.op);
        EXPECT_EQ(got.memSize, want.memSize);
        EXPECT_EQ(got.taken, want.taken);
    }
    EXPECT_FALSE(reader.next(got));
    EXPECT_FALSE(reader.next(got)); // stays at end
    std::remove(path.c_str());
}

TEST(TraceFile, LoopingRewindsToFirstRecord)
{
    std::string path = ::testing::TempDir() + "looping.avftrace";
    {
        trace::TraceFileWriter writer(path);
        for (std::uint64_t k = 0; k < 3; ++k)
            writer.append(sampleInstr(k));
    }

    trace::TraceFileReader reader(path, /*loop=*/true);
    trace::TraceInstruction got;
    // Two full passes: the 4th read must be record 0 again.
    for (std::uint64_t k = 0; k < 6; ++k) {
        ASSERT_TRUE(reader.next(got));
        EXPECT_EQ(got.pc, sampleInstr(k % 3).pc) << "read " << k;
    }
    std::remove(path.c_str());
}

TEST(TraceFile, TruncatedFileIsFatal)
{
    std::string path = ::testing::TempDir() + "truncated.avftrace";
    {
        trace::TraceFileWriter writer(path);
        for (std::uint64_t k = 0; k < 8; ++k)
            writer.append(sampleInstr(k));
    }
    // Chop off the last record: the header still claims 8.
    std::uint64_t valid = sizeof(trace::TraceFileHeader) +
        7 * sizeof(trace::TraceFileRecord);
    ASSERT_EQ(truncate(path.c_str(),
                       static_cast<off_t>(valid)), 0);

    trace::TraceFileReader reader(path);
    trace::TraceInstruction got;
    for (int k = 0; k < 7; ++k)
        ASSERT_TRUE(reader.next(got));
    EXPECT_DEATH(reader.next(got), "truncated trace file");
    std::remove(path.c_str());
}

TEST(TraceFile, UnopenablePathIsFatal)
{
    EXPECT_DEATH(
        trace::TraceFileWriter("/nonexistent/dir/x.avftrace"),
        "cannot open trace file");
    EXPECT_DEATH(trace::TraceFileReader("/nonexistent/x.avftrace"),
                 "cannot open trace file");
}

// ---------------------------------------------------------------------
// CSV / gnuplot column alignment
// ---------------------------------------------------------------------

ExperimentResult
fakeResult()
{
    ExperimentResult result;
    result.benchmark = "fake";
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

TEST(ExportAlignment, GnuplotColumnsMatchCsvHeader)
{
    std::string csv_path = ::testing::TempDir() + "align.csv";
    std::string plot_path = ::testing::TempDir() + "align.gnuplot";
    writeCsv(fakeResult(), csv_path);
    writeGnuplotScript(csv_path, plot_path, "fake");

    auto header = splitCsv(splitLines(slurp(csv_path)).at(0));
    std::string script = slurp(plot_path);

    // Every structure must have a panel whose plotted 1-based column
    // indices point at exactly its <name>_softarch and <name>_online
    // CSV header fields.
    for (int s = 0; s < core::numStructures; ++s) {
        std::string name(core::structureName(
            static_cast<core::Structure>(s)));
        auto panel = script.find("set title '" + name + "'");
        ASSERT_NE(panel, std::string::npos) << name;
        auto end = script.find("set title", panel + 1);
        std::string block = script.substr(
            panel, end == std::string::npos ? std::string::npos
                                            : end - panel);

        for (const char *kind : {"_softarch", "_online"}) {
            auto col = std::find(header.begin(), header.end(),
                                 name + kind);
            ASSERT_NE(col, header.end()) << name << kind;
            auto index = 1 + (col - header.begin()); // gnuplot: 1-based
            std::string using_clause =
                "using 1:" + std::to_string(index) + " ";
            EXPECT_NE(block.find(using_clause), std::string::npos)
                << name << kind << ": wrong column in\n" << block;
        }
    }
    std::remove(csv_path.c_str());
    std::remove(plot_path.c_str());
}

TEST(ExportAlignment, GnuplotHasOnePanelPerStructure)
{
    std::string plot_path = ::testing::TempDir() + "panels.gnuplot";
    writeGnuplotScript("data.csv", plot_path, "fake");
    std::string script = slurp(plot_path);

    std::size_t panels = 0;
    for (auto at = script.find("set title '");
         at != std::string::npos;
         at = script.find("set title '", at + 1))
        ++panels;
    // One per structure plus the multiplot title line.
    EXPECT_EQ(panels, static_cast<std::size_t>(core::numStructures));
    // The layout must hold them all.
    int rows = (core::numStructures + 1) / 2;
    EXPECT_NE(script.find("layout " + std::to_string(rows) + ",2"),
              std::string::npos);
    std::remove(plot_path.c_str());
}

// ---------------------------------------------------------------------
// JSON escaping and the lifecycle JSONL stream
// ---------------------------------------------------------------------

TEST(JsonEscape, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonEscape, WriteJsonEscapesBenchmarkName)
{
    auto result = fakeResult();
    result.benchmark = "we\"ird\\name";
    std::string path = ::testing::TempDir() + "escaped.json";
    writeJson(result, path);
    std::string text = slurp(path);
    EXPECT_NE(text.find("\"benchmark\": \"we\\\"ird\\\\name\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(LifecycleExport, JsonlWithoutTracingIsFatal)
{
    EXPECT_DEATH(writeLifecycleJsonl(fakeResult(),
                                     "/tmp/never_written.jsonl"),
                 "no lifecycle data");
}

TEST(LifecycleExport, FileNamesMapUnsafeCharactersToUnderscore)
{
    EXPECT_EQ(lifecycleFileName("ablation_sampling", "bzip2:fixed"),
              "ablation_sampling_bzip2_fixed_lifecycle.jsonl");
    EXPECT_EQ(lifecycleFileName("custom_machine", "machine A"),
              "custom_machine_machine_A_lifecycle.jsonl");
    EXPECT_EQ(lifecycleFileName("x", "a/b\\c\"d"),
              "x_a_b_c_d_lifecycle.jsonl");
    // Names already plain keep their bytes (CI reads this one).
    EXPECT_EQ(lifecycleFileName("ablation_m_sweep", "M=1000"),
              "ablation_m_sweep_M=1000_lifecycle.jsonl");
    EXPECT_EQ(lifecycleFileName("t", "v1.2+rc-3"),
              "t_v1.2+rc-3_lifecycle.jsonl");
}

TEST(LifecycleExport, TasksSharingAFileNameAreFatal)
{
    std::vector<TaskResult> tasks(2);
    tasks[0].name = "machine A";
    tasks[1].name = "machine:A";
    for (auto &task : tasks)
        task.result.lifecycle.enabled = true;
    // Fatal before any file is written.
    EXPECT_DEATH(
        {
            ExperimentEngine engine(RunOptions{.threads = 1});
            exportCampaign("collide", engine, tasks);
        },
        "'machine A' and 'machine:A' map to the same lifecycle file "
        "collide_machine_A_lifecycle.jsonl");
    EXPECT_NE(access("collide_machine_A_lifecycle.jsonl", F_OK), 0);
}

TEST(LifecycleExport, JsonlAndSummaryBlockFromRealRun)
{
    ExperimentConfig conf;
    conf.profile = trace::specProfile("bzip2");
    conf.online.m = 200;
    conf.online.n = 50;
    conf.numIntervals = 2;
    conf.lookahead = 4'096;
    conf.lifecycle.enabled = true;
    auto result = runExperiment(conf);

    std::string jsonl_path = ::testing::TempDir() + "lifecycle.jsonl";
    writeLifecycleJsonl(result, jsonl_path);
    auto lines = splitLines(slurp(jsonl_path));

    std::size_t retained = 0;
    for (int s = 0; s < core::numStructures; ++s)
        retained += result.lifecycle.structures[s].records.size();
    ASSERT_GT(retained, 0u);
    // First line is the legend naming the hop-kind/outcome taxonomy;
    // every later line is one record.
    ASSERT_EQ(lines.size(), retained + 1);
    EXPECT_NE(lines[0].find("\"legend\": true"), std::string::npos);
    EXPECT_NE(lines[0].find("\"hop_kinds\": [\"read_carry\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"outcomes\": ["), std::string::npos);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const auto &line = lines[i];
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"benchmark\": \"bzip2\""),
                  std::string::npos);
        EXPECT_NE(line.find("\"lane\": "), std::string::npos);
        EXPECT_NE(line.find("\"outcome\": \""), std::string::npos);
        EXPECT_NE(line.find("\"blame_pc\": "), std::string::npos);
        EXPECT_NE(line.find("\"blame_op\": \""), std::string::npos);
        EXPECT_NE(line.find("\"hops\": {\"read_carry\": "),
                  std::string::npos);
    }

    std::string json_path = ::testing::TempDir() + "lifecycle.json";
    writeJson(result, json_path);
    std::string text = slurp(json_path);
    EXPECT_NE(text.find("\"lifecycle\": {"), std::string::npos);
    EXPECT_NE(text.find("\"outcomes\": {\"failure_store\": "),
              std::string::npos);
    EXPECT_NE(text.find("\"latency_hist\": {"), std::string::npos);
    std::remove(jsonl_path.c_str());
    std::remove(json_path.c_str());
}

} // namespace
