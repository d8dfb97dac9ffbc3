/**
 * @file
 * Tests for the observability layer: the obs/metrics registry and its
 * determinism contract (byte-identical METRICS.json at any worker
 * count), the trace_event exporter, the util/json parser, and the
 * avf-report loaders' malformed-input rejection. Labelled `obs`:
 *   ctest --test-dir build -L obs
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "obs/trace_export.hh"
#include "report.hh"
#include "serve/protocol.hh"
#include "serve_report.hh"
#include "trace/spec_profiles.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace
{

using namespace avf;
using obs::MetricsShard;
using obs::MetricsSnapshot;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// ---------------------------------------------------------------- //
// Registry basics                                                   //
// ---------------------------------------------------------------- //

TEST(Metrics, RegistersAndRecordsEveryKind)
{
    MetricsShard shard;
    auto events = shard.registerCounter("events_total");
    auto ratio = shard.registerGauge("ratio");
    auto hist = shard.registerHistogram("lat_hist", 0.0, 10.0, 5);
    auto series = shard.registerSeries("avf_series");
    EXPECT_EQ(shard.size(), 4u);

    shard.inc(events);
    shard.inc(events, 41);
    shard.set(ratio, 0.25);
    shard.set(ratio, 0.75); // last write wins
    shard.observe(hist, 3.0);
    shard.push(series, 0.125);
    shard.push(series, 0.5);

    MetricsSnapshot snap = shard.snapshot();
    EXPECT_TRUE(snap.enabled);
    EXPECT_EQ(snap.counterValue("events_total"), 42u);
    EXPECT_EQ(snap.counterValue("missing_total"), 0u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.75);
    const std::vector<double> *got = snap.findSeries("avf_series");
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, (std::vector<double>{0.125, 0.5}));
    EXPECT_EQ(snap.findSeries("nope"), nullptr);
}

TEST(Metrics, CounterSaturatesInsteadOfWrapping)
{
    const std::uint64_t top = ~std::uint64_t{0};
    EXPECT_EQ(obs::saturatingAdd(top - 1, 1), top);
    EXPECT_EQ(obs::saturatingAdd(top, 1), top);
    EXPECT_EQ(obs::saturatingAdd(top, top), top);
    EXPECT_EQ(obs::saturatingAdd(1, 2), 3u);

    MetricsShard shard;
    auto sat = shard.registerCounter("sat_total");
    shard.inc(sat, top - 5);
    shard.inc(sat, 100);
    EXPECT_EQ(shard.snapshot().counterValue("sat_total"), top);
}

TEST(Metrics, NameValidation)
{
    EXPECT_TRUE(obs::validMetricName("cycles_total"));
    EXPECT_TRUE(obs::validMetricName("a"));
    EXPECT_TRUE(obs::validMetricName("x2_rate"));
    EXPECT_FALSE(obs::validMetricName(""));
    EXPECT_FALSE(obs::validMetricName("CamelCase"));
    EXPECT_FALSE(obs::validMetricName("2leading"));
    EXPECT_FALSE(obs::validMetricName("_leading"));
    EXPECT_FALSE(obs::validMetricName("has-dash"));
    EXPECT_FALSE(obs::validMetricName("has space"));
}

TEST(MetricsDeathTest, RejectsBadAndDuplicateNames)
{
    MetricsShard shard;
    // avflint: allow(metric-name-discipline) — bad name on purpose
    EXPECT_DEATH(shard.registerCounter("Bad-Name"), "snake_case");
    shard.registerCounter("twice_total");
    // avflint: allow(metric-name-discipline) — duplicate on purpose
    EXPECT_DEATH(shard.registerGauge("twice_total"),
                 "registered twice");
}

TEST(Metrics, HistogramBucketEdges)
{
    MetricsShard shard;
    auto hist = shard.registerHistogram("edge_hist", 0.0, 1.0, 4);
    shard.observe(hist, 0.0);    // first bin, inclusive lower edge
    shard.observe(hist, 0.25);   // exactly on an interior edge -> bin 1
    shard.observe(hist, 0.49);   // bin 1
    shard.observe(hist, 0.999);  // last bin
    shard.observe(hist, 1.0);    // upper edge is exclusive -> overflow
    shard.observe(hist, -0.001); // underflow

    MetricsSnapshot snap = shard.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const stats::HistogramSnapshot &h = snap.histograms[0].second;
    ASSERT_EQ(h.bins.size(), 4u);
    EXPECT_EQ(h.bins[0], 1u);
    EXPECT_EQ(h.bins[1], 2u);
    EXPECT_EQ(h.bins[2], 0u);
    EXPECT_EQ(h.bins[3], 1u);
    EXPECT_EQ(h.underflow, 1u);
    EXPECT_EQ(h.overflow, 1u);
    EXPECT_EQ(h.total, 6u);
}

// ---------------------------------------------------------------- //
// Merge + serialization                                             //
// ---------------------------------------------------------------- //

TEST(Metrics, MergeTotalsAddsCountersAndSkipsGauges)
{
    // Dynamic names keep the per-file once-only lint rule honest.
    const std::string shared = "m_shared_total";
    const std::string histName = "m_hist";

    MetricsShard a, b;
    a.inc(a.registerCounter(shared), 7);
    a.set(a.registerGauge("m_gauge"), 1.0);
    auto ha = a.registerHistogram(histName, 0.0, 2.0, 2);
    a.observe(ha, 0.5);

    b.inc(b.registerCounter(shared), 5);
    b.inc(b.registerCounter("m_only_b_total"), 3);
    auto hb = b.registerHistogram(histName, 0.0, 2.0, 2);
    b.observe(hb, 1.5);
    b.observe(hb, 9.0); // overflow

    MetricsSnapshot totals = a.snapshot();
    totals.mergeTotals(b.snapshot());
    EXPECT_EQ(totals.counterValue("m_shared_total"), 12u);
    EXPECT_EQ(totals.counterValue("m_only_b_total"), 3u);
    EXPECT_TRUE(totals.gauges.empty() || totals.gauges.size() == 1u);
    ASSERT_EQ(totals.histograms.size(), 1u);
    const stats::HistogramSnapshot &h = totals.histograms[0].second;
    EXPECT_EQ(h.bins[0], 1u);
    EXPECT_EQ(h.bins[1], 1u);
    EXPECT_EQ(h.overflow, 1u);
    EXPECT_EQ(h.total, 3u);
}

TEST(MetricsDeathTest, MergeRejectsMismatchedHistogramShapes)
{
    const std::string histName = "m_clash_hist";
    MetricsShard a, b;
    a.registerHistogram(histName, 0.0, 1.0, 4);
    b.registerHistogram(histName, 0.0, 1.0, 8);
    MetricsSnapshot totals = a.snapshot();
    EXPECT_DEATH(totals.mergeTotals(b.snapshot()), "shape");
}

TEST(Metrics, WriteJsonIsDeterministicAndParses)
{
    auto build = [] {
        MetricsShard shard;
        shard.inc(shard.registerCounter("w_events_total"), 3);
        shard.set(shard.registerGauge("w_ipc"), 1.0 / 3.0);
        auto h = shard.registerHistogram("w_hist", 0.0, 1.0, 2);
        shard.observe(h, 0.1);
        auto s = shard.registerSeries("w_series");
        shard.push(s, 0.5);
        return shard.snapshot();
    };
    std::string first, second;
    json::Writer firstOut(first, json::Writer::Style::Spaced);
    json::Writer secondOut(second, json::Writer::Style::Spaced);
    build().writeJson(firstOut);
    build().writeJson(secondOut);
    EXPECT_EQ(first, second);

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(first, doc, error)) << error;
    const json::Value *counters =
        doc.find("counters", json::Value::Kind::Object);
    ASSERT_NE(counters, nullptr);
    const json::Value *events = counters->find("w_events_total");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->asUint(), 3u);
    const json::Value *hist = doc.find("histograms");
    ASSERT_NE(hist, nullptr);
    ASSERT_NE(hist->find("w_hist"), nullptr);
    EXPECT_NE(hist->find("w_hist")->find("bins"), nullptr);
}

// ---------------------------------------------------------------- //
// The campaign-level determinism contract                           //
// ---------------------------------------------------------------- //

harness::ExperimentConfig
smallConfig(const char *profile)
{
    harness::ExperimentConfig conf;
    conf.profile = trace::specProfile(profile);
    conf.numIntervals = 4;
    conf.online.m = 64;
    conf.online.n = 16;
    conf.lookahead = 512;
    conf.metrics = true;
    return conf;
}

std::string
campaignMetricsAt(unsigned threads, const std::string &path)
{
    harness::RunOptions options;
    options.threads = threads;
    harness::ExperimentEngine engine(options);
    for (const char *name : {"mesa", "bzip2", "swim"})
        engine.submit(name, smallConfig(name));
    auto tasks = engine.collect();
    for (const auto &task : tasks)
        EXPECT_TRUE(task.ok()) << task.errorText;
    harness::writeMetricsJson(path, "identity", tasks);
    return slurp(path);
}

TEST(Metrics, MetricsJsonBytesIdenticalAcrossWorkerCounts)
{
    std::string serial = campaignMetricsAt(
        1, ::testing::TempDir() + "metrics_w1.json");
    std::string parallel = campaignMetricsAt(
        8, ::testing::TempDir() + "metrics_w8.json");
    EXPECT_EQ(serial, parallel);

    json::Value doc;
    std::string error;
    ASSERT_TRUE(report::loadMetricsDoc(serial, doc, error)) << error;
    const json::Value *tasks = doc.find("tasks");
    ASSERT_NE(tasks, nullptr);
    EXPECT_EQ(tasks->items.size(), 3u);
}

// ---------------------------------------------------------------- //
// trace_event exporter                                              //
// ---------------------------------------------------------------- //

TEST(TraceExport, WritesLoadableTraceEventJson)
{
    obs::TraceWriter writer;
    writer.setProcessName("avf campaign");
    writer.setThreadName(0, "worker 0");
    writer.addSpan({"mesa", "task", 1'000'000, 2'500'000, 0,
                    {{"index", 0.0}, {"ok", 1.0}}});
    writer.addSpan({"bzip2 \"quoted\"", "task", 3'750'000, 1'000'000,
                    0, {}});
    writer.addOtherData("thread_pool", [](json::Writer &out) {
        out.startObject().member("workers").uint(1).endObject();
    });
    EXPECT_EQ(writer.spanCount(), 2u);

    std::string text;
    json::Writer out(text, json::Writer::Style::Spaced);
    writer.writeJson(out);

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(text, doc, error)) << error;
    const json::Value *events =
        doc.find("traceEvents", json::Value::Kind::Array);
    ASSERT_NE(events, nullptr);
    std::size_t complete = 0, metadata = 0;
    double firstTs = -1.0;
    for (const json::Value &event : events->items) {
        const json::Value *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->text == "X") {
            ++complete;
            ASSERT_NE(event.find("ts"), nullptr);
            ASSERT_NE(event.find("dur"), nullptr);
            if (firstTs < 0.0)
                firstTs = event.find("ts")->asDouble();
        } else if (ph->text == "M") {
            ++metadata;
        }
    }
    EXPECT_EQ(complete, 2u);
    EXPECT_GE(metadata, 2u);     // process_name + one thread_name
    EXPECT_EQ(firstTs, 0.0);     // rebased to the earliest span
    const json::Value *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    ASSERT_NE(other->find("thread_pool"), nullptr);
    EXPECT_EQ(other->find("thread_pool")->find("workers")->asUint(),
              1u);
}

// Each task is one span in TRACE.json, so `avf-report phases` counts
// every task once.
TEST(TraceExport, PhasesCountEachCampaignTaskOnce)
{
    harness::RunOptions options;
    options.threads = 2;
    harness::ExperimentEngine engine(options);
    for (const char *name : {"mesa", "bzip2"})
        engine.submit(name, smallConfig(name));
    auto tasks = engine.collect();
    const std::string path = ::testing::TempDir() + "phases_TRACE.json";
    harness::writeTraceJson(path, "phases", engine, tasks);

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(slurp(path), doc, error)) << error;
    std::ostringstream out;
    ASSERT_TRUE(report::printPhases(out, doc, 10));
    std::istringstream rows(out.str());
    std::string row;
    std::getline(rows, row); // header
    std::size_t seen = 0;
    while (std::getline(rows, row)) {
        std::istringstream cells(row);
        std::string name;
        double totalMs = 0.0;
        unsigned long long count = 0;
        cells >> name >> totalMs >> count;
        EXPECT_TRUE(name == "mesa" || name == "bzip2") << row;
        EXPECT_EQ(count, 1u) << row;
        ++seen;
    }
    EXPECT_EQ(seen, 2u) << out.str();
}

// ---------------------------------------------------------------- //
// avf-report loaders: malformed snapshots must be rejected          //
// ---------------------------------------------------------------- //

TEST(Report, RejectsMalformedMetricsDocuments)
{
    json::Value doc;
    std::string error;

    EXPECT_FALSE(report::loadMetricsDoc("not json", doc, error));
    EXPECT_NE(error.find("offset"), std::string::npos);

    EXPECT_FALSE(report::loadMetricsDoc("[1, 2]", doc, error));

    EXPECT_FALSE(report::loadMetricsDoc(
        "{\"schema\": \"avf-metrics-v0\", \"tasks\": [], "
        "\"totals\": {}}",
        doc, error));
    EXPECT_NE(error.find("schema"), std::string::npos);

    EXPECT_FALSE(report::loadMetricsDoc(
        "{\"schema\": \"avf-metrics-v1\", \"totals\": {}}", doc,
        error));
    EXPECT_NE(error.find("tasks"), std::string::npos);

    // A task whose metrics object is missing a fixed section.
    EXPECT_FALSE(report::loadMetricsDoc(
        "{\"schema\": \"avf-metrics-v1\", \"tasks\": [{\"name\": "
        "\"x\", \"metrics\": {\"counters\": {}}}], \"totals\": {}}",
        doc, error));

    EXPECT_FALSE(report::loadMetricsDoc(
        "{\"schema\": \"avf-metrics-v1\", \"tasks\": []}", doc,
        error));
    EXPECT_NE(error.find("totals"), std::string::npos);
}

TEST(Report, LoadsAndGatesLintReports)
{
    // A minimal but complete avflint-v2 document, as the emitter
    // writes it (test_avflint.cc round-trips the real emitter; this
    // covers the read side's validation and the ok gate).
    const std::string text =
        "{\"schema\": \"avflint-v2\", \"root\": \".\", "
        "\"filesScanned\": 1, \"lexParseMicros\": 10, "
        "\"checks\": [{\"id\": \"determinism\", \"severity\": "
        "\"error\", \"description\": \"d\", \"findings\": 1, "
        "\"micros\": 5}], "
        "\"findings\": [{\"file\": \"src/a.cc\", \"line\": 3, "
        "\"check\": \"determinism\", \"severity\": \"error\", "
        "\"message\": \"rand()\"}], "
        "\"ok\": false}";
    json::Value doc;
    std::string error;
    ASSERT_TRUE(report::loadLintDoc(text, doc, error)) << error;

    std::ostringstream plain;
    EXPECT_FALSE(report::printLintReport(plain, doc, false));
    EXPECT_NE(plain.str().find("src/a.cc:3: [determinism] rand()"),
              std::string::npos);
    EXPECT_EQ(plain.str().find("::error"), std::string::npos);
    EXPECT_NE(plain.str().find("avflint: 1 finding(s) — FAIL"),
              std::string::npos);

    // --github adds a workflow-command annotation for every finding.
    std::ostringstream github;
    EXPECT_FALSE(report::printLintReport(github, doc, true));
    EXPECT_NE(github.str().find("::error file=src/a.cc,line=3::"
                                "[determinism] rand()"),
              std::string::npos);
}

TEST(Report, RejectsMalformedLintDocuments)
{
    json::Value doc;
    std::string error;

    EXPECT_FALSE(report::loadLintDoc("not json", doc, error));
    EXPECT_NE(error.find("offset"), std::string::npos);

    // A report in the older v1 schema.
    EXPECT_FALSE(report::loadLintDoc(
        "{\"schema\": \"avflint-v1\", \"checks\": [], "
        "\"findings\": [], \"ok\": true}",
        doc, error));
    EXPECT_NE(error.find("unsupported schema"), std::string::npos);

    EXPECT_FALSE(report::loadLintDoc(
        "{\"schema\": \"avflint-v2\", \"findings\": [], "
        "\"ok\": true}",
        doc, error));
    EXPECT_NE(error.find("checks"), std::string::npos);

    // A finding missing its line number.
    EXPECT_FALSE(report::loadLintDoc(
        "{\"schema\": \"avflint-v2\", \"checks\": [], "
        "\"findings\": [{\"file\": \"a\", \"check\": \"c\", "
        "\"severity\": \"error\", \"message\": \"m\"}], "
        "\"ok\": true}",
        doc, error));
    EXPECT_NE(error.find("finding 0: missing numeric \"line\""),
              std::string::npos);

    EXPECT_FALSE(report::loadLintDoc(
        "{\"schema\": \"avflint-v2\", \"checks\": [], "
        "\"findings\": [], \"ok\": 1}",
        doc, error));
    EXPECT_NE(error.find("ok"), std::string::npos);

    // Counts and line numbers must be exact unsigned integers.
    const std::string good =
        "{\"schema\": \"avflint-v2\", \"checks\": [{\"id\": \"d\", "
        "\"severity\": \"error\", \"findings\": 1, \"micros\": 5}], "
        "\"findings\": [{\"file\": \"a\", \"line\": 3, \"check\": "
        "\"d\", \"severity\": \"error\", \"message\": \"m\"}], "
        "\"ok\": false}";
    ASSERT_TRUE(report::loadLintDoc(good, doc, error)) << error;
    const std::pair<const char *, const char *> edits[] = {
        {"\"line\": 3", "\"line\": \"3\""},
        {"\"line\": 3", "\"line\": 3.5"},
        {"\"line\": 3", "\"line\": -3"},
        {"\"line\": 3", "\"line\": 1e20"},
        {"\"line\": 3", "\"line\": 18446744073709551616"},
    };
    for (const auto &[from, to] : edits) {
        std::string text = good;
        text.replace(text.find(from), std::strlen(from), to);
        EXPECT_FALSE(report::loadLintDoc(text, doc, error))
            << "accepted " << to;
        EXPECT_EQ(error.rfind("finding 0: ", 0), 0u) << error;
        EXPECT_NE(error.find("\"line\""), std::string::npos) << error;
    }
    std::string text = good;
    text.insert(1, "\"filesScanned\": -1, ");
    EXPECT_FALSE(report::loadLintDoc(text, doc, error));
    EXPECT_NE(error.find("\"filesScanned\""), std::string::npos) << error;
}

TEST(Report, LifecycleViewGroupsByStructureAndLane)
{
    // Lane-tagged records split into (structure, lane) rows; records
    // from exports predating the lane tag fall back to lane "-".
    std::string jsonl =
        "{\"structure\": \"iq\", \"lane\": 0, \"outcome\": "
        "\"expired\"}\n"
        "{\"structure\": \"iq\", \"lane\": 0, \"outcome\": "
        "\"failure_store\"}\n"
        "{\"structure\": \"iq\", \"lane\": 7, \"outcome\": "
        "\"expired\"}\n"
        "{\"structure\": \"reg\", \"outcome\": \"killed\"}\n";
    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(report::printLifecycle(out, jsonl, error)) << error;
    std::string text = out.str();

    auto iq0 = text.find("iq");
    ASSERT_NE(iq0, std::string::npos);
    EXPECT_NE(text.find("expired=1, failure_store=1"),
              std::string::npos);
    // Lane 7 is its own row, not merged into lane 0's.
    auto lane7 = text.find("   7", iq0);
    EXPECT_NE(lane7, std::string::npos);
    // The untagged legacy record groups under "-".
    auto reg = text.find("reg");
    ASSERT_NE(reg, std::string::npos);
    EXPECT_NE(text.find("-", reg), std::string::npos);
    EXPECT_NE(text.find("killed=1"), std::string::npos);
}

TEST(Report, ConvergenceRowsComputeThePaperBound)
{
    // Two intervals at AVF 0.2/0.4 with 800 total injections over 2
    // intervals: N = 400, bound = 0.5/sqrt(400) = 0.025. Both
    // intervals sit further than 0.025 from the running mean.
    const std::string text =
        "{\"schema\": \"avf-metrics-v1\", \"campaign\": \"t\","
        " \"tasks\": [{\"name\": \"mesa\", \"index\": 0, \"ok\": true,"
        "  \"metrics\": {"
        "   \"counters\": {\"online_iq_injections_total\": 800},"
        "   \"gauges\": {}, \"histograms\": {},"
        "   \"series\": {\"online_iq_avf\": [0.2, 0.4]}}}],"
        " \"totals\": {\"counters\": {}, \"gauges\": {},"
        "  \"histograms\": {}, \"series\": {}}}";
    json::Value doc;
    std::string error;
    ASSERT_TRUE(report::loadMetricsDoc(text, doc, error)) << error;

    std::vector<report::ConvergenceRow> rows;
    ASSERT_TRUE(report::convergenceRows(doc, "", "online_iq_avf",
                                        rows, error))
        << error;
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[0].avf, 0.2);
    EXPECT_DOUBLE_EQ(rows[0].runningMean, 0.2);
    EXPECT_NEAR(rows[0].bound, 0.025, 1e-12);
    EXPECT_FALSE(rows[0].flagged); // first interval IS the mean
    EXPECT_DOUBLE_EQ(rows[1].avf, 0.4);
    EXPECT_DOUBLE_EQ(rows[1].runningMean, 0.3);
    EXPECT_TRUE(rows[1].flagged); // |0.4 - 0.3| > 0.025

    EXPECT_FALSE(report::convergenceRows(doc, "gzip", "online_iq_avf",
                                         rows, error));
    EXPECT_NE(error.find("gzip"), std::string::npos);
    EXPECT_FALSE(
        report::convergenceRows(doc, "", "no_such_series", rows,
                                error));
}

// ---------------------------------------------------------------- //
// avf-report loaders: malformed numbers                             //
// ---------------------------------------------------------------- //

/** @p text with the first @p from replaced by @p to. */
std::string
withEdit(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

/** One malformed-number case and the member its rejection names. */
struct NumberEdit
{
    const char *from;
    const char *to;
    const char *member;
};

/** @p error starts with @p prefix and names "@p member". */
void
expectNamed(const std::string &error, const std::string &prefix,
            const std::string &member)
{
    EXPECT_EQ(error.rfind(prefix, 0), 0u) << error;
    EXPECT_NE(error.find("\"" + member + "\""), std::string::npos)
        << error;
}

TEST(Report, RejectsMalformedNumbersInRootCauseRows)
{
    const std::string good =
        "{\"schema\": \"avf-rootcause-v1\", \"campaign\": \"c\", "
        "\"attribution\": {\"units\": [\"iq\"], \"rows\": [{"
        "\"unit\": \"iq\", \"phase\": 3, \"pc\": 64, \"op\": "
        "\"load\", \"windows\": 5, \"live\": 4, \"failures\": 1}]}}";
    json::Value doc;
    std::string error;
    ASSERT_TRUE(report::loadRootCauseDoc(good, doc, error)) << error;

    const NumberEdit edits[] = {
        {"\"phase\": 3", "\"phase\": \"3\"", "phase"},
        {"\"phase\": 3", "\"phase\": 3.5", "phase"},
        {"\"phase\": 3", "\"phase\": -3", "phase"},
        {"\"phase\": 3", "\"phase\": 1e20", "phase"},
        {"\"phase\": 3", "\"phase\": 4294967296", "phase"},
        {"\"windows\": 5", "\"windows\": -5", "windows"},
        {"\"failures\": 1", "\"failures\": 1e20", "failures"},
    };
    for (const auto &[from, to, member] : edits) {
        EXPECT_FALSE(report::loadRootCauseDoc(withEdit(good, from, to),
                                              doc, error))
            << "accepted " << to;
        expectNamed(error, "row 0: ", member);
    }
}

TEST(Report, RejectsMalformedLifecycleLanes)
{
    const std::string good =
        "{\"structure\": \"iq\", \"lane\": 7, \"outcome\": "
        "\"expired\"}\n";
    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(report::printLifecycle(out, good, error)) << error;

    const NumberEdit edits[] = {
        {"\"lane\": 7", "\"lane\": \"7\"", "lane"},
        {"\"lane\": 7", "\"lane\": 7.5", "lane"},
        {"\"lane\": 7", "\"lane\": -2147483649", "lane"},
        {"\"lane\": 7", "\"lane\": 1e20", "lane"},
        {"\"lane\": 7", "\"lane\": 2147483648", "lane"},
    };
    for (const auto &[from, to, member] : edits) {
        EXPECT_FALSE(report::printLifecycle(out, withEdit(good, from, to),
                                            error))
            << "accepted " << to;
        expectNamed(error, "line 1: ", member);
    }
}

TEST(Report, RejectsMalformedNumbersInBudgetTrails)
{
    // The target index is a series entry, so it is written as a
    // fixed() double and read back as an int.
    const std::string good =
        "{\"schema\": \"avf-metrics-v1\", \"tasks\": [{\"name\": "
        "\"mesa\", \"metrics\": {\"counters\": "
        "{\"control_actuations_total\": 1}, \"gauges\": "
        "{\"budget_mttf_hours\": 100.000000}, \"histograms\": {}, "
        "\"series\": {\"budget_fit_total\": [1.500000], "
        "\"budget_projected_mttf_hours\": [2.000000], "
        "\"budget_target_structure\": [2.000000], "
        "\"control_engaged\": [1.000000]}}}], \"totals\": "
        "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}, "
        "\"series\": {}}}";
    json::Value doc;
    std::string error;
    ASSERT_TRUE(report::loadMetricsDoc(good, doc, error)) << error;
    std::ostringstream shown;
    ASSERT_TRUE(report::printBudget(shown, doc, "")) << shown.str();

    // Counters and series entries the loader checks.
    const NumberEdit loaderEdits[] = {
        {"\"control_actuations_total\": 1",
         "\"control_actuations_total\": \"1\"",
         "control_actuations_total"},
        {"\"control_actuations_total\": 1",
         "\"control_actuations_total\": 1.5", "control_actuations_total"},
        {"\"control_actuations_total\": 1",
         "\"control_actuations_total\": -1", "control_actuations_total"},
        {"\"control_actuations_total\": 1",
         "\"control_actuations_total\": 1e20",
         "control_actuations_total"},
        {"\"budget_target_structure\": [2.000000]",
         "\"budget_target_structure\": [\"2\"]",
         "budget_target_structure"},
    };
    for (const auto &[from, to, member] : loaderEdits) {
        EXPECT_FALSE(report::loadMetricsDoc(withEdit(good, from, to),
                                            doc, error))
            << "accepted " << to;
        expectNamed(error, "task 0: ", member);
    }

    // Target indices printBudget reads as an int.
    for (const char *target :
         {"[2.5]", "[-2147483649]", "[1e20]", "[2147483648]"}) {
        ASSERT_TRUE(report::loadMetricsDoc(
            withEdit(good, "\"budget_target_structure\": [2.000000]",
                     std::string("\"budget_target_structure\": ") +
                         target),
            doc, error))
            << error;
        std::ostringstream out;
        EXPECT_FALSE(report::printBudget(out, doc, "")) << target;
        expectNamed(out.str(), "budget: ", "budget_target_structure");
    }
}

TEST(Report, FeedTailRejectsMalformedNumbers)
{
    serve::CampaignSpec spec;
    spec.name = "tail";
    spec.benchmark = "bzip2";
    spec.intervals = 2;
    harness::IntervalResult row;
    row.online = {0.1, 0.2, 0.3, 0.4, 0.5};
    row.occupancy = 3.5;
    obs::AttributionSnapshot attr;
    attr.enabled = true;
    attr.units = {"iq"};
    obs::AttributionRow blame;
    blame.phase = 3;
    blame.pc = 64;
    blame.op = 2;
    blame.windows = 5;
    blame.live = 4;
    blame.failures = 1;
    attr.rows.push_back(blame);
    serve::CampaignRollup rollup;
    rollup.intervals = 1;
    rollup.injections = 10;
    rollup.failures = 2;
    const std::string good = serve::feedHeaderLine(spec) + "\n" +
                             serve::feedIntervalLine(0, 0, row) + "\n" +
                             serve::feedAttributionLine(attr) + "\n" +
                             serve::feedSummaryLine(rollup) + "\n";
    const std::string path = ::testing::TempDir() + "tail_feed.jsonl";
    auto tail = [&](const std::string &text, std::string &output,
                    std::string &error) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
        std::ostringstream out;
        const bool ok = report::printFeedTail(out, path, false, 0, error);
        output = out.str();
        return ok;
    };
    std::string output, error;
    ASSERT_TRUE(tail(good, output, error)) << error;
    EXPECT_NE(output.find("root-cause: 1 blame sites"), std::string::npos)
        << output;

    const char *rowText = "[0,3,64,2,5,4,1]";
    const std::pair<NumberEdit, const char *> edits[] = {
        {{"\"intervals\":2", "\"intervals\":2147483648", "intervals"},
         "feed header: "},
        {{"\"interval\":0", "\"interval\":\"0\"", "interval"},
         "feed interval row: "},
        {{"\"slice\":0", "\"slice\":0.5", "slice"},
         "feed interval row: "},
        {{"\"interval\":0", "\"interval\":-1", "interval"},
         "feed interval row: "},
        {{"\"occupancy\":3.5", "\"occupancy\":null", "occupancy"},
         "feed interval row: "},
        {{rowText, "[4294967296,3,64,2,5,4,1]", "unit"},
         "feed attribution row: "},
        {{rowText, "[0,3,64,2147483648,5,4,1]", "op"},
         "feed attribution row: "},
        {{rowText, "[0,3,64,2,5,4,1e20]", "failures"},
         "feed attribution row: "},
        {{"\"injections\":10", "\"injections\":1e20", "injections"},
         "feed summary row: "},
    };
    for (const auto &[edit, prefix] : edits) {
        EXPECT_FALSE(tail(withEdit(good, edit.from, edit.to), output,
                          error))
            << "accepted " << edit.to;
        expectNamed(error, prefix, edit.member);
    }
}

// ---------------------------------------------------------------- //
// util/json parser edge cases                                       //
// ---------------------------------------------------------------- //

TEST(JsonParser, HandlesEscapesNumbersAndNesting)
{
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(
        "{\"s\": \"a\\\"b\\\\c\\n\\u0041\", \"neg\": -2.5e2,"
        " \"big\": 18446744073709551615, \"deep\": [[[{\"x\": "
        "null}]]], \"t\": true}",
        doc, error))
        << error;
    EXPECT_EQ(doc.find("s")->text, "a\"b\\c\nA");
    EXPECT_DOUBLE_EQ(doc.find("neg")->asDouble(), -250.0);
    EXPECT_EQ(doc.find("big")->kind, json::Value::Kind::Uint);
    EXPECT_EQ(doc.find("big")->asUint(), ~std::uint64_t{0});
    EXPECT_TRUE(doc.find("t")->boolean);
    const json::Value *deep = doc.find("deep");
    ASSERT_NE(deep, nullptr);
    EXPECT_TRUE(
        deep->items[0].items[0].items[0].find("x")->isNull());
}

// Numbers parse straight from the input with std::from_chars. Where
// a double cannot hold the magnitude, from_chars reports
// result_out_of_range and leaves the value unset; the parser returns
// what strtod would: +-inf above the range, +-0 below it.
TEST(JsonParser, OutOfRangeNumbersReadAsStrtodDoes)
{
    const struct
    {
        const char *text;
        double want;
    } cases[] = {
        {"1e400", HUGE_VAL},
        {"-1e400", -HUGE_VAL},
        {"123456789e305", HUGE_VAL},
        {"0.0001e313", HUGE_VAL},
        {"1e-400", 0.0},
        {"-1e-400", -0.0},
        {"2.4e-324", 0.0},
        {"0.00001e-320", 0.0},
        {"1e99999999999999999999", HUGE_VAL},
        {"-1e-99999999999999999999", -0.0},
        {"-0.0", -0.0},
        {"-0", -0.0},
        {"4.9e-324", std::strtod("4.9e-324", nullptr)},
        {"1.7976931348623157e308", std::strtod("1.7976931348623157e308",
                                               nullptr)},
    };
    for (const auto &c : cases) {
        json::Value doc;
        std::string error;
        ASSERT_TRUE(json::parse(c.text, doc, error)) << c.text << error;
        EXPECT_EQ(doc.kind, json::Value::Kind::Double) << c.text;
        EXPECT_EQ(doc.number, c.want) << c.text;
        EXPECT_EQ(std::signbit(doc.number), std::signbit(c.want))
            << c.text;
        EXPECT_EQ(doc.number, std::strtod(c.text, nullptr)) << c.text;
    }
}

TEST(JsonParser, RejectsMalformedInput)
{
    json::Value doc;
    std::string error;
    EXPECT_FALSE(json::parse("{\"a\": 1,}", doc, error));
    EXPECT_FALSE(json::parse("{\"a\" 1}", doc, error));
    EXPECT_FALSE(json::parse("[1, 2] garbage", doc, error));
    EXPECT_FALSE(json::parse("\"unterminated", doc, error));
    EXPECT_FALSE(json::parse("01", doc, error));
    EXPECT_FALSE(json::parse("", doc, error));

    // Depth bomb: the parser bounds recursion instead of crashing.
    std::string bomb(5000, '[');
    bomb += std::string(5000, ']');
    EXPECT_FALSE(json::parse(bomb, doc, error));
    EXPECT_NE(error.find("nest"), std::string::npos);
}

// A repeated key would leave find() reading the first copy and the
// second silently ignored, so parse() refuses it, naming the key at
// the offset of its second appearance.
TEST(JsonParser, RejectsRepeatedKeys)
{
    json::Value doc;
    std::string error;
    const std::string text =
        R"({"cpu":{"dispatch_width":2,"dispatch_width":4}})";
    EXPECT_FALSE(json::parse(text, doc, error));
    EXPECT_EQ(error, "offset " +
                         std::to_string(text.rfind("\"dispatch_width\"")) +
                         ": repeated key \"dispatch_width\"");
    // Keys are compared after unescaping.
    EXPECT_FALSE(json::parse(R"({"a":1,"\u0061":2})", doc, error));
    EXPECT_NE(error.find("repeated key \"a\""), std::string::npos)
        << error;
    // One key in sibling or nested objects is not a repeat.
    EXPECT_TRUE(json::parse(R"({"a":{"a":1},"b":{"a":2},"c":[{"a":3}]})",
                            doc, error))
        << error;
}

// The one checked read: an integer must be exact and fit its type,
// in the kinds Writer writes; anything else is refused, never cast.
TEST(JsonReader, ExactIntegerTakesOnlyExactFits)
{
    auto parsed = [](const char *text) {
        json::Value v;
        std::string error;
        EXPECT_TRUE(json::parse(text, v, error)) << error;
        return v;
    };
    std::uint32_t u32 = 7;
    std::uint64_t u64 = 7;
    int i32 = 7;
    EXPECT_TRUE(json::exactInteger(parsed("4294967295"), u32));
    EXPECT_EQ(u32, 4294967295u);
    EXPECT_TRUE(json::exactInteger(parsed("18446744073709551615"), u64));
    EXPECT_EQ(u64, ~std::uint64_t{0});
    EXPECT_TRUE(json::exactInteger(parsed("-2147483648"), i32));
    EXPECT_EQ(i32, std::numeric_limits<int>::min());
    EXPECT_TRUE(json::exactInteger(parsed("2.000000"), i32));
    EXPECT_EQ(i32, 2);

    u32 = 7;
    u64 = 7;
    i32 = 7;
    for (const char *text :
         {"4294967296", "-1", "1.5", "1e20", "true", "\"3\"", "null"})
        EXPECT_FALSE(json::exactInteger(parsed(text), u32)) << text;
    // Past 2^64-1 a token is a Double, not a saturated UINT64_MAX.
    for (const char *text : {"18446744073709551616", "1e20", "-0"})
        EXPECT_FALSE(json::exactInteger(parsed(text), u64)) << text;
    for (const char *text : {"2147483648", "-2147483649", "0.5", "-1e300"})
        EXPECT_FALSE(json::exactInteger(parsed(text), i32)) << text;
    std::int64_t i64 = 7;
    EXPECT_FALSE(json::exactInteger(parsed("-1e19"), i64));
    EXPECT_FALSE(json::exactInteger(parsed("-9007199254740994"), i64));
    EXPECT_TRUE(json::exactInteger(parsed("-9007199254740992"), i64));
    EXPECT_EQ(u32, 7u); // a refused read leaves the field alone
    EXPECT_EQ(u64, 7u);
    EXPECT_EQ(i32, 7);

    // Reader: the first failure wins, under the caller's prefix.
    std::string error;
    json::Reader in(error, "doc: ");
    const json::Value doc = parsed("{\"a\": 1.5, \"b\": [1, 2]}");
    std::array<double, 3> three{};
    EXPECT_FALSE(in.member(doc, "a", u64));
    EXPECT_FALSE(in.member(doc, "b", three));
    EXPECT_FALSE(in.member(doc, "c", u64));
    EXPECT_EQ(error,
              "doc: \"a\" must be an integer in 0..18446744073709551615");
    std::string second;
    json::Reader again(second, "doc: ");
    EXPECT_FALSE(again.member(doc, "b", three));
    EXPECT_EQ(second, "doc: \"b\" must be an array of 3 numbers");
}

// ---------------------------------------------------------------- //
// util/json writer: round trip through the parser, spelling, layout //
// ---------------------------------------------------------------- //

/** Write @p v; containers alternate Inline/Lines by depth. */
void
writeValue(json::Writer &out, const json::Value &v, int depth = 0)
{
    using Kind = json::Value::Kind;
    const auto layout = depth % 2 ? json::Writer::Layout::Lines
                                  : json::Writer::Layout::Inline;
    switch (v.kind) {
      case Kind::Bool: out.boolean(v.boolean); break;
      case Kind::Uint: out.uint(v.uintValue); break;
      case Kind::Double: out.exact(v.number); break;
      case Kind::String: out.text(v.text); break;
      case Kind::Array:
        out.startArray(layout);
        for (const json::Value &item : v.items)
            writeValue(out, item, depth + 1);
        out.endArray();
        break;
      case Kind::Object:
        out.startObject(layout);
        for (const auto &[name, member] : v.members)
            writeValue(out.member(name), member, depth + 1);
        out.endObject();
        break;
      case Kind::Null: ADD_FAILURE() << "no writer emits null"; break;
    }
}

/** Equal trees; doubles must come back bit for bit. */
bool
sameValue(const json::Value &want, const json::Value &got)
{
    using Kind = json::Value::Kind;
    if (want.kind == Kind::Double)
        // exact() spells an integral double like an integer ("5"),
        // which parses as Uint; the bits are what must survive.
        return got.isNumber() &&
               std::bit_cast<std::uint64_t>(got.asDouble()) ==
                   std::bit_cast<std::uint64_t>(want.number);
    if (want.kind != got.kind)
        return false;
    switch (want.kind) {
      case Kind::Bool: return want.boolean == got.boolean;
      case Kind::Uint: return want.uintValue == got.uintValue;
      case Kind::String: return want.text == got.text;
      case Kind::Array:
        if (want.items.size() != got.items.size())
            return false;
        for (std::size_t i = 0; i < want.items.size(); ++i)
            if (!sameValue(want.items[i], got.items[i]))
                return false;
        return true;
      case Kind::Object:
        if (want.members.size() != got.members.size())
            return false;
        for (std::size_t i = 0; i < want.members.size(); ++i)
            if (want.members[i].first != got.members[i].first ||
                !sameValue(want.members[i].second,
                           got.members[i].second))
                return false;
        return true;
      default: return true;
    }
}

/** Strings every generated one draws from: the old jsonEscape()
 *  cases, the escaped ASCII, and multi-byte UTF-8. */
const std::vector<std::string> &
stringPieces()
{
    static const std::vector<std::string> pieces = [] {
        std::vector<std::string> p = {
            "plain", "a\"b", "a\\b", "a\nb\tc", "\"", "\\", "/",
            "\x7f", "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80",
            std::string("\0", 1)};
        for (char c = 1; c < 0x20; ++c)
            p.emplace_back(1, c);
        return p;
    }();
    return pieces;
}

std::string
randomString(Rng &rng)
{
    std::string out;
    const auto pieces = rng.below(6);
    for (std::uint64_t i = 0; i < pieces; ++i)
        out += stringPieces()[rng.below(stringPieces().size())];
    return out;
}

double
randomDouble(Rng &rng)
{
    static const double special[] = {
        0.0, -0.0, 0.1, 1.0 / 3.0, -2.5e-300,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        static_cast<double>(std::numeric_limits<std::int64_t>::min()),
        9007199254740993.0, 1e17, 123456789.0};
    if (rng.chance(0.5))
        return special[rng.below(std::size(special))];
    for (;;) {
        const double v = std::bit_cast<double>(rng.next());
        if (std::isfinite(v))
            return v;
    }
}

json::Value
randomValue(Rng &rng, int depth)
{
    using Kind = json::Value::Kind;
    json::Value v;
    switch (rng.below(depth >= 4 ? 4 : 6)) {
      case 0:
        v.kind = Kind::Bool;
        v.boolean = rng.chance(0.5);
        break;
      case 1:
        v.kind = Kind::Uint;
        v.uintValue = rng.chance(0.3)
                          ? std::numeric_limits<std::uint64_t>::max()
                          : rng.next() >> rng.below(64);
        break;
      case 2:
        v.kind = Kind::Double;
        v.number = randomDouble(rng);
        break;
      case 3:
        v.kind = Kind::String;
        v.text = randomString(rng);
        break;
      case 4:
        v.kind = Kind::Array;
        for (std::uint64_t n = rng.below(5); n > 0; --n)
            v.items.push_back(randomValue(rng, depth + 1));
        break;
      default:
        v.kind = Kind::Object;
        for (std::uint64_t n = rng.below(5); n > 0; --n) {
            std::string key = randomString(rng);
            json::Value member = randomValue(rng, depth + 1);
            // parse() refuses a repeated key: keep the first.
            if (!v.find(key))
                v.members.emplace_back(std::move(key), std::move(member));
        }
        break;
    }
    return v;
}

TEST(JsonWriter, ParseOfWriteRoundTripsRandomDocuments)
{
    Rng rng(20261017);
    for (int doc = 0; doc < 300; ++doc) {
        json::Value want;
        want.kind = json::Value::Kind::Array;
        want.items.push_back(randomValue(rng, 1));
        // Every piece at least once per document.
        for (const std::string &piece : stringPieces()) {
            json::Value text;
            text.kind = json::Value::Kind::String;
            text.text = piece;
            want.items.push_back(text);
        }
        for (auto style : {json::Writer::Style::Compact,
                           json::Writer::Style::Spaced}) {
            std::string written;
            json::Writer out(written, style);
            writeValue(out, want);
            json::Value got;
            std::string error;
            ASSERT_TRUE(json::parse(written, got, error))
                << error << "\n" << written;
            ASSERT_TRUE(sameValue(want, got)) << written;
        }
    }
}

TEST(JsonWriter, SpellsEscapesAndNumbersOneWay)
{
    std::string escaped;
    json::escape(escaped, std::string("q\"b\\n\nr\rt\t\b\f\x01\x1f\0"
                                      "\xc3\xa9",
                                      17));
    EXPECT_EQ(escaped, "q\\\"b\\\\n\\nr\\rt\\t\\u0008\\u000c"
                       "\\u0001\\u001f\\u0000\xc3\xa9");

    std::string text;
    json::Writer(text, json::Writer::Style::Compact)
        .startArray()
        .uint(std::numeric_limits<std::uint64_t>::max())
        .sint(std::numeric_limits<std::int64_t>::min())
        .exact(0.1)
        .exact(-0.0)
        .exact(5.0)
        .fixed(2.0 / 3.0, 6)
        .fixed(0.25, 1)
        .boolean(false)
        .endArray();
    EXPECT_EQ(text, "[18446744073709551615,-9223372036854775808,"
                    "0.10000000000000001,-0,5,0.666667,0.2,false]");
}

TEST(JsonWriter, LayoutRuleBreaksOnlyLinesContainers)
{
    using Layout = json::Writer::Layout;
    auto build = [](json::Writer &out) {
        out.startObject(Layout::Lines)
            .member("a").uint(1)
            .member("b").startArray().uint(1).uint(2).endArray()
            .member("c").startObject(Layout::Lines).endObject()
            .member("d").startArray(Layout::Lines)
            .startObject().member("x").startObject(Layout::Lines)
            .member("y").boolean(true).endObject().endObject()
            .endArray()
            .endObject();
    };
    std::string spaced, compact;
    json::Writer spacedOut(spaced, json::Writer::Style::Spaced);
    json::Writer compactOut(compact, json::Writer::Style::Compact);
    build(spacedOut);
    build(compactOut);
    // An inline container adds no indent level: "y" sits two spaces
    // per enclosing Lines container (the root, "d", "x").
    EXPECT_EQ(spaced, "{\n"
                      "  \"a\": 1,\n"
                      "  \"b\": [1, 2],\n"
                      "  \"c\": {},\n"
                      "  \"d\": [\n"
                      "    {\"x\": {\n"
                      "      \"y\": true\n"
                      "    }}\n"
                      "  ]\n"
                      "}");
    EXPECT_EQ(compact, "{\n"
                       "  \"a\":1,\n"
                       "  \"b\":[1,2],\n"
                       "  \"c\":{},\n"
                       "  \"d\":[\n"
                       "    {\"x\":{\n"
                       "      \"y\":true\n"
                       "    }}\n"
                       "  ]\n"
                       "}");
}

TEST(JsonWriter, FileWriterMatchesStringWriterPastItsBuffer)
{
    auto build = [](json::Writer &out) {
        out.startArray(json::Writer::Layout::Lines);
        for (int i = 0; i < 20000; ++i)
            out.text("record \"" + std::to_string(i) + "\"");
        out.endArray().newline();
    };
    std::string want;
    json::Writer stringOut(want, json::Writer::Style::Spaced);
    build(stringOut);
    ASSERT_GT(want.size(), std::size_t{1} << 17);

    std::FILE *file = std::tmpfile();
    ASSERT_NE(file, nullptr);
    json::Writer fileOut(file, json::Writer::Style::Spaced);
    build(fileOut);
    ASSERT_TRUE(fileOut.finish());
    std::rewind(file);
    std::string got(want.size() + 1, '\0');
    got.resize(std::fread(got.data(), 1, got.size(), file));
    EXPECT_EQ(std::fclose(file), 0);
    EXPECT_EQ(got, want);
}

} // namespace
