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
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "obs/metrics.hh"
#include "obs/trace_export.hh"
#include "report.hh"
#include "trace/spec_profiles.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "util/timing.hh"

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
    timing::PhaseAccumulator phases;
    phases.add("fetch", 500'000);
    phases.add("retire", 250'000);
    writer.addPhases(phases, 1, 1'000'000);
    writer.addOtherData("thread_pool", [](json::Writer &out) {
        out.startObject().member("workers").uint(1).endObject();
    });
    EXPECT_EQ(writer.spanCount(), 4u);

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
    EXPECT_EQ(complete, 4u);
    EXPECT_GE(metadata, 2u);     // process_name + one thread_name
    EXPECT_EQ(firstTs, 0.0);     // rebased to the earliest span
    const json::Value *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    ASSERT_NE(other->find("thread_pool"), nullptr);
    EXPECT_EQ(other->find("thread_pool")->find("workers")->asUint(),
              1u);
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
        for (std::uint64_t n = rng.below(5); n > 0; --n)
            v.members.emplace_back(randomString(rng),
                                   randomValue(rng, depth + 1));
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
