#include "harness/task_codec.hh"

#include <type_traits>

#include "util/json.hh"

namespace avf::harness::codec
{

void
writeExactDoubles(json::Writer &out, const double *values,
                  std::size_t count)
{
    out.startArray();
    for (std::size_t i = 0; i < count; ++i)
        out.exact(values[i]);
    out.endArray();
}

void
writeIntervalMembers(json::Writer &out, const IntervalResult &row)
{
    writeExactDoubles(out.member("online"), row.online.data(),
                      row.online.size());
    writeExactDoubles(out.member("softarch"), row.softarch.data(),
                      row.softarch.size());
    writeExactDoubles(out.member("utilization"), row.utilization.data(),
                      row.utilization.size());
    out.member("occupancy").exact(row.occupancy);
}

namespace
{

/** [[name, number], ...]: counters as integers, values exact. */
template <typename T>
void
writeNamed(json::Writer &out,
           const std::vector<std::pair<std::string, T>> &pairs)
{
    out.startArray();
    for (const auto &[name, value] : pairs) {
        out.startArray().text(name);
        if constexpr (std::is_same_v<T, double>)
            out.exact(value);
        else
            out.uint(value);
        out.endArray();
    }
    out.endArray();
}

void
writeMetricsSnapshot(json::Writer &out,
                     const obs::MetricsSnapshot &metrics)
{
    out.startObject();
    writeNamed(out.member("counters"), metrics.counters);
    writeNamed(out.member("gauges"), metrics.gauges);
    out.member("histograms").startArray();
    for (const auto &[name, hist] : metrics.histograms) {
        out.startArray().text(name).startObject();
        out.member("lo").exact(hist.lo).member("hi").exact(hist.hi);
        out.member("bins").startArray();
        for (std::uint64_t bin : hist.bins)
            out.uint(bin);
        out.endArray()
            .member("underflow").uint(hist.underflow)
            .member("overflow").uint(hist.overflow)
            .member("total").uint(hist.total);
        out.endObject().endArray();
    }
    out.endArray().member("series").startArray();
    for (const auto &[name, points] : metrics.series) {
        out.startArray().text(name);
        writeExactDoubles(out, points.data(), points.size());
        out.endArray();
    }
    out.endArray().endObject();
}

} // namespace

void
writeEstimatorState(json::Writer &out,
                    const core::EstimatorState &state)
{
    out.startObject().member("name").text(state.name);
    writeNamed(out.member("counters"), state.counters);
    writeNamed(out.member("values"), state.values);
    writeExactDoubles(out.member("estimates"), state.estimates.data(),
                      state.estimates.size());
    out.endObject();
}

void
writeAttributionSnapshot(json::Writer &out,
                         const obs::AttributionSnapshot &attr)
{
    out.startObject().member("units").startArray();
    for (const std::string &unit : attr.units)
        out.text(unit);
    out.endArray().member("rows").startArray();
    for (const obs::AttributionRow &row : attr.rows) {
        // op is signed: -1 = no blame op.
        out.startArray()
            .uint(row.unit)
            .uint(row.phase)
            .uint(row.pc)
            .sint(row.op)
            .uint(row.windows)
            .uint(row.live)
            .uint(row.failures)
            .endArray();
    }
    out.endArray().endObject();
}

namespace
{

bool
decodeEstimatorState(const json::Value &value,
                     core::EstimatorState &out, json::Reader &in)
{
    if (!value.isObject())
        return in.fail("state not an object");
    const json::Value *name =
        value.find("name", json::Value::Kind::String);
    if (!name)
        return in.fail("state missing name");
    out.name = name->text;
    return in.member(value, "counters", out.counters) &&
           in.member(value, "values", out.values) &&
           in.member(value, "estimates", out.estimates);
}

bool
decodeMetricsSnapshot(const json::Value &value,
                      obs::MetricsSnapshot &out, json::Reader &in)
{
    if (!value.isObject())
        return in.fail("metrics not an object");
    out.enabled = true;
    if (!in.member(value, "counters", out.counters) ||
        !in.member(value, "gauges", out.gauges) ||
        !in.member(value, "series", out.series))
        return false;
    const json::Value *histograms =
        value.find("histograms", json::Value::Kind::Array);
    if (!histograms)
        return in.fail("metrics histograms not an array");
    out.histograms.clear();
    out.histograms.reserve(histograms->items.size());
    for (const auto &item : histograms->items) {
        if (!item.isArray() || item.items.size() != 2 ||
            !item.items[0].isString() || !item.items[1].isObject())
            return in.fail("metrics histogram malformed");
        const json::Value &body = item.items[1];
        stats::HistogramSnapshot hist;
        if (!in.member(body, "lo", hist.lo) ||
            !in.member(body, "hi", hist.hi) ||
            !in.member(body, "bins", hist.bins) ||
            !in.member(body, "underflow", hist.underflow) ||
            !in.member(body, "overflow", hist.overflow) ||
            !in.member(body, "total", hist.total))
            return false;
        out.histograms.emplace_back(item.items[0].text,
                                    std::move(hist));
    }
    return true;
}

} // namespace

bool
readAttributionSnapshot(const json::Value &value,
                        obs::AttributionSnapshot &out, json::Reader &in)
{
    if (!value.isObject())
        return in.fail("attribution not an object");
    out.enabled = true;
    const json::Value *units = value.find("units", json::Value::Kind::Array);
    const json::Value *rows = value.find("rows", json::Value::Kind::Array);
    if (!units || !rows)
        return in.fail("attribution missing a section");
    out.units.clear();
    out.units.reserve(units->items.size());
    for (const auto &item : units->items) {
        if (!item.isString())
            return in.fail("attribution unit not a string");
        out.units.push_back(item.text);
    }
    out.rows.clear();
    out.rows.reserve(rows->items.size());
    for (const auto &item : rows->items) {
        if (!item.isArray() || item.items.size() != 7)
            return in.fail("attribution row malformed");
        const json::Value *field = item.items.data();
        obs::AttributionRow row;
        if (!in.read(field[0], "unit", row.unit) ||
            !in.read(field[1], "phase", row.phase) ||
            !in.read(field[2], "pc", row.pc) ||
            !in.read(field[3], "op", row.op) ||
            !in.read(field[4], "windows", row.windows) ||
            !in.read(field[5], "live", row.live) ||
            !in.read(field[6], "failures", row.failures))
            return false;
        if (row.unit >= out.units.size())
            return in.fail("attribution row names an unknown unit");
        out.rows.push_back(row);
    }
    return true;
}

void
writeSnapshots(json::Writer &out,
               const std::vector<core::EstimatorState> &states,
               const obs::MetricsSnapshot &metrics,
               const obs::AttributionSnapshot &attribution)
{
    out.member("states").startArray();
    for (const core::EstimatorState &state : states)
        writeEstimatorState(out, state);
    out.endArray();
    if (metrics.enabled)
        writeMetricsSnapshot(out.member("metrics"), metrics);
    if (attribution.enabled)
        writeAttributionSnapshot(out.member("attribution"), attribution);
}

bool
readSnapshots(const json::Value &object,
              std::vector<core::EstimatorState> &states,
              obs::MetricsSnapshot &metrics,
              obs::AttributionSnapshot &attribution, json::Reader &in)
{
    const json::Value *list = object.find("states", json::Value::Kind::Array);
    if (!list)
        return in.fail("missing states");
    states.clear();
    states.reserve(list->items.size());
    for (const auto &item : list->items) {
        core::EstimatorState state;
        if (!decodeEstimatorState(item, state, in))
            return false;
        states.push_back(std::move(state));
    }
    const json::Value *m = object.find("metrics");
    const json::Value *a = object.find("attribution");
    return (!m || decodeMetricsSnapshot(*m, metrics, in)) &&
           (!a || readAttributionSnapshot(*a, attribution, in));
}

std::string
encodeTaskResult(const TaskResult &task)
{
    std::string line;
    // Sized for small campaigns; larger results grow amortized.
    line.reserve(512);
    json::Writer out(line, json::Writer::Style::Compact);
    out.startObject()
        .member("v").text(taskCodecVersion)
        .member("index").uint(task.index)
        .member("name").text(task.name)
        .member("error_text").text(task.errorText);
    if (!task.ok()) {
        out.endObject();
        return line;
    }

    const ExperimentResult &result = task.result;
    out.member("result").startObject()
        .member("benchmark").text(result.benchmark)
        .member("intervals").startArray();
    for (const IntervalResult &row : result.intervals) {
        out.startObject();
        writeIntervalMembers(out, row);
        out.endObject();
    }
    out.endArray().member("features").startArray();
    for (const core::FeatureVector &row : result.features)
        writeExactDoubles(out, row.data(), row.size());
    const RunSummary &summary = result.summary;
    out.endArray().member("summary").startObject()
        .member("ipc").exact(summary.ipc)
        .member("branch_accuracy").exact(summary.branchAccuracy)
        .member("l1d_miss_rate").exact(summary.l1dMissRate)
        .member("l2_miss_rate").exact(summary.l2MissRate)
        .member("dtlb_miss_rate").exact(summary.dtlbMissRate)
        .member("cycles").uint(summary.cycles)
        .member("retired").uint(summary.retired)
        .member("lifecycle_records").uint(summary.lifecycleRecords)
        .member("lifecycle_failures").uint(summary.lifecycleFailures)
        .member("lifecycle_killed").uint(summary.lifecycleKilled)
        .member("lifecycle_expired").uint(summary.lifecycleExpired)
        .endObject();
    writeSnapshots(out, result.estimatorStates, result.metrics,
                   result.attribution);
    out.endObject().endObject();
    return line;
}

bool
decodeTaskResult(std::string_view line, TaskResult &out,
                 std::string &errorOut)
{
    json::Reader in(errorOut, "task codec: ");
    json::Value doc;
    std::string parseError;
    if (!json::parse(line, doc, parseError))
        return in.fail(parseError);
    if (!doc.isObject())
        return in.fail("top level not an object");
    const json::Value *version =
        doc.find("v", json::Value::Kind::String);
    if (!version || version->text != taskCodecVersion)
        return in.fail("unknown codec version");

    out = TaskResult{};
    if (!in.member(doc, "index", out.index))
        return false;
    const json::Value *name =
        doc.find("name", json::Value::Kind::String);
    const json::Value *errorText =
        doc.find("error_text", json::Value::Kind::String);
    if (!name || !errorText)
        return in.fail("missing name or error_text");
    out.name = name->text;
    out.errorText = errorText->text;
    if (!out.ok())
        return true; // failed task: no result payload to decode

    const json::Value *result = doc.find("result", json::Value::Kind::Object);
    if (!result)
        return in.fail("missing result object");
    const json::Value *benchmark =
        result->find("benchmark", json::Value::Kind::String);
    if (!benchmark)
        return in.fail("missing benchmark");
    out.result.benchmark = benchmark->text;

    const json::Value *intervals =
        result->find("intervals", json::Value::Kind::Array);
    if (!intervals)
        return in.fail("missing intervals");
    out.result.intervals.clear();
    out.result.intervals.reserve(intervals->items.size());
    for (const auto &item : intervals->items) {
        if (!item.isObject())
            return in.fail("interval not an object");
        IntervalResult row;
        if (!in.member(item, "online", row.online) ||
            !in.member(item, "softarch", row.softarch) ||
            !in.member(item, "utilization", row.utilization) ||
            !in.member(item, "occupancy", row.occupancy))
            return false;
        out.result.intervals.push_back(row);
    }

    const json::Value *features =
        result->find("features", json::Value::Kind::Array);
    if (!features)
        return in.fail("missing features");
    out.result.features.clear();
    out.result.features.reserve(features->items.size());
    for (const auto &item : features->items) {
        core::FeatureVector row{};
        if (!in.read(item, "features", row))
            return false;
        out.result.features.push_back(row);
    }

    const json::Value *summary =
        result->find("summary", json::Value::Kind::Object);
    if (!summary)
        return in.fail("missing summary");
    RunSummary &sum = out.result.summary;
    return in.member(*summary, "ipc", sum.ipc) &&
           in.member(*summary, "branch_accuracy", sum.branchAccuracy) &&
           in.member(*summary, "l1d_miss_rate", sum.l1dMissRate) &&
           in.member(*summary, "l2_miss_rate", sum.l2MissRate) &&
           in.member(*summary, "dtlb_miss_rate", sum.dtlbMissRate) &&
           in.member(*summary, "cycles", sum.cycles) &&
           in.member(*summary, "retired", sum.retired) &&
           in.member(*summary, "lifecycle_records", sum.lifecycleRecords) &&
           in.member(*summary, "lifecycle_failures",
                  sum.lifecycleFailures) &&
           in.member(*summary, "lifecycle_killed", sum.lifecycleKilled) &&
           in.member(*summary, "lifecycle_expired",
                  sum.lifecycleExpired) &&
           readSnapshots(*result, out.result.estimatorStates,
                         out.result.metrics, out.result.attribution, in);
}

} // namespace avf::harness::codec
