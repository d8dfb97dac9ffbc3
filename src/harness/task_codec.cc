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

// ------------------------------------------------------------------ //
// Decode helpers: each returns false after setting @p errorOut.       //
// ------------------------------------------------------------------ //

namespace
{

bool
fail(std::string &errorOut, const std::string &what)
{
    errorOut = "task codec: " + what;
    return false;
}

bool
readDoubles(const json::Value &value, std::vector<double> &out,
            std::string &errorOut, const char *what)
{
    if (!value.isArray())
        return fail(errorOut, std::string(what) + " not an array");
    out.clear();
    out.reserve(value.items.size());
    for (const auto &item : value.items) {
        if (!item.isNumber())
            return fail(errorOut,
                        std::string(what) + " holds a non-number");
        out.push_back(item.asDouble());
    }
    return true;
}

bool
readFixedDoubles(const json::Value &value, double *out,
                 std::size_t count, std::string &errorOut,
                 const char *what)
{
    if (!value.isArray() || value.items.size() != count)
        return fail(errorOut,
                    std::string(what) + " needs exactly " +
                        std::to_string(count) + " numbers");
    for (std::size_t i = 0; i < count; ++i) {
        if (!value.items[i].isNumber())
            return fail(errorOut,
                        std::string(what) + " holds a non-number");
        out[i] = value.items[i].asDouble();
    }
    return true;
}

/** @p number as the type a snapshot stores it in. */
template <typename T>
T
numberAs(const json::Value &number)
{
    if constexpr (std::is_same_v<T, double>)
        return number.asDouble();
    else
        return number.asUint();
}

/** [[name, number], ...] as written by writeNamed(). */
template <typename T>
bool
readNamedPairs(const json::Value &value,
               std::vector<std::pair<std::string, T>> &out,
               std::string &errorOut, const char *what)
{
    if (!value.isArray())
        return fail(errorOut, std::string(what) + " not an array");
    out.clear();
    out.reserve(value.items.size());
    for (const auto &item : value.items) {
        if (!item.isArray() || item.items.size() != 2 ||
            !item.items[0].isString() || !item.items[1].isNumber())
            return fail(errorOut,
                        std::string(what) + " entry malformed");
        out.emplace_back(item.items[0].text,
                         numberAs<T>(item.items[1]));
    }
    return true;
}

template <typename T>
bool
readField(const json::Value &object, const char *key, T &out,
          std::string &errorOut)
{
    const json::Value *value = object.find(key);
    if (!value || !value->isNumber())
        return fail(errorOut,
                    std::string("missing number '") + key + "'");
    out = numberAs<T>(*value);
    return true;
}

bool
decodeEstimatorState(const json::Value &value,
                     core::EstimatorState &out,
                     std::string &errorOut)
{
    if (!value.isObject())
        return fail(errorOut, "state not an object");
    const json::Value *name =
        value.find("name", json::Value::Kind::String);
    if (!name)
        return fail(errorOut, "state missing name");
    out.name = name->text;
    const json::Value *counters = value.find("counters");
    const json::Value *values = value.find("values");
    const json::Value *estimates = value.find("estimates");
    if (!counters || !values || !estimates)
        return fail(errorOut, "state missing a section");
    return readNamedPairs(*counters, out.counters, errorOut,
                          "state counters") &&
           readNamedPairs(*values, out.values, errorOut,
                                "state values") &&
           readDoubles(*estimates, out.estimates, errorOut,
                       "state estimates");
}

bool
decodeMetricsSnapshot(const json::Value &value,
                      obs::MetricsSnapshot &out,
                      std::string &errorOut)
{
    if (!value.isObject())
        return fail(errorOut, "metrics not an object");
    out.enabled = true;
    const json::Value *counters = value.find("counters");
    const json::Value *gauges = value.find("gauges");
    const json::Value *histograms = value.find("histograms");
    const json::Value *series = value.find("series");
    if (!counters || !gauges || !histograms || !series)
        return fail(errorOut, "metrics missing a section");
    if (!readNamedPairs(*counters, out.counters, errorOut,
                        "metrics counters") ||
        !readNamedPairs(*gauges, out.gauges, errorOut,
                              "metrics gauges"))
        return false;
    if (!histograms->isArray())
        return fail(errorOut, "metrics histograms not an array");
    out.histograms.clear();
    out.histograms.reserve(histograms->items.size());
    for (const auto &item : histograms->items) {
        if (!item.isArray() || item.items.size() != 2 ||
            !item.items[0].isString() || !item.items[1].isObject())
            return fail(errorOut, "metrics histogram malformed");
        const json::Value &body = item.items[1];
        stats::HistogramSnapshot hist;
        if (!readField(body, "lo", hist.lo, errorOut) ||
            !readField(body, "hi", hist.hi, errorOut) ||
            !readField(body, "underflow", hist.underflow,
                           errorOut) ||
            !readField(body, "overflow", hist.overflow,
                           errorOut) ||
            !readField(body, "total", hist.total, errorOut))
            return false;
        const json::Value *bins = body.find("bins");
        if (!bins || !bins->isArray())
            return fail(errorOut, "histogram missing bins");
        hist.bins.reserve(bins->items.size());
        for (const auto &bin : bins->items) {
            if (!bin.isNumber())
                return fail(errorOut, "histogram bin not a number");
            hist.bins.push_back(bin.asUint());
        }
        out.histograms.emplace_back(item.items[0].text,
                                    std::move(hist));
    }
    if (!series->isArray())
        return fail(errorOut, "metrics series not an array");
    out.series.clear();
    out.series.reserve(series->items.size());
    for (const auto &item : series->items) {
        if (!item.isArray() || item.items.size() != 2 ||
            !item.items[0].isString())
            return fail(errorOut, "metrics series malformed");
        std::vector<double> points;
        if (!readDoubles(item.items[1], points, errorOut,
                         "series points"))
            return false;
        out.series.emplace_back(item.items[0].text,
                                std::move(points));
    }
    return true;
}

bool
decodeAttributionSnapshot(const json::Value &value,
                          obs::AttributionSnapshot &out,
                          std::string &errorOut)
{
    if (!value.isObject())
        return fail(errorOut, "attribution not an object");
    out.enabled = true;
    const json::Value *units = value.find("units");
    const json::Value *rows = value.find("rows");
    if (!units || !rows || !units->isArray() || !rows->isArray())
        return fail(errorOut, "attribution missing a section");
    out.units.clear();
    out.units.reserve(units->items.size());
    for (const auto &item : units->items) {
        if (!item.isString())
            return fail(errorOut,
                        "attribution unit not a string");
        out.units.push_back(item.text);
    }
    out.rows.clear();
    out.rows.reserve(rows->items.size());
    for (const auto &item : rows->items) {
        if (!item.isArray() || item.items.size() != 7)
            return fail(errorOut, "attribution row malformed");
        for (const auto &field : item.items) {
            if (!field.isNumber())
                return fail(errorOut,
                            "attribution row holds a non-number");
        }
        obs::AttributionRow row;
        row.unit =
            static_cast<std::uint32_t>(item.items[0].asUint());
        row.phase =
            static_cast<std::uint32_t>(item.items[1].asUint());
        row.pc = item.items[2].asUint();
        row.op = static_cast<int>(item.items[3].asDouble());
        row.windows = item.items[4].asUint();
        row.live = item.items[5].asUint();
        row.failures = item.items[6].asUint();
        if (row.unit >= out.units.size())
            return fail(errorOut,
                        "attribution row names an unknown unit");
        out.rows.push_back(row);
    }
    return true;
}

} // namespace

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
              obs::AttributionSnapshot &attribution,
              std::string &errorOut)
{
    const json::Value *list = object.find("states");
    if (!list || !list->isArray())
        return fail(errorOut, "missing states");
    states.clear();
    states.reserve(list->items.size());
    for (const auto &item : list->items) {
        core::EstimatorState state;
        if (!decodeEstimatorState(item, state, errorOut))
            return false;
        states.push_back(std::move(state));
    }
    const json::Value *m = object.find("metrics");
    const json::Value *a = object.find("attribution");
    return (!m || decodeMetricsSnapshot(*m, metrics, errorOut)) &&
           (!a || decodeAttributionSnapshot(*a, attribution, errorOut));
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
    json::Value doc;
    std::string parseError;
    if (!json::parse(line, doc, parseError))
        return fail(errorOut, parseError);
    if (!doc.isObject())
        return fail(errorOut, "top level not an object");
    const json::Value *version =
        doc.find("v", json::Value::Kind::String);
    if (!version || version->text != taskCodecVersion)
        return fail(errorOut, "unknown codec version");

    out = TaskResult{};
    std::uint64_t index = 0;
    if (!readField(doc, "index", index, errorOut))
        return false;
    out.index = static_cast<std::size_t>(index);
    const json::Value *name =
        doc.find("name", json::Value::Kind::String);
    const json::Value *errorText =
        doc.find("error_text", json::Value::Kind::String);
    if (!name || !errorText)
        return fail(errorOut, "missing name or error_text");
    out.name = name->text;
    out.errorText = errorText->text;
    if (!out.ok())
        return true; // failed task: no result payload to decode

    const json::Value *result = doc.find("result");
    if (!result || !result->isObject())
        return fail(errorOut, "missing result object");
    const json::Value *benchmark =
        result->find("benchmark", json::Value::Kind::String);
    if (!benchmark)
        return fail(errorOut, "missing benchmark");
    out.result.benchmark = benchmark->text;

    const json::Value *intervals = result->find("intervals");
    if (!intervals || !intervals->isArray())
        return fail(errorOut, "missing intervals");
    out.result.intervals.clear();
    out.result.intervals.reserve(intervals->items.size());
    for (const auto &item : intervals->items) {
        if (!item.isObject())
            return fail(errorOut, "interval not an object");
        IntervalResult row;
        const json::Value *online = item.find("online");
        const json::Value *softarch = item.find("softarch");
        const json::Value *utilization = item.find("utilization");
        if (!online || !softarch || !utilization ||
            !readFixedDoubles(*online, row.online.data(),
                              row.online.size(), errorOut,
                              "interval online") ||
            !readFixedDoubles(*softarch, row.softarch.data(),
                              row.softarch.size(), errorOut,
                              "interval softarch") ||
            !readFixedDoubles(*utilization, row.utilization.data(),
                              row.utilization.size(), errorOut,
                              "interval utilization") ||
            !readField(item, "occupancy", row.occupancy,
                             errorOut))
            return errorOut.empty()
                       ? fail(errorOut, "interval missing a series")
                       : false;
        out.result.intervals.push_back(row);
    }

    const json::Value *features = result->find("features");
    if (!features || !features->isArray())
        return fail(errorOut, "missing features");
    out.result.features.clear();
    out.result.features.reserve(features->items.size());
    for (const auto &item : features->items) {
        core::FeatureVector row{};
        if (!readFixedDoubles(item, row.data(), row.size(), errorOut,
                              "feature row"))
            return false;
        out.result.features.push_back(row);
    }

    const json::Value *summary = result->find("summary");
    if (!summary || !summary->isObject())
        return fail(errorOut, "missing summary");
    RunSummary &sum = out.result.summary;
    if (!readField(*summary, "ipc", sum.ipc, errorOut) ||
        !readField(*summary, "branch_accuracy",
                         sum.branchAccuracy, errorOut) ||
        !readField(*summary, "l1d_miss_rate", sum.l1dMissRate,
                         errorOut) ||
        !readField(*summary, "l2_miss_rate", sum.l2MissRate,
                         errorOut) ||
        !readField(*summary, "dtlb_miss_rate",
                         sum.dtlbMissRate, errorOut) ||
        !readField(*summary, "cycles", sum.cycles, errorOut) ||
        !readField(*summary, "retired", sum.retired, errorOut) ||
        !readField(*summary, "lifecycle_records",
                       sum.lifecycleRecords, errorOut) ||
        !readField(*summary, "lifecycle_failures",
                       sum.lifecycleFailures, errorOut) ||
        !readField(*summary, "lifecycle_killed",
                       sum.lifecycleKilled, errorOut) ||
        !readField(*summary, "lifecycle_expired",
                       sum.lifecycleExpired, errorOut))
        return false;

    return readSnapshots(*result, out.result.estimatorStates,
                         out.result.metrics, out.result.attribution,
                         errorOut);
}

} // namespace avf::harness::codec
