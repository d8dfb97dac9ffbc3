#include "serve/protocol.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "harness/export.hh"
#include "harness/task_codec.hh"
#include "trace/spec_profiles.hh"
#include "util/json.hh"

namespace avf::serve
{

namespace
{

using harness::codec::appendExactDouble;

void
appendUint(std::string &out, std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    out += buf;
}

void
appendString(std::string &out, std::string_view text)
{
    out += '"';
    out += harness::jsonEscape(text);
    out += '"';
}

void
appendDoubles(std::string &out, const double *values,
              std::size_t count)
{
    out += '[';
    for (std::size_t i = 0; i < count; ++i) {
        if (i)
            out += ',';
        appendExactDouble(out, values[i]);
    }
    out += ']';
}

/** Campaign names become file stems; keep them path-safe. */
bool
validCampaignName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

bool
fail(std::string &errorOut, const std::string &what)
{
    errorOut = "request: " + what;
    return false;
}

bool
readUint(const json::Value &object, const char *key,
         std::uint64_t &out, std::string &errorOut)
{
    const json::Value *value =
        object.find(key, json::Value::Kind::Uint);
    if (!value)
        return fail(errorOut, std::string("missing or non-integer '") +
                                  key + "'");
    out = value->uintValue;
    return true;
}

bool
parseCampaign(const json::Value &body, CampaignSpec &out,
              std::string &errorOut)
{
    const json::Value *name =
        body.find("name", json::Value::Kind::String);
    if (!name || !validCampaignName(name->text))
        return fail(errorOut,
                    "campaign name must be 1-64 chars of [a-z0-9_-]");
    out.name = name->text;

    const json::Value *benchmark =
        body.find("benchmark", json::Value::Kind::String);
    if (!benchmark)
        return fail(errorOut, "missing benchmark");
    const auto &known = trace::specBenchmarkNames();
    if (std::find(known.begin(), known.end(), benchmark->text) ==
        known.end())
        return fail(errorOut,
                    "unknown benchmark '" + benchmark->text + "'");
    out.benchmark = benchmark->text;

    std::uint64_t intervals = 0, slice = 0, m = 0, n = 0, lanes = 0,
                  every = 0;
    if (!readUint(body, "intervals", intervals, errorOut) ||
        !readUint(body, "slice_intervals", slice, errorOut) ||
        !readUint(body, "m", m, errorOut) ||
        !readUint(body, "n", n, errorOut) ||
        !readUint(body, "seed_salt", out.seedSalt, errorOut))
        return false;
    if (intervals == 0 || intervals > 1'000'000)
        return fail(errorOut, "intervals out of 1..1000000");
    if (slice == 0 || slice > intervals)
        return fail(errorOut,
                    "slice_intervals out of 1..intervals");
    if (m == 0 || m > 100'000'000)
        return fail(errorOut, "m out of 1..1e8");
    if (n == 0 || n > 1'000'000)
        return fail(errorOut, "n out of 1..1e6");
    if (out.seedSalt == 0)
        return fail(errorOut, "seed_salt must be nonzero");
    out.intervals = static_cast<int>(intervals);
    out.sliceIntervals = static_cast<int>(slice);
    out.m = m;
    out.n = static_cast<std::uint32_t>(n);

    if (body.find("lanes")) {
        if (!readUint(body, "lanes", lanes, errorOut))
            return false;
        if (lanes > 64)
            return fail(errorOut, "lanes out of 0..64");
        out.lanes = static_cast<int>(lanes);
    }
    if (body.find("checkpoint_every")) {
        if (!readUint(body, "checkpoint_every", every, errorOut))
            return false;
        if (every == 0 || every > 100'000)
            return fail(errorOut, "checkpoint_every out of 1..1e5");
        out.checkpointEverySlices = static_cast<int>(every);
    }
    if (const json::Value *metrics = body.find("metrics")) {
        if (!metrics->isBool())
            return fail(errorOut, "metrics must be a bool");
        out.metrics = metrics->boolean;
    }
    if (const json::Value *rc = body.find("root_cause")) {
        if (!rc->isBool())
            return fail(errorOut, "root_cause must be a bool");
        out.rootCause = rc->boolean;
    }
    return true;
}

} // namespace

bool
parseRequest(std::string_view line, Request &out,
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
    if (!version || version->text != requestSchemaVersion)
        return fail(errorOut, "unknown protocol version");
    const json::Value *op = doc.find("op", json::Value::Kind::String);
    if (!op)
        return fail(errorOut, "missing op");

    out = Request{};
    if (op->text == "status") {
        out.op = Request::Op::Status;
        return true;
    }
    if (op->text == "shutdown") {
        out.op = Request::Op::Shutdown;
        return true;
    }
    if (op->text == "submit") {
        out.op = Request::Op::Submit;
        const json::Value *campaign = doc.find("campaign");
        if (!campaign || !campaign->isObject())
            return fail(errorOut, "submit needs a campaign object");
        return parseCampaign(*campaign, out.campaign, errorOut);
    }
    return fail(errorOut, "unknown op '" + op->text + "'");
}

std::string
encodeRequest(const Request &request)
{
    std::string out;
    out += "{\"v\":\"";
    out += requestSchemaVersion;
    out += "\",\"op\":\"";
    switch (request.op) {
      case Request::Op::Status: out += "status"; break;
      case Request::Op::Shutdown: out += "shutdown"; break;
      case Request::Op::Submit: out += "submit"; break;
    }
    out += '"';
    if (request.op == Request::Op::Submit) {
        const CampaignSpec &c = request.campaign;
        out += ",\"campaign\":{\"name\":";
        appendString(out, c.name);
        out += ",\"benchmark\":";
        appendString(out, c.benchmark);
        out += ",\"intervals\":";
        appendUint(out, static_cast<std::uint64_t>(c.intervals));
        out += ",\"slice_intervals\":";
        appendUint(out, static_cast<std::uint64_t>(c.sliceIntervals));
        out += ",\"m\":";
        appendUint(out, c.m);
        out += ",\"n\":";
        appendUint(out, c.n);
        out += ",\"lanes\":";
        appendUint(out, static_cast<std::uint64_t>(c.lanes));
        out += ",\"seed_salt\":";
        appendUint(out, c.seedSalt);
        out += ",\"checkpoint_every\":";
        appendUint(out, static_cast<std::uint64_t>(
                            c.checkpointEverySlices));
        out += ",\"metrics\":";
        out += c.metrics ? "true" : "false";
        out += ",\"root_cause\":";
        out += c.rootCause ? "true" : "false";
        out += '}';
    }
    out += '}';
    return out;
}

std::string
errorResponse(std::string_view message)
{
    std::string out = "{\"ok\":false,\"error\":";
    appendString(out, message);
    out += '}';
    return out;
}

std::string
feedHeaderLine(const CampaignSpec &spec)
{
    std::string out;
    out += "{\"v\":\"";
    out += feedSchemaVersion;
    out += "\",\"campaign\":";
    appendString(out, spec.name);
    out += ",\"benchmark\":";
    appendString(out, spec.benchmark);
    out += ",\"intervals\":";
    appendUint(out, static_cast<std::uint64_t>(spec.intervals));
    out += ",\"slice_intervals\":";
    appendUint(out, static_cast<std::uint64_t>(spec.sliceIntervals));
    out += ",\"m\":";
    appendUint(out, spec.m);
    out += ",\"n\":";
    appendUint(out, spec.n);
    out += ",\"lanes\":";
    appendUint(out, static_cast<std::uint64_t>(spec.lanes));
    out += ",\"seed_salt\":";
    appendUint(out, spec.seedSalt);
    out += '}';
    return out;
}

std::string
feedIntervalLine(std::uint64_t globalInterval, std::uint64_t slice,
                 const harness::IntervalResult &row)
{
    std::string out;
    out.reserve(256);
    out += "{\"interval\":";
    appendUint(out, globalInterval);
    out += ",\"slice\":";
    appendUint(out, slice);
    out += ",\"online\":";
    appendDoubles(out, row.online.data(), row.online.size());
    out += ",\"softarch\":";
    appendDoubles(out, row.softarch.data(), row.softarch.size());
    out += ",\"utilization\":";
    appendDoubles(out, row.utilization.data(),
                  row.utilization.size());
    out += ",\"occupancy\":";
    appendExactDouble(out, row.occupancy);
    out += '}';
    return out;
}

std::string
feedSummaryLine(const CampaignRollup &rollup)
{
    auto mean = [&](double sum) {
        return rollup.intervals
                   ? sum / static_cast<double>(rollup.intervals)
                   : 0.0;
    };
    std::array<double, core::numStructures> online{};
    std::array<double, core::numStructures> softarch{};
    std::array<double, 2> utilization{};
    for (std::size_t s = 0; s < online.size(); ++s) {
        online[s] = mean(rollup.onlineSum[s]);
        softarch[s] = mean(rollup.softarchSum[s]);
    }
    utilization[0] = mean(rollup.utilizationSum[0]);
    utilization[1] = mean(rollup.utilizationSum[1]);

    std::string out;
    out.reserve(256);
    out += "{\"summary\":true,\"intervals\":";
    appendUint(out, rollup.intervals);
    out += ",\"slices\":";
    appendUint(out, rollup.slices);
    out += ",\"online_mean\":";
    appendDoubles(out, online.data(), online.size());
    out += ",\"softarch_mean\":";
    appendDoubles(out, softarch.data(), softarch.size());
    out += ",\"utilization_mean\":";
    appendDoubles(out, utilization.data(), utilization.size());
    out += ",\"occupancy_mean\":";
    appendExactDouble(out, mean(rollup.occupancySum));
    out += ",\"cycles\":";
    appendUint(out, rollup.cycles);
    out += ",\"retired\":";
    appendUint(out, rollup.retired);
    out += ",\"injections\":";
    appendUint(out, rollup.injections);
    out += ",\"failures\":";
    appendUint(out, rollup.failures);
    out += '}';
    return out;
}

std::string
feedAttributionLine(const obs::AttributionSnapshot &attr)
{
    std::string out;
    out.reserve(256);
    out += "{\"attribution\":true,\"table\":";
    harness::codec::appendAttributionSnapshot(out, attr);
    out += '}';
    return out;
}

void
foldSliceIntoRollup(CampaignRollup &rollup,
                    const harness::TaskResult &task)
{
    for (const auto &row : task.result.intervals) {
        ++rollup.intervals;
        for (std::size_t s = 0; s < row.online.size(); ++s) {
            rollup.onlineSum[s] += row.online[s];
            rollup.softarchSum[s] += row.softarch[s];
        }
        rollup.utilizationSum[0] += row.utilization[0];
        rollup.utilizationSum[1] += row.utilization[1];
        rollup.occupancySum += row.occupancy;
    }
    ++rollup.slices;
    rollup.cycles += task.result.summary.cycles;
    rollup.retired += task.result.summary.retired;
    for (const auto &state : task.result.estimatorStates) {
        // Only the online family counts. The coverage probes a
        // root-cause slice adds carry lifetime counters too; summing
        // them would make the totals depend on --root-cause.
        if (state.name.rfind("online:", 0) != 0)
            continue;
        rollup.injections +=
            state.counterValue("lifetime_injections");
        rollup.failures += state.counterValue("lifetime_failures");
    }
}

} // namespace avf::serve
