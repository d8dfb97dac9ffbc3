#include "serve/protocol.hh"

#include <algorithm>

#include "harness/task_codec.hh"
#include "trace/spec_profiles.hh"
#include "util/json.hh"

namespace avf::serve
{

namespace
{

using harness::codec::writeExactDoubles;

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

/** Sets @p errorOut to @p what (no prefix; callers add theirs). */
bool
reject(std::string &errorOut, const std::string &what)
{
    errorOut = what;
    return false;
}

bool
readUint(const json::Value &object, const char *key,
         std::uint64_t &out, std::string &errorOut)
{
    const json::Value *value =
        object.find(key, json::Value::Kind::Uint);
    if (!value)
        return reject(errorOut,
                      std::string("missing or non-integer '") + key +
                          "'");
    out = value->uintValue;
    return true;
}

} // namespace

void
writeCampaign(json::Writer &out, const CampaignSpec &spec)
{
    out.startObject()
        .member("name").text(spec.name)
        .member("benchmark").text(spec.benchmark)
        .member("intervals").sint(spec.intervals)
        .member("slice_intervals").sint(spec.sliceIntervals)
        .member("m").uint(spec.m)
        .member("n").uint(spec.n)
        .member("lanes").sint(spec.lanes)
        .member("seed_salt").uint(spec.seedSalt)
        .member("checkpoint_every").sint(spec.checkpointEverySlices)
        .member("metrics").boolean(spec.metrics)
        .member("root_cause").boolean(spec.rootCause)
        .endObject();
}

bool
readCampaign(const json::Value &body, CampaignSpec &out,
             std::string &errorOut)
{
    if (!body.isObject())
        return reject(errorOut, "campaign is not an object");
    const json::Value *name =
        body.find("name", json::Value::Kind::String);
    if (!name || !validCampaignName(name->text))
        return reject(errorOut,
                      "campaign name must be 1-64 chars of [a-z0-9_-]");
    out.name = name->text;

    const json::Value *benchmark =
        body.find("benchmark", json::Value::Kind::String);
    if (!benchmark)
        return reject(errorOut, "missing benchmark");
    const auto &known = trace::specBenchmarkNames();
    if (std::find(known.begin(), known.end(), benchmark->text) ==
        known.end())
        return reject(errorOut,
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
        return reject(errorOut, "intervals out of 1..1000000");
    if (slice == 0 || slice > intervals)
        return reject(errorOut, "slice_intervals out of 1..intervals");
    if (m == 0 || m > 100'000'000)
        return reject(errorOut, "m out of 1..1e8");
    if (n == 0 || n > 1'000'000)
        return reject(errorOut, "n out of 1..1e6");
    if (out.seedSalt == 0)
        return reject(errorOut, "seed_salt must be nonzero");
    out.intervals = static_cast<int>(intervals);
    out.sliceIntervals = static_cast<int>(slice);
    out.m = m;
    out.n = static_cast<std::uint32_t>(n);

    if (body.find("lanes")) {
        if (!readUint(body, "lanes", lanes, errorOut))
            return false;
        if (lanes > 64)
            return reject(errorOut, "lanes out of 0..64");
        out.lanes = static_cast<int>(lanes);
    }
    if (body.find("checkpoint_every")) {
        if (!readUint(body, "checkpoint_every", every, errorOut))
            return false;
        if (every == 0 || every > 100'000)
            return reject(errorOut, "checkpoint_every out of 1..1e5");
        out.checkpointEverySlices = static_cast<int>(every);
    }
    if (const json::Value *metrics = body.find("metrics")) {
        if (!metrics->isBool())
            return reject(errorOut, "metrics must be a bool");
        out.metrics = metrics->boolean;
    }
    if (const json::Value *rc = body.find("root_cause")) {
        if (!rc->isBool())
            return reject(errorOut, "root_cause must be a bool");
        out.rootCause = rc->boolean;
    }
    return true;
}

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
        if (!readCampaign(*campaign, out.campaign, errorOut))
            return fail(errorOut, errorOut);
        return true;
    }
    return fail(errorOut, "unknown op '" + op->text + "'");
}

std::string
encodeRequest(const Request &request)
{
    std::string line;
    json::Writer out(line, json::Writer::Style::Compact);
    out.startObject().member("v").text(requestSchemaVersion);
    switch (request.op) {
      case Request::Op::Status: out.member("op").text("status"); break;
      case Request::Op::Shutdown:
        out.member("op").text("shutdown");
        break;
      case Request::Op::Submit: out.member("op").text("submit"); break;
    }
    if (request.op == Request::Op::Submit)
        writeCampaign(out.member("campaign"), request.campaign);
    out.endObject();
    return line;
}

std::string
errorResponse(std::string_view message)
{
    std::string line;
    json::Writer(line, json::Writer::Style::Compact)
        .startObject()
        .member("ok").boolean(false)
        .member("error").text(message)
        .endObject();
    return line;
}

std::string
feedHeaderLine(const CampaignSpec &spec)
{
    std::string line;
    json::Writer(line, json::Writer::Style::Compact)
        .startObject()
        .member("v").text(feedSchemaVersion)
        .member("campaign").text(spec.name)
        .member("benchmark").text(spec.benchmark)
        .member("intervals").sint(spec.intervals)
        .member("slice_intervals").sint(spec.sliceIntervals)
        .member("m").uint(spec.m)
        .member("n").uint(spec.n)
        .member("lanes").sint(spec.lanes)
        .member("seed_salt").uint(spec.seedSalt)
        .endObject();
    return line;
}

std::string
feedIntervalLine(std::uint64_t globalInterval, std::uint64_t slice,
                 const harness::IntervalResult &row)
{
    std::string line;
    line.reserve(256);
    json::Writer out(line, json::Writer::Style::Compact);
    out.startObject()
        .member("interval").uint(globalInterval)
        .member("slice").uint(slice);
    harness::codec::writeIntervalMembers(out, row);
    out.endObject();
    return line;
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

    std::string line;
    line.reserve(256);
    json::Writer out(line, json::Writer::Style::Compact);
    out.startObject()
        .member("summary").boolean(true)
        .member("intervals").uint(rollup.intervals)
        .member("slices").uint(rollup.slices);
    writeExactDoubles(out.member("online_mean"), online.data(),
                      online.size());
    writeExactDoubles(out.member("softarch_mean"), softarch.data(),
                      softarch.size());
    writeExactDoubles(out.member("utilization_mean"),
                      utilization.data(), utilization.size());
    out.member("occupancy_mean").exact(mean(rollup.occupancySum))
        .member("cycles").uint(rollup.cycles)
        .member("retired").uint(rollup.retired)
        .member("injections").uint(rollup.injections)
        .member("failures").uint(rollup.failures)
        .endObject();
    return line;
}

std::string
feedAttributionLine(const obs::AttributionSnapshot &attr)
{
    std::string line;
    line.reserve(256);
    json::Writer out(line, json::Writer::Style::Compact);
    out.startObject().member("attribution").boolean(true);
    harness::codec::writeAttributionSnapshot(out.member("table"), attr);
    out.endObject();
    return line;
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
