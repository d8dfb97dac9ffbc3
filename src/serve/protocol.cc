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
readCampaign(const json::Value &body, CampaignSpec &out, json::Reader &in)
{
    if (!body.isObject())
        return in.fail("campaign is not an object");
    const json::Value *name =
        body.find("name", json::Value::Kind::String);
    if (!name || !validCampaignName(name->text))
        return in.fail("campaign name must be 1-64 chars of [a-z0-9_-]");
    out.name = name->text;

    const json::Value *benchmark =
        body.find("benchmark", json::Value::Kind::String);
    if (!benchmark)
        return in.fail("missing benchmark");
    const auto &known = trace::specBenchmarkNames();
    if (std::find(known.begin(), known.end(), benchmark->text) ==
        known.end())
        return in.fail("unknown benchmark '" + benchmark->text + "'");
    out.benchmark = benchmark->text;

    if (!in.member(body, "intervals", out.intervals) ||
        !in.member(body, "slice_intervals", out.sliceIntervals) ||
        !in.member(body, "m", out.m) || !in.member(body, "n", out.n) ||
        !in.member(body, "seed_salt", out.seedSalt))
        return false;
    if (out.intervals < 1 || out.intervals > 1'000'000)
        return in.fail("intervals out of 1..1000000");
    if (out.sliceIntervals < 1 || out.sliceIntervals > out.intervals)
        return in.fail("slice_intervals out of 1..intervals");
    if (out.m == 0 || out.m > 100'000'000)
        return in.fail("m out of 1..1e8");
    if (out.n == 0 || out.n > 1'000'000)
        return in.fail("n out of 1..1e6");
    if (out.seedSalt == 0)
        return in.fail("seed_salt must be nonzero");

    if (body.find("lanes")) {
        if (!in.member(body, "lanes", out.lanes))
            return false;
        if (out.lanes < 0 || out.lanes > 64)
            return in.fail("lanes out of 0..64");
    }
    if (body.find("checkpoint_every")) {
        if (!in.member(body, "checkpoint_every", out.checkpointEverySlices))
            return false;
        if (out.checkpointEverySlices < 1 ||
            out.checkpointEverySlices > 100'000)
            return in.fail("checkpoint_every out of 1..1e5");
    }
    if (const json::Value *metrics = body.find("metrics")) {
        if (!metrics->isBool())
            return in.fail("metrics must be a bool");
        out.metrics = metrics->boolean;
    }
    if (const json::Value *rc = body.find("root_cause")) {
        if (!rc->isBool())
            return in.fail("root_cause must be a bool");
        out.rootCause = rc->boolean;
    }
    return true;
}

bool
parseRequest(std::string_view line, Request &out,
             std::string &errorOut)
{
    json::Reader in(errorOut, "request: ");
    json::Value doc;
    std::string parseError;
    if (!json::parse(line, doc, parseError))
        return in.fail(parseError);
    if (!doc.isObject())
        return in.fail("top level not an object");
    const json::Value *version =
        doc.find("v", json::Value::Kind::String);
    if (!version || version->text != requestSchemaVersion)
        return in.fail("unknown protocol version");
    const json::Value *op = doc.find("op", json::Value::Kind::String);
    if (!op)
        return in.fail("missing op");

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
        const json::Value *campaign =
            doc.find("campaign", json::Value::Kind::Object);
        if (!campaign)
            return in.fail("submit needs a campaign object");
        return readCampaign(*campaign, out.campaign, in);
    }
    return in.fail("unknown op '" + op->text + "'");
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
