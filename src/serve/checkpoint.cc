#include "serve/checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "harness/task_codec.hh"
#include "util/json.hh"

namespace avf::serve
{

namespace
{

bool
fail(std::string &errorOut, const std::string &what)
{
    errorOut = "checkpoint: " + what;
    return false;
}

bool
readUint(const json::Value &object, const char *key,
         std::uint64_t &out, std::string &errorOut)
{
    const json::Value *value = object.find(key);
    if (!value || !value->isNumber())
        return fail(errorOut, std::string("missing number '") + key +
                                  "'");
    out = value->asUint();
    return true;
}

bool
readFixedDoubles(const json::Value &object, const char *key,
                 double *out, std::size_t count,
                 std::string &errorOut)
{
    const json::Value *value = object.find(key);
    if (!value || !value->isArray() || value->items.size() != count)
        return fail(errorOut, std::string("bad array '") + key + "'");
    for (std::size_t i = 0; i < count; ++i) {
        if (!value->items[i].isNumber())
            return fail(errorOut,
                        std::string("non-number in '") + key + "'");
        out[i] = value->items[i].asDouble();
    }
    return true;
}

} // namespace

std::string
encodeCheckpoint(const Checkpoint &checkpoint)
{
    using harness::codec::writeExactDoubles;

    std::string text;
    text.reserve(512);
    json::Writer out(text, json::Writer::Style::Compact);
    out.startObject().member("v").text(checkpointSchemaVersion);
    writeCampaign(out.member("campaign"), checkpoint.campaign);
    out.member("slices_done").uint(checkpoint.slicesDone)
        .member("feed_bytes").uint(checkpoint.feedBytes)
        .member("complete").boolean(checkpoint.complete);

    const CampaignRollup &r = checkpoint.rollup;
    out.member("rollup").startObject()
        .member("intervals").uint(r.intervals)
        .member("slices").uint(r.slices);
    writeExactDoubles(out.member("online_sum"), r.onlineSum.data(),
                      r.onlineSum.size());
    writeExactDoubles(out.member("softarch_sum"), r.softarchSum.data(),
                      r.softarchSum.size());
    writeExactDoubles(out.member("utilization_sum"),
                      r.utilizationSum.data(), r.utilizationSum.size());
    out.member("occupancy_sum").exact(r.occupancySum)
        .member("cycles").uint(r.cycles)
        .member("retired").uint(r.retired)
        .member("injections").uint(r.injections)
        .member("failures").uint(r.failures)
        .endObject();
    harness::codec::writeSnapshots(out, checkpoint.lastStates,
                                   checkpoint.metricsTotals,
                                   checkpoint.attributionTotals);
    out.endObject();
    return text;
}

bool
decodeCheckpoint(std::string_view text, Checkpoint &out,
                 std::string &errorOut)
{
    json::Value doc;
    std::string parseError;
    if (!json::parse(text, doc, parseError))
        return fail(errorOut, parseError);
    if (!doc.isObject())
        return fail(errorOut, "top level not an object");
    const json::Value *version =
        doc.find("v", json::Value::Kind::String);
    if (!version || version->text != checkpointSchemaVersion)
        return fail(errorOut, "unknown checkpoint version");

    out = Checkpoint{};
    const json::Value *campaign = doc.find("campaign");
    if (!campaign)
        return fail(errorOut, "missing campaign");
    std::string why;
    if (!readCampaign(*campaign, out.campaign, why))
        return fail(errorOut, why);

    if (!readUint(doc, "slices_done", out.slicesDone, errorOut) ||
        !readUint(doc, "feed_bytes", out.feedBytes, errorOut))
        return false;
    const json::Value *complete = doc.find("complete");
    if (!complete || !complete->isBool())
        return fail(errorOut, "missing complete flag");
    out.complete = complete->boolean;

    const json::Value *rollup = doc.find("rollup");
    if (!rollup || !rollup->isObject())
        return fail(errorOut, "missing rollup");
    CampaignRollup &r = out.rollup;
    const json::Value *occupancy = rollup->find("occupancy_sum");
    if (!readUint(*rollup, "intervals", r.intervals, errorOut) ||
        !readUint(*rollup, "slices", r.slices, errorOut) ||
        !readFixedDoubles(*rollup, "online_sum", r.onlineSum.data(),
                          r.onlineSum.size(), errorOut) ||
        !readFixedDoubles(*rollup, "softarch_sum",
                          r.softarchSum.data(), r.softarchSum.size(),
                          errorOut) ||
        !readFixedDoubles(*rollup, "utilization_sum",
                          r.utilizationSum.data(),
                          r.utilizationSum.size(), errorOut) ||
        !readUint(*rollup, "cycles", r.cycles, errorOut) ||
        !readUint(*rollup, "retired", r.retired, errorOut) ||
        !readUint(*rollup, "injections", r.injections, errorOut) ||
        !readUint(*rollup, "failures", r.failures, errorOut))
        return false;
    if (!occupancy || !occupancy->isNumber())
        return fail(errorOut, "rollup missing occupancy_sum");
    r.occupancySum = occupancy->asDouble();

    return harness::codec::readSnapshots(doc, out.lastStates,
                                         out.metricsTotals,
                                         out.attributionTotals, errorOut);
}

bool
saveCheckpoint(const Checkpoint &checkpoint, const std::string &path,
               std::string &errorOut)
{
    const std::string text = encodeCheckpoint(checkpoint);
    const std::string tmp = path + ".tmp";
    std::FILE *stream = std::fopen(tmp.c_str(), "wb");
    if (!stream) {
        errorOut = "checkpoint '" + tmp +
                   "': open failed: " + std::strerror(errno);
        return false;
    }
    bool ok =
        std::fwrite(text.data(), 1, text.size(), stream) ==
            text.size() &&
        std::fputc('\n', stream) != EOF &&
        std::fflush(stream) == 0 &&
        ::fsync(::fileno(stream)) == 0;
    if (std::fclose(stream) != 0)
        ok = false;
    if (!ok) {
        errorOut = "checkpoint '" + tmp +
                   "': write failed: " + std::strerror(errno);
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        errorOut = "checkpoint '" + path +
                   "': rename failed: " + std::strerror(errno);
        return false;
    }
    return true;
}

bool
loadCheckpoint(const std::string &path, Checkpoint &out,
               std::string &errorOut)
{
    std::FILE *stream = std::fopen(path.c_str(), "rb");
    if (!stream) {
        errorOut = "checkpoint '" + path +
                   "': open failed: " + std::strerror(errno);
        return false;
    }
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, stream)) > 0)
        text.append(buf, got);
    bool readOk = std::ferror(stream) == 0;
    if (std::fclose(stream) != 0)
        readOk = false;
    if (!readOk) {
        errorOut = "checkpoint '" + path +
                   "': read failed: " + std::strerror(errno);
        return false;
    }
    return decodeCheckpoint(text, out, errorOut);
}

} // namespace avf::serve
