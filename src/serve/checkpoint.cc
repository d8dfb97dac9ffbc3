#include "serve/checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "harness/task_codec.hh"
#include "util/json.hh"

namespace avf::serve
{

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
    json::Reader in(errorOut, "checkpoint: ");
    json::Value doc;
    std::string parseError;
    if (!json::parse(text, doc, parseError))
        return in.fail(parseError);
    if (!doc.isObject())
        return in.fail("top level not an object");
    const json::Value *version =
        doc.find("v", json::Value::Kind::String);
    if (!version || version->text != checkpointSchemaVersion)
        return in.fail("unknown checkpoint version");

    out = Checkpoint{};
    const json::Value *campaign = doc.find("campaign");
    if (!campaign)
        return in.fail("missing campaign");
    if (!readCampaign(*campaign, out.campaign, in) ||
        !in.member(doc, "slices_done", out.slicesDone) ||
        !in.member(doc, "feed_bytes", out.feedBytes))
        return false;
    const json::Value *complete =
        doc.find("complete", json::Value::Kind::Bool);
    if (!complete)
        return in.fail("missing complete flag");
    out.complete = complete->boolean;
    // Past the slice count the resume would run no slice and append
    // the summary over missing rows; a complete campaign ran them all.
    const std::uint64_t slices = out.campaign.numSlices();
    if (out.slicesDone > slices)
        return in.fail("slices_done exceeds the campaign's " +
                       std::to_string(slices) + " slices");
    if (out.complete && out.slicesDone != slices)
        return in.fail("complete before all " + std::to_string(slices) +
                       " slices are done");

    const json::Value *rollup =
        doc.find("rollup", json::Value::Kind::Object);
    if (!rollup)
        return in.fail("missing rollup");
    CampaignRollup &r = out.rollup;
    return in.member(*rollup, "intervals", r.intervals) &&
           in.member(*rollup, "slices", r.slices) &&
           in.member(*rollup, "online_sum", r.onlineSum) &&
           in.member(*rollup, "softarch_sum", r.softarchSum) &&
           in.member(*rollup, "utilization_sum", r.utilizationSum) &&
           in.member(*rollup, "occupancy_sum", r.occupancySum) &&
           in.member(*rollup, "cycles", r.cycles) &&
           in.member(*rollup, "retired", r.retired) &&
           in.member(*rollup, "injections", r.injections) &&
           in.member(*rollup, "failures", r.failures) &&
           harness::codec::readSnapshots(doc, out.lastStates,
                                         out.metricsTotals,
                                         out.attributionTotals, in);
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
