#include "serve_probe.hh"

#include <algorithm>

#include <sys/stat.h>

#include "harness/experiment.hh"
#include "harness/task_codec.hh"
#include "obs/feed_writer.hh"
#include "serve/campaign.hh"
#include "serve/checkpoint.hh"
#include "serve/protocol.hh"
#include "serve/sharder.hh"
#include "util/timing.hh"

namespace avfbench
{

namespace
{

using namespace avf;

/** Accumulated host time of one kind of call. */
struct CallTime
{
    double ns = 0.0;
    std::uint64_t calls = 0;

    double meanNs() const
    {
        return calls ? ns / static_cast<double>(calls) : 0.0;
    }
};

/** What one (procs, cadence) configuration measured. */
struct ConfigTotals
{
    double campaignNs = 0.0;
    double batchNs = 0.0;
    std::uint64_t slices = 0;
    std::uint64_t batches = 0;
};

struct ProbeTotals
{
    CallTime prepare, fsync, ckptSave, encode, decode;
    std::uint64_t wireBytes = 0;
};

/** Time @p body under span @p name; adds to @p into. */
template <typename Body>
bool
timedCall(SpanLog &spans, const char *name, CallTime &into, Body &&body)
{
    ScopedSpan span(spans, name);
    const std::uint64_t t0 = timing::steadyNowNs();
    const bool ok = body();
    into.ns += static_cast<double>(timing::steadyNowNs() - t0);
    ++into.calls;
    return ok;
}

/**
 * One campaign through the daemon's call sequence (serve/campaign.cc
 * runFromCheckpoint), timed call by call.
 */
bool
runCampaign(const serve::CampaignSpec &spec,
            const serve::StatePaths &paths, int procs, SpanLog &spans,
            ProbeTotals &totals, ConfigTotals &config,
            std::string &error)
{
    ScopedSpan campaignSpan(spans, "serve.campaign");
    const std::uint64_t t0 = timing::steadyNowNs();
    if (!timedCall(spans, "serve.prepare", totals.prepare, [&] {
            return serve::prepareCampaign(spec, paths, error);
        }))
        return false;
    serve::Checkpoint ckpt;
    obs::FeedWriter feed;
    if (!serve::loadCheckpoint(paths.checkpointPath(spec.name), ckpt,
                               error) ||
        !feed.resume(paths.feedPath(spec.name), ckpt.feedBytes, error))
        return false;

    const std::uint64_t slices = spec.numSlices();
    const auto every =
        static_cast<std::uint64_t>(spec.checkpointEverySlices);
    while (ckpt.slicesDone < slices) {
        const std::uint64_t end =
            std::min(slices, ckpt.slicesDone + every);
        const std::uint64_t b0 = timing::steadyNowNs();
        bool ok = false;
        {
            ScopedSpan batchSpan(spans, "serve.runShardedSlices");
            ok = serve::runShardedSlices(
                spec, ckpt.slicesDone, end, procs,
                [&](const harness::TaskResult &task, std::string &err) {
                    // What crossed the worker pipe for this slice:
                    // encode as the worker did, decode as the parent.
                    std::string line;
                    timedCall(spans, "serve.encode", totals.encode, [&] {
                        line = harness::codec::encodeTaskResult(task);
                        return true;
                    });
                    totals.wireBytes += line.size() + 1;
                    harness::TaskResult decoded;
                    if (!timedCall(spans, "serve.decode", totals.decode,
                                   [&] {
                                       return harness::codec::
                                           decodeTaskResult(
                                               line, decoded, err);
                                   }))
                        return false;
                    const auto slice =
                        static_cast<std::uint64_t>(task.index);
                    for (std::size_t k = 0;
                         k < task.result.intervals.size(); ++k)
                        if (!feed.appendLine(
                                serve::feedIntervalLine(
                                    slice * static_cast<std::uint64_t>(
                                                spec.sliceIntervals) +
                                        k,
                                    slice, task.result.intervals[k]),
                                err))
                            return false;
                    serve::foldSliceIntoRollup(ckpt.rollup, task);
                    ckpt.lastStates = task.result.estimatorStates;
                    return true;
                },
                error);
        }
        config.batchNs += static_cast<double>(timing::steadyNowNs() - b0);
        ++config.batches;
        if (!ok ||
            !timedCall(spans, "serve.flushSync", totals.fsync,
                       [&] { return feed.flushSync(error); }))
            return false;
        ckpt.slicesDone = end;
        ckpt.feedBytes = feed.bytesWritten();
        if (!timedCall(spans, "serve.saveCheckpoint", totals.ckptSave, [&] {
                return serve::saveCheckpoint(
                    ckpt, paths.checkpointPath(spec.name), error);
            }))
            return false;
    }
    if (!feed.appendLine(serve::feedSummaryLine(ckpt.rollup), error) ||
        !timedCall(spans, "serve.flushSync", totals.fsync,
                   [&] { return feed.flushSync(error); }))
        return false;
    ckpt.feedBytes = feed.bytesWritten();
    ckpt.complete = true;
    if (!timedCall(spans, "serve.saveCheckpoint", totals.ckptSave, [&] {
            return serve::saveCheckpoint(
                ckpt, paths.checkpointPath(spec.name), error);
        }))
        return false;
    config.campaignNs += static_cast<double>(timing::steadyNowNs() - t0);
    config.slices += slices;
    return true;
}

} // namespace

void
runServeProbe(const ServeProbeSpec &spec, SpanLog &spans,
              MetricList &metrics, std::vector<std::string> &errors)
{
    const serve::StatePaths paths(spec.stateDir);
    ProbeTotals totals;
    // [procs index][cadence index]: procs {1, P}, cadence {1, slices}.
    ConfigTotals configs[2][2];
    const int procsOf[2] = {1, spec.procs};
    const int cadenceOf[2] = {1, serveSlices};
    for (int c = 0; c < 2; ++c) {
        for (int p = 0; p < 2; ++p) {
            for (int k = 0; k < spec.campaigns; ++k) {
                const std::string name = "probe-p" +
                                         std::to_string(procsOf[p]) +
                                         "-c" +
                                         std::to_string(cadenceOf[c]) +
                                         "-" + std::to_string(k);
                std::string error;
                if (!runCampaign(serveCampaign(name, k, spec.seedSalt,
                                               cadenceOf[c]),
                                 paths, procsOf[p], spans, totals,
                                 configs[p][c], error))
                    errors.push_back("serve probe: campaign " + name +
                                     " failed: " + error);
            }
        }
    }

    // The decomposition must be the daemon's campaign path exactly.
    {
        const serve::StatePaths check(spec.stateDir + "/check");
        std::string error;
        const serve::CampaignSpec c = serveCampaign(
            "probe-p" + std::to_string(spec.procs) + "-c1-0", 0,
            spec.seedSalt);
        if (::mkdir(check.dir.c_str(), 0775) != 0 ||
            !serve::runCampaignFresh(c, check, spec.procs, error))
            errors.push_back("serve probe: reference campaign failed: " +
                             error);
        else if (slurp(check.feedPath(c.name)) !=
                 slurp(paths.feedPath(c.name)))
            errors.push_back("serve probe: decomposed feed differs from "
                             "serve::runCampaignFresh");
    }

    // In-process compute time of the first campaign's slices.
    CallTime compute;
    {
        const serve::CampaignSpec c =
            serveCampaign("compute", 0, spec.seedSalt);
        for (std::uint64_t i = 0; i < c.numSlices(); ++i) {
            const harness::ExperimentConfig config =
                serve::makeSliceConfig(c, i);
            timedCall(spans, "serve.slice_compute", compute, [&] {
                return !harness::detail::runExperimentDirect(config)
                            .intervals.empty();
            });
        }
    }

    auto slicesPerSec = [](const ConfigTotals &t) {
        return ratio(static_cast<double>(t.slices), t.campaignNs * 1e-9);
    };
    const ConfigTotals &dflt = configs[1][0];
    metrics.emplace_back("serve.prepare_ms",
                         totals.prepare.meanNs() * 1e-6);
    metrics.emplace_back("serve.fsync_ms", totals.fsync.meanNs() * 1e-6);
    metrics.emplace_back("serve.ckpt_save_ms",
                         totals.ckptSave.meanNs() * 1e-6);
    metrics.emplace_back("serve.encode_us",
                         totals.encode.meanNs() * 1e-3);
    metrics.emplace_back("serve.decode_us",
                         totals.decode.meanNs() * 1e-3);
    metrics.emplace_back("serve.wire_bytes",
                         ratio(static_cast<double>(totals.wireBytes),
                               static_cast<double>(totals.encode.calls)));
    metrics.emplace_back("serve.slice_compute_ms",
                         compute.meanNs() * 1e-6);
    metrics.emplace_back("serve.batches",
                         ratio(static_cast<double>(dflt.batches),
                               static_cast<double>(spec.campaigns)));
    metrics.emplace_back(
        "serve.effective_procs",
        ratio(compute.meanNs() * static_cast<double>(dflt.slices),
              dflt.batchNs));
    metrics.emplace_back("serve.procs_scaling",
                         ratio(slicesPerSec(configs[1][0]),
                               slicesPerSec(configs[0][0])));
    metrics.emplace_back("serve.procs_scaling_batched",
                         ratio(slicesPerSec(configs[1][1]),
                               slicesPerSec(configs[0][1])));
}

} // namespace avfbench
