#include "serve/campaign.hh"

#include <algorithm>
#include <string_view>

#include <dirent.h>

#include "serve/sharder.hh"

namespace avf::serve
{

namespace
{

/**
 * Run @p checkpoint's campaign from slicesDone to completion against
 * an already-positioned feed writer and finish with the summary row.
 *
 * One fan-out covers every remaining slice; checkpoints are taken in
 * its ordered merge, after every K merged slices counted from the
 * resume point and after the last slice. Workers keep computing
 * while the parent syncs and checkpoints, and pipe backpressure
 * bounds how far ahead they run.
 */
bool
runFromCheckpoint(Checkpoint &checkpoint, const StatePaths &paths,
                  obs::FeedWriter &feed, int workers,
                  std::string &errorOut)
{
    const CampaignSpec &spec = checkpoint.campaign;
    const std::string ckptPath = paths.checkpointPath(spec.name);
    const std::uint64_t slices = spec.numSlices();
    const std::uint64_t resumedAt = checkpoint.slicesDone;
    const auto every = static_cast<std::uint64_t>(
        spec.checkpointEverySlices);

    bool ok = runShardedSlices(
        spec, resumedAt, slices, workers,
        [&](const harness::TaskResult &task, std::string &sliceError) {
            if (!foldSlice(checkpoint, feed, task, sliceError))
                return false;
            const auto merged =
                static_cast<std::uint64_t>(task.index) + 1;
            if ((merged - resumedAt) % every != 0 && merged != slices)
                return true;
            // Durability order matters: the feed must be on disk
            // before the checkpoint that claims it is.
            if (!feed.flushSync(sliceError))
                return false;
            checkpoint.slicesDone = merged;
            checkpoint.feedBytes = feed.bytesWritten();
            return saveCheckpoint(checkpoint, ckptPath, sliceError);
        },
        errorOut);
    if (!ok)
        return false;

    // The attribution rollup precedes the summary row so a tail
    // reader sees the blame table before the campaign's last line.
    if (spec.rootCause &&
        !feed.appendLine(
            feedAttributionLine(checkpoint.attributionTotals),
            errorOut))
        return false;
    if (!feed.appendLine(feedSummaryLine(checkpoint.rollup),
                         errorOut) ||
        !feed.flushSync(errorOut))
        return false;
    checkpoint.feedBytes = feed.bytesWritten();
    checkpoint.complete = true;
    return saveCheckpoint(checkpoint, ckptPath, errorOut);
}

} // namespace

bool
listCampaigns(const std::string &dir, std::vector<std::string> &names,
              std::string &error)
{
    const std::string_view suffix = StatePaths::checkpointSuffix;
    names.clear();
    DIR *handle = ::opendir(dir.c_str());
    if (!handle) {
        error = "cannot open directory " + dir;
        return false;
    }
    while (const dirent *entry = ::readdir(handle)) {
        std::string_view file = entry->d_name;
        if (file.size() > suffix.size() &&
            file.substr(file.size() - suffix.size()) == suffix)
            names.emplace_back(
                file.substr(0, file.size() - suffix.size()));
    }
    ::closedir(handle);
    std::sort(names.begin(), names.end());
    return true;
}

bool
foldSlice(Checkpoint &checkpoint, obs::FeedWriter &feed,
          const harness::TaskResult &task, std::string &errorOut)
{
    const CampaignSpec &spec = checkpoint.campaign;
    const auto slice = static_cast<std::uint64_t>(task.index);
    const std::uint64_t base =
        slice * static_cast<std::uint64_t>(spec.sliceIntervals);
    for (std::size_t k = 0; k < task.result.intervals.size(); ++k) {
        if (!feed.appendLine(feedIntervalLine(base + k, slice,
                                              task.result.intervals[k]),
                             errorOut))
            return false;
    }
    foldSliceIntoRollup(checkpoint.rollup, task);
    checkpoint.lastStates = task.result.estimatorStates;
    if (spec.metrics)
        checkpoint.metricsTotals.mergeTotals(task.result.metrics);
    if (spec.rootCause)
        checkpoint.attributionTotals.mergeFrom(
            task.result.attribution);
    return true;
}

bool
prepareCampaign(const CampaignSpec &spec, const StatePaths &paths,
                std::string &errorOut)
{
    obs::FeedWriter feed;
    if (!feed.create(paths.feedPath(spec.name), errorOut))
        return false;
    if (!feed.appendLine(feedHeaderLine(spec), errorOut) ||
        !feed.flushSync(errorOut))
        return false;

    Checkpoint checkpoint;
    checkpoint.campaign = spec;
    checkpoint.slicesDone = 0;
    checkpoint.feedBytes = feed.bytesWritten();
    checkpoint.metricsTotals.enabled = spec.metrics;
    checkpoint.attributionTotals.enabled = spec.rootCause;
    return saveCheckpoint(checkpoint,
                          paths.checkpointPath(spec.name), errorOut);
}

bool
runCampaignFresh(const CampaignSpec &spec, const StatePaths &paths,
                 int workers, std::string &errorOut)
{
    if (!prepareCampaign(spec, paths, errorOut))
        return false;
    return resumeCampaign(spec.name, paths, workers, errorOut);
}

bool
resumeCampaign(const std::string &name, const StatePaths &paths,
               int workers, std::string &errorOut)
{
    Checkpoint checkpoint;
    if (!loadCheckpoint(paths.checkpointPath(name), checkpoint,
                        errorOut))
        return false;
    if (checkpoint.campaign.name != name) {
        errorOut = "checkpoint names campaign '" +
                   checkpoint.campaign.name + "', expected '" + name +
                   "'";
        return false;
    }
    if (checkpoint.complete)
        return true;
    obs::FeedWriter feed;
    if (!feed.resume(paths.feedPath(name), checkpoint.feedBytes,
                     errorOut))
        return false;
    return runFromCheckpoint(checkpoint, paths, feed, workers,
                             errorOut);
}

} // namespace avf::serve
