/**
 * @file
 * The campaign runner: drives a CampaignSpec from its current
 * checkpoint to completion, streaming per-interval rows into the
 * JSONL feed and checkpointing every K slices. One process fan-out
 * covers all of a run's remaining slices, and the checkpoints are
 * taken in its ordered merge. Both entry points of the serve layer
 * share it — the daemon after a socket submit, and `avf-serve batch`
 * for the uninterrupted reference run the CI stage diffs against —
 * so there is exactly one code path that produces feed bytes.
 */

#ifndef AVF_SERVE_CAMPAIGN_HH
#define AVF_SERVE_CAMPAIGN_HH

#include <string>
#include <vector>

#include "obs/feed_writer.hh"
#include "serve/checkpoint.hh"
#include "serve/protocol.hh"

namespace avf::serve
{

/** File layout inside one serve state directory. */
struct StatePaths
{
    std::string dir;

    explicit StatePaths(std::string stateDir)
        : dir(std::move(stateDir))
    {
    }

    /** The daemon's listening socket. */
    std::string socketPath() const { return dir + "/serve.sock"; }
    /** Campaign feed (append-only JSONL). */
    std::string feedPath(const std::string &name) const
    {
        return dir + "/" + name + ".feed.jsonl";
    }
    /** Campaign checkpoint (atomic JSON document). */
    std::string checkpointPath(const std::string &name) const
    {
        return dir + "/" + name + checkpointSuffix;
    }

    static constexpr const char *checkpointSuffix = ".ckpt.json";
};

/**
 * Set @p names to the campaign of every checkpoint in @p dir, sorted
 * so status and resume order are deterministic. @return false with
 * @p error set when @p dir cannot be opened.
 */
bool listCampaigns(const std::string &dir,
                   std::vector<std::string> &names, std::string &error);

/**
 * Fold one merged slice into a campaign: append its interval rows to
 * @p feed, then fold it into @p checkpoint's rollup, last estimator
 * states, and (when the campaign enables them) metrics and
 * attribution totals. Neither syncs the feed nor advances
 * slicesDone; the caller decides when a checkpoint is due. Slices
 * must be folded in slice order.
 */
bool foldSlice(Checkpoint &checkpoint, obs::FeedWriter &feed,
               const harness::TaskResult &task, std::string &errorOut);

/**
 * Make @p spec durable without running anything: create the feed with
 * its header row, sync it, and persist the initial checkpoint
 * (slicesDone = 0). Once this returns true the campaign survives a
 * SIGKILL at any later instant — which is why the daemon acknowledges
 * a submit only after this step. Overwrites any previous campaign of
 * the same name.
 */
bool prepareCampaign(const CampaignSpec &spec, const StatePaths &paths,
                     std::string &errorOut);

/**
 * Start @p spec fresh: prepareCampaign(), then run every slice over
 * @p workers processes (equivalent to prepare + resume).
 */
bool runCampaignFresh(const CampaignSpec &spec,
                      const StatePaths &paths, int workers,
                      std::string &errorOut);

/**
 * Resume the campaign named @p name from its checkpoint: truncate
 * the feed to the durable byte count (dropping any torn line a
 * SIGKILL left), then recompute the slices past slicesDone. A
 * complete campaign is a no-op success. The re-appended tail is
 * byte-identical to what an uninterrupted run would have written.
 */
bool resumeCampaign(const std::string &name, const StatePaths &paths,
                    int workers, std::string &errorOut);

} // namespace avf::serve

#endif // AVF_SERVE_CAMPAIGN_HH
