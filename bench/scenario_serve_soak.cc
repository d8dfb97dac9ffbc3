/**
 * @file
 * Serve-mode soak: drives the service layer the way the daemon does
 * — same campaign fanned out over 1/2/4 worker processes, then a
 * crash-resume sweep that rebuilds the exact on-disk state a SIGKILL
 * would leave after every checkpoint boundary (mid-campaign
 * checkpoint + torn trailing feed line) and resumes it.
 *
 * stdout is deterministic (byte-comparable across runs and worker
 * counts): the per-shard-count identity verdicts and the kill-point
 * sweep verdicts. Wall-clock throughput is a side channel and goes
 * to stderr, per the timing.hh contract.
 *
 * Usage: scenario_serve_soak [STATE_ROOT]   (default /tmp/avf_serve_soak)
 */

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/stat.h>

#include "obs/feed_writer.hh"
#include "serve/campaign.hh"
#include "serve/checkpoint.hh"
#include "serve/protocol.hh"
#include "serve/sharder.hh"
#include "util/logging.hh"
#include "util/timing.hh"

namespace
{

using namespace avf;

serve::CampaignSpec
soakSpec()
{
    serve::CampaignSpec spec;
    spec.name = "soak";
    spec.benchmark = "bzip2";
    spec.intervals = 12;
    spec.sliceIntervals = 2;
    spec.m = 2000;
    spec.n = 120;
    spec.seedSalt = 11;
    spec.checkpointEverySlices = 1;
    return spec;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

bool
ensureDir(const std::string &path)
{
    return ::mkdir(path.c_str(), 0775) == 0 || errno == EEXIST;
}

/**
 * Rebuild the on-disk state a daemon killed right after slice
 * @p killAfter's checkpoint would leave, then resume it.
 * @return true when the resumed feed equals @p referenceFeed.
 */
bool
killPointSurvives(const serve::CampaignSpec &spec,
                  const serve::StatePaths &paths,
                  std::uint64_t killAfter,
                  const std::string &referenceFeed)
{
    std::string error;
    obs::FeedWriter feed;
    if (!feed.create(paths.feedPath(spec.name), error) ||
        !feed.appendLine(serve::feedHeaderLine(spec), error))
        return false;

    serve::Checkpoint checkpoint;
    checkpoint.campaign = spec;
    bool ok = serve::runShardedSlices(
        spec, 0, killAfter, 1,
        [&](const harness::TaskResult &task, std::string &out) {
            return serve::foldSlice(checkpoint, feed, task, out);
        },
        error);
    if (!ok || !feed.flushSync(error)) {
        warn("soak: kill-point setup failed: %s", error.c_str());
        return false;
    }
    checkpoint.slicesDone = killAfter;
    checkpoint.feedBytes = feed.bytesWritten();
    if (!serve::saveCheckpoint(checkpoint,
                               paths.checkpointPath(spec.name),
                               error) ||
        !feed.appendLine("{\"interval\":99,\"torn", error)) {
        warn("soak: kill-point setup failed: %s", error.c_str());
        return false;
    }
    feed.close();

    if (!serve::resumeCampaign(spec.name, paths, 2, error)) {
        warn("soak: resume failed: %s", error.c_str());
        return false;
    }
    return slurp(paths.feedPath(spec.name)) == referenceFeed;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string root =
        argc > 1 ? argv[1] : "/tmp/avf_serve_soak";
    if (!ensureDir(root))
        fatal("cannot create state root %s", root.c_str());

    const serve::CampaignSpec spec = soakSpec();
    timing::Stopwatch watch;

    // Phase 1: same campaign at 1/2/4 worker processes.
    std::string referenceFeed;
    std::printf("# serve soak: %s, %d intervals, %llu slices\n",
                spec.benchmark.c_str(), spec.intervals,
                static_cast<unsigned long long>(spec.numSlices()));
    std::printf("%-6s %-10s %s\n", "procs", "feed_bytes",
                "identical");
    for (int procs : {1, 2, 4}) {
        serve::StatePaths paths(root + "/procs" +
                                std::to_string(procs));
        if (!ensureDir(paths.dir))
            fatal("cannot create %s", paths.dir.c_str());
        std::string error;
        watch.start();
        if (!serve::runCampaignFresh(spec, paths, procs, error))
            fatal("campaign at %d procs failed: %s", procs,
                  error.c_str());
        const double ns = watch.stop();
        const std::string feedBytes =
            slurp(paths.feedPath(spec.name));
        if (procs == 1)
            referenceFeed = feedBytes;
        std::printf("%-6d %-10zu %s\n", procs, feedBytes.size(),
                    feedBytes == referenceFeed ? "yes" : "NO");
        std::fprintf(stderr,
                     "soak: %d procs: %.3f s (%.1f slices/s)\n",
                     procs, ns * 1e-9,
                     static_cast<double>(spec.numSlices()) * 1e9 /
                         ns);
    }

    // Phase 2: resume from every checkpoint boundary.
    std::printf("\n# crash-resume sweep (kill after slice K's "
                "checkpoint, torn tail, resume)\n");
    std::printf("%-6s %s\n", "K", "feed_identical");
    bool allSurvived = true;
    serve::StatePaths killPaths(root + "/killpoints");
    if (!ensureDir(killPaths.dir))
        fatal("cannot create %s", killPaths.dir.c_str());
    for (std::uint64_t k = 0; k < spec.numSlices(); ++k) {
        watch.start();
        const bool survived =
            killPointSurvives(spec, killPaths, k, referenceFeed);
        const double ns = watch.stop();
        allSurvived = allSurvived && survived;
        std::printf("%-6llu %s\n",
                    static_cast<unsigned long long>(k),
                    survived ? "yes" : "NO");
        std::fprintf(stderr, "soak: kill point %llu: %.3f s\n",
                     static_cast<unsigned long long>(k),
                     ns * 1e-9);
    }

    std::printf("\nresult: %s\n",
                allSurvived ? "all kill points byte-identical"
                            : "IDENTITY VIOLATION");
    return allSurvived ? 0 : 1;
}
