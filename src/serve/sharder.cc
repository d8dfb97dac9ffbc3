#include "serve/sharder.hh"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/experiment.hh"
#include "harness/task_codec.hh"
#include "trace/spec_profiles.hh"

namespace avf::serve
{

harness::ExperimentConfig
makeSliceConfig(const CampaignSpec &spec, std::uint64_t index)
{
    harness::ExperimentConfig config;
    config.profile = trace::specProfile(spec.benchmark);
    config.online.m = spec.m;
    config.online.n = spec.n;
    // lanes = 0 ("the campaign default") passes through for
    // runExperimentDirect (or an engine's submit) to resolve.
    config.online.lanes = spec.lanes;
    config.numIntervals = spec.sliceLength(index);
    config.metrics = spec.metrics;
    if (spec.rootCause) {
        // Campaign-global phase buckets: the slice's windows land in
        // buckets offset by its first global interval, so merged
        // tables read the same at any slicing.
        config.attribution.enabled = true;
        config.attribution.phaseBase = static_cast<std::uint32_t>(
            index * static_cast<std::uint64_t>(spec.sliceIntervals));
        config.attribution.phaseCount = static_cast<std::uint32_t>(
            spec.sliceLength(index));
    }
    harness::deriveTaskSeeds(config, spec.seedSalt, index);
    return config;
}

namespace
{

/**
 * Child body: run this worker's slices sequentially, stream each
 * encoded result over the pipe, then _exit without touching any
 * parent-owned state (no atexit handlers, no stdio flush of
 * inherited buffers, no engine thread pool).
 */
[[noreturn]] void
workerMain(const CampaignSpec &spec, std::uint64_t firstSlice,
           std::uint64_t endSlice, std::uint64_t worker,
           std::uint64_t workerCount, int pipeFd)
{
    std::FILE *out = ::fdopen(pipeFd, "w");
    if (!out) {
        // avflint: allow(exit-site) — forked worker; only _exit is
        // safe here (exit() would run the parent's atexit handlers
        // and flush inherited stdio buffers twice).
        ::_exit(2);
    }
    for (std::uint64_t i = firstSlice + worker; i < endSlice;
         i += workerCount) {
        harness::TaskResult task;
        task.index = static_cast<std::size_t>(i);
        task.name = spec.name + ":" + std::to_string(i);
        try {
            task.result = harness::detail::runExperimentDirect(
                makeSliceConfig(spec, i));
        } catch (const std::exception &e) {
            task.errorText = e.what();
        } catch (...) {
            task.errorText = "unknown exception";
        }
        std::string line = harness::codec::encodeTaskResult(task);
        line += '\n';
        if (std::fwrite(line.data(), 1, line.size(), out) !=
                line.size() ||
            std::fflush(out) != 0) {
            // avflint: allow(exit-site) — see above.
            ::_exit(3);
        }
    }
    if (std::fclose(out) != 0) {
        // avflint: allow(exit-site) — see above.
        ::_exit(3);
    }
    // avflint: allow(exit-site) — see above.
    ::_exit(0);
}

/** Read one '\n'-terminated line; false on EOF or error. */
bool
readLine(std::FILE *stream, std::string &lineOut)
{
    lineOut.clear();
    int c = 0;
    while ((c = std::fgetc(stream)) != EOF) {
        if (c == '\n')
            return true;
        lineOut += static_cast<char>(c);
    }
    return false;
}

/** Reap every child; true when all exited cleanly with status 0. */
bool
reapWorkers(const std::vector<pid_t> &pids, std::string &errorOut)
{
    bool ok = true;
    for (pid_t pid : pids) {
        int status = 0;
        if (::waitpid(pid, &status, 0) != pid) {
            ok = false;
            errorOut = "sharder: waitpid failed";
            continue;
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            ok = false;
            errorOut = "sharder: worker exited abnormally (status " +
                       std::to_string(status) + ")";
        }
    }
    return ok;
}

} // namespace

bool
runShardedSlices(const CampaignSpec &spec, std::uint64_t firstSlice,
                 std::uint64_t endSlice, int workers,
                 const SliceConsumer &onSlice, std::string &errorOut)
{
    if (firstSlice >= endSlice)
        return true;
    std::uint64_t count = endSlice - firstSlice;
    auto workerCount = static_cast<std::uint64_t>(
        workers < 1 ? 1 : workers);
    if (workerCount > count)
        workerCount = count;

    std::vector<std::FILE *> streams;
    std::vector<pid_t> pids;
    streams.reserve(workerCount);
    pids.reserve(workerCount);

    for (std::uint64_t w = 0; w < workerCount; ++w) {
        int fds[2];
        if (::pipe(fds) != 0) {
            errorOut = "sharder: pipe() failed";
            break;
        }
        pid_t pid = ::fork();
        if (pid < 0) {
            errorOut = "sharder: fork() failed";
            ::close(fds[0]);
            ::close(fds[1]);
            break;
        }
        if (pid == 0) {
            // Child: drop every read end inherited so far (ours and
            // the earlier workers'), keep only our write end.
            ::close(fds[0]);
            for (std::FILE *stream : streams)
                (void)std::fclose(stream);
            workerMain(spec, firstSlice, endSlice, w, workerCount,
                       fds[1]);
        }
        ::close(fds[1]);
        std::FILE *stream = ::fdopen(fds[0], "r");
        if (!stream) {
            errorOut = "sharder: fdopen() failed";
            ::close(fds[0]);
            pids.push_back(pid);
            break;
        }
        streams.push_back(stream);
        pids.push_back(pid);
    }

    bool ok = streams.size() == workerCount;

    // Merge: visit slices in global order, reading each from its
    // owner's pipe. A worker that runs ahead blocks on pipe
    // backpressure; the parent never blocks writing, so the merge
    // cannot deadlock.
    std::string line;
    harness::TaskResult task;
    for (std::uint64_t i = firstSlice; ok && i < endSlice; ++i) {
        std::FILE *stream =
            streams[static_cast<std::size_t>((i - firstSlice) %
                                             workerCount)];
        if (!readLine(stream, line)) {
            errorOut = "sharder: worker pipe closed before slice " +
                       std::to_string(i);
            ok = false;
            break;
        }
        if (!harness::codec::decodeTaskResult(line, task, errorOut)) {
            ok = false;
            break;
        }
        if (task.index != i) {
            errorOut = "sharder: slice " + std::to_string(i) +
                       " arrived out of order";
            ok = false;
            break;
        }
        if (!task.ok()) {
            errorOut = "slice " + std::to_string(i) +
                       " failed: " + task.errorText;
            ok = false;
            break;
        }
        if (!onSlice(task, errorOut)) {
            ok = false;
            break;
        }
    }

    for (std::FILE *stream : streams)
        (void)std::fclose(stream);
    std::string reapError;
    if (!reapWorkers(pids, reapError) && ok) {
        errorOut = reapError;
        ok = false;
    }
    return ok;
}

} // namespace avf::serve
