/**
 * @file
 * avfbench_rep: one repetition of one end-to-end benchmark workload,
 * run by bench/e2e/avfbench.py in a fresh process per rep.
 *
 *   avfbench_rep run|reference|layers --workload W [--seed S]
 *       [--threads T] [--procs P] [--rep K] [--spawn-ns NS]
 *       [--out DIR] [--state DIR] [--serve-bin PATH] [--spans PATH]
 *       [--smoke]
 *
 * Modes:
 *   run        one timed rep of W (the avf-serve daemon, for
 *              serve_stream, is spawned and shut down by the rep);
 *   reference  serve_stream only: the same campaigns computed
 *              in-process, whose feed digest every rep must match;
 *   layers     the layer ladder and the serve probe on W's profiles
 *              and estimator shape (per-layer metrics).
 *
 * --spawn-ns is the launcher's CLOCK_MONOTONIC reading just before it
 * started this process; set-up time is measured from it. --spans
 * turns on span recording and names the trace_event file to write.
 * The result is one JSON object on stdout; exit status 0 means the
 * object was written, whatever it reports.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "ladder.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "serve/sharder.hh"
#include "serve_probe.hh"
#include "spans.hh"
#include "trace/spec_profiles.hh"
#include "util/json.hh"
#include "util/timing.hh"

extern char **environ;

namespace
{

using namespace avf;
using avfbench::MetricList;
using avfbench::ratio;
using avfbench::ScopedSpan;
using avfbench::serveCampaign;
using avfbench::slurp;
using avfbench::SpanLog;
using avfbench::tightBudgetHours;

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    unsigned threads = 1;
    int procs = 1;
    int rep = 0;
    std::uint64_t spawnNs = 0;
    std::string outDir = "build-e2e";
    std::string stateDir;
    std::string serveBin;
    std::string spansPath;
    bool smoke = false;
};

bool
knownWorkload(const std::string &name)
{
    return name == "fig3_paper" || name == "fig3_observed" ||
           name == "ablation_sweep" || name == "serve_stream";
}

/** serve_stream campaigns per rep. */
int
serveCampaigns(const Options &o)
{
    return o.smoke ? 4 : 24;
}

/** The tasks one ExperimentEngine runs, in submission order. */
using Campaign =
    std::vector<std::pair<std::string, harness::ExperimentConfig>>;

/** fig3_paper / fig3_observed: every spec profile at M = N = 1000. */
Campaign
fig3Campaign(int intervals, bool observed)
{
    Campaign c;
    for (const auto &name : trace::specBenchmarkNames()) {
        harness::ExperimentConfig conf;
        conf.profile = trace::specProfile(name);
        conf.numIntervals = intervals;
        conf.lifecycle.enabled = observed;
        conf.attribution.enabled = observed;
        c.emplace_back(name, std::move(conf));
    }
    return c;
}

/**
 * ablation_sweep: the submissions of bench/ablation_m_sweep,
 * ablation_n_sweep and ablation_sampling at their AVF_FAST sizes, one
 * engine each, back to back as scripts/run_all.sh runs them. The
 * smoke size runs every task for one interval.
 */
std::vector<Campaign>
ablationSweeps(bool smoke)
{
    const trace::WorkloadProfile bzip2 = trace::specProfile("bzip2");
    std::vector<Campaign> sweeps(3);
    for (Cycle m : {50, 100, 250, 500, 1000, 2000, 4000}) {
        harness::ExperimentConfig conf;
        conf.profile = bzip2;
        conf.online.m = m;
        conf.numIntervals = smoke ? 1 : 3;
        sweeps[0].emplace_back("M=" + std::to_string(m), conf);
    }
    for (std::uint32_t n : {100, 250, 500, 1000, 2000, 4000}) {
        harness::ExperimentConfig conf;
        conf.profile = bzip2;
        conf.online.n = n;
        // ablation_n_sweep's fast budget of 12M estimator cycles.
        conf.numIntervals =
            smoke ? 1
                  : std::max(3, static_cast<int>(
                                    12'000'000ull /
                                    (conf.online.m *
                                     static_cast<std::uint64_t>(n))));
        sweeps[1].emplace_back("N=" + std::to_string(n), conf);
    }
    for (const char *name : {"bzip2", "swim", "mesa"}) {
        harness::ExperimentConfig conf;
        conf.profile = trace::specProfile(name);
        conf.numIntervals = smoke ? 1 : 4;
        sweeps[2].emplace_back(std::string(name) + ":fixed", conf);
        conf.online.randomizeInjectionTiming = true;
        sweeps[2].emplace_back(std::string(name) + ":randomized", conf);
    }
    return sweeps;
}

/** The engine campaigns of fig3_paper, fig3_observed, ablation_sweep. */
std::vector<Campaign>
campaignsOf(const Options &o)
{
    if (o.workload == "fig3_paper")
        return {fig3Campaign(o.smoke ? 2 : 24, false)};
    if (o.workload == "fig3_observed")
        return {fig3Campaign(o.smoke ? 2 : 16, true)};
    return ablationSweeps(o.smoke);
}

/** splitmix64: the run's seed salt, never zero. */
std::uint64_t
saltOf(std::uint64_t seed)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z ? z : 1;
}

/** FNV-1a over the bytes of a workload's outputs. */
class Digest
{
  public:
    void
    bytes(std::string_view text)
    {
        for (unsigned char c : text) {
            hash ^= c;
            hash *= 0x100000001b3ull;
        }
    }

    void
    number(double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g;", value);
        bytes(buf);
    }

    void
    count(std::uint64_t value)
    {
        bytes(std::to_string(value));
        bytes(";");
    }

    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
        return buf;
    }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ull;
};

/** Digest one experiment's interval rows plus cycles and retired. */
void
digestResult(Digest &d, const harness::ExperimentResult &r)
{
    for (const auto &row : r.intervals) {
        for (double v : row.online)
            d.number(v);
        for (double v : row.softarch)
            d.number(v);
        for (double v : row.utilization)
            d.number(v);
        d.number(row.occupancy);
    }
    d.count(r.summary.cycles);
    d.count(r.summary.retired);
}

double
msBetween(std::uint64_t from, std::uint64_t to)
{
    return static_cast<double>(to - from) * 1e-6;
}

/** Nearest-rank percentile of @p values (unsorted copy taken). */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank ? rank - 1 : 0)];
}

/**
 * Peak resident set of process @p pid ("self" or a number), in KB:
 * VmHWM, not getrusage, which folds a launcher's pre-exec image into
 * ru_maxrss and counts every transient forked worker.
 */
std::uint64_t
peakRssKb(const std::string &pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

/** What one rep measured. */
struct Outcome
{
    std::uint64_t setupNs = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::string digest;
    /** Peak RSS of processes besides this one (the serve daemon). */
    std::uint64_t otherPeakRssKb = 0;
    MetricList metrics;
    std::vector<std::string> errors;
};

/** Task and pool timings of a rep's engine campaigns. */
struct HarnessTimes
{
    std::vector<double> taskMs;
    std::vector<double> waitMs;
    double busyMs = 0.0;
    /** Sum over campaigns of threads x (first submit to collected). */
    double poolMs = 0.0;
};

/**
 * Add one engine campaign to @p times, and spans for the tasks its
 * engine ran on worker threads (children of the collect() span, which
 * waits on them).
 */
void
addCampaign(HarnessTimes &times,
            const std::vector<harness::TaskResult> &tasks,
            const std::vector<std::uint64_t> &submitNs, unsigned threads,
            std::uint64_t collectedNs, SpanLog &spans, int parent)
{
    for (const auto &task : tasks) {
        spans.recordSpan("harness.task", task.startNs, task.endNs,
                         parent, 1 + std::max(0, task.worker));
        times.taskMs.push_back(task.wallMs);
        times.busyMs += task.wallMs;
        if (task.index < submitNs.size())
            times.waitMs.push_back(
                msBetween(submitNs[task.index], task.startNs));
    }
    times.poolMs += static_cast<double>(threads) *
                    msBetween(submitNs.front(), collectedNs);
}

/** The harness metrics: task time, queue wait, busy fraction. */
void
harnessMetrics(const HarnessTimes &times, Outcome &out)
{
    out.metrics.emplace_back("harness.task_ms_p50",
                             percentile(times.taskMs, 0.5));
    out.metrics.emplace_back("harness.task_ms_p99",
                             percentile(times.taskMs, 0.99));
    out.metrics.emplace_back("harness.queue_wait_ms_p50",
                             percentile(times.waitMs, 0.5));
    out.metrics.emplace_back("harness.busy_frac",
                             ratio(times.busyMs, times.poolMs));
}

/** fig3_paper, fig3_observed and ablation_sweep: engine campaigns. */
Outcome
runEngineWorkload(const Options &o, SpanLog &spans)
{
    Outcome out;
    const bool observed = o.workload == "fig3_observed";
    ScopedSpan root(spans, o.workload + ".rep");

    harness::RunOptions ro;
    ro.threads = o.threads;
    ro.seedSalt = saltOf(o.seed);
    if (observed) {
        ro.metricsPrefix = o.outDir + "/fig3_observed";
        ro.mttfBudgetHours = tightBudgetHours;
    }
    std::vector<Campaign> campaigns = campaignsOf(o);
    std::unique_ptr<harness::ExperimentEngine> engine;
    std::vector<harness::TaskResult> tasks;
    HarnessTimes times;
    std::uint64_t first = 0;
    for (auto &campaign : campaigns) {
        {
            ScopedSpan span(spans, "harness.engine_init");
            engine = std::make_unique<harness::ExperimentEngine>(ro);
        }
        std::vector<std::uint64_t> submitNs;
        for (auto &[name, conf] : campaign) {
            ScopedSpan span(spans, "harness.submit");
            submitNs.push_back(timing::steadyNowNs());
            engine->submit(name, std::move(conf));
        }
        if (first == 0) {
            first = submitNs.front();
            out.setupNs = first - o.spawnNs;
        }
        std::vector<harness::TaskResult> done;
        int collectSpan = -1;
        {
            ScopedSpan span(spans, "harness.collect");
            collectSpan = span.spanId();
            done = engine->collect();
        }
        addCampaign(times, done, submitNs, engine->threadCount(),
                    timing::steadyNowNs(), spans, collectSpan);
        for (auto &task : done)
            tasks.push_back(std::move(task));
    }

    // fig3_observed is one campaign, so *engine ran every task.
    std::vector<std::string> exports;
    if (observed) {
        ScopedSpan span(spans, "obs.export");
        harness::exportCampaignMetrics("fig3_observed", *engine, tasks);
        harness::exportCampaignRootCause("fig3_observed", *engine,
                                         tasks);
        exports.push_back(ro.metricsPrefix + "_METRICS.json");
        exports.push_back(ro.metricsPrefix + "_ROOTCAUSE.json");
        for (const auto &task : tasks) {
            if (!task.ok())
                continue;
            exports.push_back(o.outDir + "/fig3_observed_" + task.name +
                              "_lifecycle.jsonl");
            harness::writeLifecycleJsonl(task.result, exports.back());
        }
    }
    out.wallNs = timing::steadyNowNs() - first;

    Digest digest;
    std::uint64_t actuations = 0, lifecycle = 0, attribution = 0;
    for (const auto &task : tasks) {
        ++out.ops;
        if (!task.ok()) {
            ++out.failed;
            out.errors.push_back(task.name + ": " + task.errorText);
            continue;
        }
        digest.bytes(task.name);
        digestResult(digest, task.result);
        out.simCycles += task.result.summary.cycles;
        actuations += task.result.control.actuations;
        lifecycle += task.result.summary.lifecycleRecords;
        attribution += task.result.attribution.rows.size();
    }
    // The deterministic exports are outputs too; TRACE.json is
    // wall-clock data and is left out.
    for (const auto &path : exports)
        digest.bytes(slurp(path));
    out.digest = digest.hex();
    if (observed && (actuations == 0 || lifecycle == 0 ||
                     attribution == 0))
        out.errors.push_back(
            "fig3_observed: expected controller actuations, lifecycle "
            "records and attribution rows, got " +
            std::to_string(actuations) + " / " +
            std::to_string(lifecycle) + " / " +
            std::to_string(attribution));

    harnessMetrics(times, out);
    return out;
}

/** serve_stream campaign @p k of a run salted with @p salt. */
serve::CampaignSpec
streamCampaign(int k, std::uint64_t salt)
{
    char name[16];
    std::snprintf(name, sizeof(name), "c%02d", k);
    return serveCampaign(name, k, salt);
}

/**
 * The avf-serve daemon of one rep. The destructor SIGKILLs and reaps
 * a daemon that was not shut down cleanly, and removes its socket, so
 * no failure path leaves a process or a socket file behind.
 */
class Daemon
{
  public:
    explicit Daemon(std::string stateDir) : paths(std::move(stateDir)) {}

    ~Daemon()
    {
        if (pid > 0) {
            (void)::kill(pid, SIGKILL);
            (void)::waitpid(pid, nullptr, 0);
        }
        (void)::unlink(paths.socketPath().c_str());
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Spawn `avf-serve serve`, logging to the state directory. */
    bool
    start(const std::string &bin, int procs, std::string &error)
    {
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        const std::string log = paths.dir + "/daemon.log";
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        std::string procsArg = std::to_string(procs);
        std::vector<char *> argv = {
            const_cast<char *>(bin.c_str()),
            const_cast<char *>("serve"),
            const_cast<char *>("--dir"),
            const_cast<char *>(paths.dir.c_str()),
            const_cast<char *>("--procs"),
            procsArg.data(),
            nullptr};
        const int rc = ::posix_spawn(&pid, bin.c_str(), &actions,
                                     nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid = -1;
            error = "cannot spawn " + bin + ": " + std::strerror(rc);
            return false;
        }
        return true;
    }

    /** Wait until a status request succeeds. */
    bool
    waitAccepting(std::uint64_t timeoutNs, std::string &error)
    {
        const std::uint64_t deadline =
            timing::steadyNowNs() + timeoutNs;
        std::string response;
        while (true) {
            if (request(statusLine(), response, error))
                return true;
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                error = "avf-serve exited before accepting (status " +
                        std::to_string(status) + ")";
                return false;
            }
            if (timing::steadyNowNs() > deadline) {
                error = "avf-serve not accepting: " + error;
                return false;
            }
            // Short, so the poll adds little to the measured set-up.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }

    bool
    request(const std::string &line, std::string &response,
            std::string &error)
    {
        return serve::sendRequest(paths.dir, line, response, error);
    }

    /** Send shutdown and reap; @return true on a clean exit. */
    bool
    shutdown(std::uint64_t timeoutNs, std::string &error)
    {
        serve::Request req;
        req.op = serve::Request::Op::Shutdown;
        std::string response;
        if (!request(serve::encodeRequest(req), response, error))
            return false;
        const std::uint64_t deadline =
            timing::steadyNowNs() + timeoutNs;
        while (timing::steadyNowNs() < deadline) {
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
                    return true;
                error = "avf-serve exited with status " +
                        std::to_string(status);
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        error = "avf-serve did not exit after shutdown";
        return false;
    }

    /** The daemon's own peak RSS so far (its forked slice workers
     *  are transient and not counted). */
    std::uint64_t
    peakRss() const
    {
        return pid > 0 ? peakRssKb(std::to_string(pid)) : 0;
    }

    static std::string
    statusLine()
    {
        serve::Request req;
        req.op = serve::Request::Op::Status;
        return serve::encodeRequest(req);
    }

    const serve::StatePaths paths;

  private:
    pid_t pid = -1;
};

/** True when @p response lists campaign @p name as complete. */
bool
campaignComplete(const std::string &response, const std::string &name)
{
    json::Value doc;
    std::string error;
    if (!json::parse(response, doc, error))
        return false;
    const json::Value *list =
        doc.find("campaigns", json::Value::Kind::Array);
    if (!list)
        return false;
    for (const auto &entry : list->items) {
        const json::Value *n =
            entry.find("name", json::Value::Kind::String);
        const json::Value *done =
            entry.find("complete", json::Value::Kind::Bool);
        if (n && done && n->text == name)
            return done->boolean;
    }
    return false;
}

/** Digest a campaign feed; adds its summary row's cycles. */
bool
digestFeed(Digest &digest, const std::string &feed,
           std::uint64_t &cycles)
{
    digest.bytes(feed);
    const std::size_t end = feed.find_last_not_of('\n');
    if (end == std::string::npos)
        return false;
    const std::size_t begin = feed.rfind('\n', end);
    json::Value summary;
    std::string error;
    if (!json::parse(std::string_view(feed).substr(
                         begin == std::string::npos ? 0 : begin + 1),
                     summary, error))
        return false;
    const json::Value *c =
        summary.find("cycles", json::Value::Kind::Uint);
    if (!summary.find("summary") || !c)
        return false;
    cycles += c->uintValue;
    return true;
}

/** serve_stream: a closed-loop client of a private avf-serve daemon. */
Outcome
runServeStream(const Options &o, SpanLog &spans)
{
    Outcome out;
    const int campaigns = serveCampaigns(o);
    ScopedSpan root(spans, "serve_stream.rep");
    Daemon daemon(o.stateDir);
    {
        ScopedSpan span(spans, "serve.daemon_start");
        std::string error;
        if (!daemon.start(o.serveBin, o.procs, error) ||
            !daemon.waitAccepting(10'000'000'000ull, error)) {
            out.errors.push_back(error);
            return out;
        }
    }
    const std::uint64_t salt = saltOf(o.seed);
    std::uint64_t first = 0, last = 0;
    for (int k = 0; k < campaigns; ++k) {
        serve::Request req;
        req.op = serve::Request::Op::Submit;
        req.campaign = streamCampaign(k, salt);
        const std::string line = serve::encodeRequest(req);
        std::string ack, status, error;
        ++out.ops;
        const std::uint64_t t0 = timing::steadyNowNs();
        if (k == 0) {
            first = t0;
            out.setupNs = t0 - o.spawnNs;
        }
        bool ok = false;
        {
            ScopedSpan span(spans, "serve.submit");
            ok = daemon.request(line, ack, error) &&
                 ack.rfind("{\"ok\":true", 0) == 0;
        }
        // The daemon is single-threaded: it answers this status
        // request once the campaign it just accepted has finished.
        if (ok) {
            ScopedSpan span(spans, "serve.status");
            ok = daemon.request(Daemon::statusLine(), status, error) &&
                 campaignComplete(status, req.campaign.name);
        }
        last = timing::steadyNowNs();
        if (!ok) {
            ++out.failed;
            out.errors.push_back(req.campaign.name + ": " +
                                 (error.empty() ? ack + status : error));
        }
    }
    out.wallNs = last - first;
    out.otherPeakRssKb = daemon.peakRss();
    {
        ScopedSpan span(spans, "serve.shutdown");
        std::string error;
        if (!daemon.shutdown(10'000'000'000ull, error))
            out.errors.push_back(error);
    }

    Digest digest;
    for (int k = 0; k < campaigns; ++k) {
        const std::string name = streamCampaign(k, salt).name;
        if (!digestFeed(digest, slurp(daemon.paths.feedPath(name)),
                        out.simCycles))
            out.errors.push_back(name + ": feed has no summary row");
    }
    out.digest = digest.hex();
    return out;
}

/**
 * serve_stream's reference: every campaign's feed computed in-process
 * on the engine, the rows written exactly as serve/campaign.cc writes
 * them. Its digest is what each daemon rep must reproduce.
 */
Outcome
runServeReference(const Options &o, SpanLog &spans)
{
    Outcome out;
    const int campaigns = serveCampaigns(o);
    ScopedSpan root(spans, "serve_stream.reference");
    harness::RunOptions ro;
    ro.threads = o.threads;
    harness::ExperimentEngine engine(ro);
    const std::uint64_t salt = saltOf(o.seed);
    std::vector<std::uint64_t> submitNs;
    for (int k = 0; k < campaigns; ++k) {
        const serve::CampaignSpec spec = streamCampaign(k, salt);
        for (std::uint64_t i = 0; i < spec.numSlices(); ++i) {
            ScopedSpan span(spans, "harness.submit");
            submitNs.push_back(timing::steadyNowNs());
            engine.submit(spec.name, serve::makeSliceConfig(spec, i));
        }
    }
    std::vector<harness::TaskResult> tasks;
    int collectSpan = -1;
    {
        ScopedSpan span(spans, "harness.collect");
        collectSpan = span.spanId();
        tasks = engine.collect();
    }
    const std::uint64_t collected = timing::steadyNowNs();
    out.wallNs = collected - submitNs.front();
    HarnessTimes times;
    addCampaign(times, tasks, submitNs, engine.threadCount(), collected,
                spans, collectSpan);

    Digest digest;
    std::size_t t = 0;
    for (int k = 0; k < campaigns; ++k) {
        const serve::CampaignSpec spec = streamCampaign(k, salt);
        std::string feed = serve::feedHeaderLine(spec) + "\n";
        serve::CampaignRollup rollup;
        for (std::uint64_t i = 0; i < spec.numSlices(); ++i, ++t) {
            const auto &task = tasks[t];
            ++out.ops;
            if (!task.ok()) {
                ++out.failed;
                out.errors.push_back(task.name + ": " + task.errorText);
                continue;
            }
            for (std::size_t r = 0; r < task.result.intervals.size();
                 ++r)
                feed += serve::feedIntervalLine(
                            i * static_cast<std::uint64_t>(
                                    spec.sliceIntervals) +
                                r,
                            i, task.result.intervals[r]) +
                        "\n";
            serve::foldSliceIntoRollup(rollup, task);
        }
        feed += serve::feedSummaryLine(rollup) + "\n";
        if (!digestFeed(digest, feed, out.simCycles))
            out.errors.push_back(spec.name + ": bad summary row");
    }
    out.digest = digest.hex();
    harnessMetrics(times, out);
    return out;
}

/** The layer ladder and the serve probe, shaped like the workload. */
Outcome
runLayers(const Options &o, SpanLog &spans)
{
    Outcome out;
    ScopedSpan root(spans, o.workload + ".layers");
    // The fig3 workloads run at the default M = N = 1000, which is
    // also where each ablation sweep holds its other knob.
    avfbench::LadderSpec ladder;
    if (o.workload == "serve_stream") {
        ladder.m = avfbench::serveM;
        ladder.n = avfbench::serveN;
    }
    ladder.seedSalt = saltOf(o.seed);
    ladder.cycles = o.smoke ? 20'000 : 200'000;
    ladder.exportDir = o.outDir;
    avfbench::runLadder(ladder, spans, out.metrics, out.errors);

    avfbench::ServeProbeSpec probe;
    probe.campaigns = o.smoke ? 1 : 2;
    probe.procs = o.procs;
    probe.seedSalt = saltOf(o.seed);
    probe.stateDir = o.stateDir;
    avfbench::runServeProbe(probe, spans, out.metrics, out.errors);
    out.ops = 1;
    out.failed = out.errors.empty() ? 0 : 1;
    return out;
}

void
appendString(std::string &out, std::string_view text)
{
    out += '"';
    out += harness::jsonEscape(text);
    out += '"';
}

void
appendNumber(std::string &out, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out += buf;
}

std::string
toJson(const Outcome &r)
{
    std::string out = "{\"ok\":";
    out += r.errors.empty() && r.failed == 0 ? "true" : "false";
    out += ",\"errors\":[";
    for (std::size_t i = 0; i < r.errors.size(); ++i) {
        if (i)
            out += ',';
        appendString(out, r.errors[i]);
    }
    out += "],\"setup_ns\":" + std::to_string(r.setupNs);
    out += ",\"wall_ns\":" + std::to_string(r.wallNs);
    out += ",\"sim_cycles\":" + std::to_string(r.simCycles);
    out += ",\"ops\":" + std::to_string(r.ops);
    out += ",\"failed\":" + std::to_string(r.failed);
    out += ",\"digest\":";
    appendString(out, r.digest);
    out += ",\"peak_rss_kb\":" +
           std::to_string(
               std::max(r.otherPeakRssKb, peakRssKb("self")));
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        if (i)
            out += ',';
        appendString(out, r.metrics[i].first);
        out += ':';
        appendNumber(out, r.metrics[i].second);
    }
    out += "}}";
    return out;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "avfbench_rep: %s\n"
                 "usage: avfbench_rep run|reference|layers --workload W"
                 " [--seed S] [--threads T] [--procs P] [--rep K]"
                 " [--spawn-ns NS] [--out DIR] [--state DIR]"
                 " [--serve-bin PATH] [--spans PATH] [--smoke]\n",
                 why);
    return 2;
}

/** Strict unsigned parse; false on junk or overflow. */
bool
parseU64(const char *text, std::uint64_t &out)
{
    if (!text || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = value;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &o, std::string &why)
{
    if (argc < 2) {
        why = "missing mode";
        return false;
    }
    o.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc) {
            why = flag + " needs a value";
            return false;
        }
        const char *value = argv[++i];
        std::uint64_t number = 0;
        const bool numeric = parseU64(value, number);
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--out") {
            o.outDir = value;
        } else if (flag == "--state") {
            o.stateDir = value;
        } else if (flag == "--serve-bin") {
            o.serveBin = value;
        } else if (flag == "--spans") {
            o.spansPath = value;
        } else if (flag == "--seed" && numeric) {
            o.seed = number;
        } else if (flag == "--threads" && numeric && number >= 1 &&
                   number <= 256) {
            o.threads = static_cast<unsigned>(number);
        } else if (flag == "--procs" && numeric && number >= 1 &&
                   number <= 64) {
            o.procs = static_cast<int>(number);
        } else if (flag == "--rep" && numeric && number <= 1'000'000) {
            o.rep = static_cast<int>(number);
        } else if (flag == "--spawn-ns" && numeric) {
            o.spawnNs = number;
        } else {
            why = "bad flag or value: " + flag + " " + value;
            return false;
        }
    }
    if (o.mode != "run" && o.mode != "reference" && o.mode != "layers") {
        why = "unknown mode '" + o.mode + "'";
        return false;
    }
    if (!knownWorkload(o.workload)) {
        why = "unknown workload '" + o.workload + "'";
        return false;
    }
    const bool isServe = o.workload == "serve_stream";
    if (o.mode == "reference" && !isServe) {
        why = "reference mode is for serve_stream only";
        return false;
    }
    if ((o.mode == "layers" || (isServe && o.mode == "run")) &&
        o.stateDir.empty()) {
        why = "--state is required";
        return false;
    }
    if (isServe && o.mode == "run" && o.serveBin.empty()) {
        why = "--serve-bin is required";
        return false;
    }
    if (o.spawnNs == 0)
        o.spawnNs = timing::steadyNowNs();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string why;
    if (!parseArgs(argc, argv, o, why))
        return usage(why.c_str());

    SpanLog spans(!o.spansPath.empty());
    Outcome result;
    if (o.mode == "layers")
        result = runLayers(o, spans);
    else if (o.mode == "reference")
        result = runServeReference(o, spans);
    else if (o.workload == "serve_stream")
        result = runServeStream(o, spans);
    else
        result = runEngineWorkload(o, spans);

    if (spans.enabled() && !spans.writeJson(o.spansPath, o.rep))
        result.errors.push_back("cannot write " + o.spansPath);
    std::printf("%s\n", toJson(result).c_str());
    return 0;
}
