#include "harness/export.hh"

#include <algorithm>
#include <cstdio>

#include "core/structures.hh"
#include "obs/attribution.hh"
#include "obs/lifecycle.hh"
#include "obs/trace_export.hh"
#include "stats/histogram.hh"
#include "trace/instruction.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/timing.hh"

namespace avf::harness
{

namespace
{

std::FILE *
openOrDie(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        fatal("cannot open '%s' for writing", path.c_str());
    return file;
}

/** Flush @p out, close @p file; fatal() if either write failed. */
void
closeOrDie(json::Writer &out, std::FILE *file, const std::string &path)
{
    const bool written = out.finish();
    if (std::fclose(file) != 0 || !written)
        fatal("error closing '%s'", path.c_str());
}

/** A lifecycle-summary histogram (one decimal; no total). */
void
writeHistogram(json::Writer &out, const stats::HistogramSnapshot &hist)
{
    out.startObject()
        .member("lo").fixed(hist.lo, 1)
        .member("hi").fixed(hist.hi, 1)
        .member("bins").startArray();
    for (std::uint64_t bin : hist.bins)
        out.uint(bin);
    out.endArray()
        .member("underflow").uint(hist.underflow)
        .member("overflow").uint(hist.overflow)
        .endObject();
}

} // namespace

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    json::escape(out, text);
    return out;
}

void
writeCsv(const ExperimentResult &result, const std::string &path)
{
    std::FILE *file = openOrDie(path);

    std::fprintf(file, "interval");
    for (int s = 0; s < core::numStructures; ++s) {
        auto name = core::structureName(
            static_cast<core::Structure>(s));
        std::fprintf(file, ",%.*s_online,%.*s_softarch",
                     static_cast<int>(name.size()), name.data(),
                     static_cast<int>(name.size()), name.data());
    }
    std::fprintf(file, ",fxu_util,fpu_util\n");

    for (std::size_t k = 0; k < result.intervals.size(); ++k) {
        const auto &row = result.intervals[k];
        std::fprintf(file, "%zu", k);
        for (int s = 0; s < core::numStructures; ++s)
            std::fprintf(file, ",%.6f,%.6f",
                         row.online[static_cast<std::size_t>(s)],
                         row.softarch[static_cast<std::size_t>(s)]);
        std::fprintf(file, ",%.6f,%.6f\n", row.utilization[0],
                     row.utilization[1]);
    }
    if (std::fclose(file) != 0)
        fatal("error closing '%s'", path.c_str());
}

void
writeJson(const ExperimentResult &result, const std::string &path)
{
    using Layout = json::Writer::Layout;
    std::FILE *file = openOrDie(path);
    json::Writer out(file, json::Writer::Style::Spaced);

    const RunSummary &summary = result.summary;
    out.startObject(Layout::Lines)
        .member("benchmark").text(result.benchmark)
        .member("summary").startObject()
        .member("ipc").fixed(summary.ipc, 4)
        .member("branch_accuracy").fixed(summary.branchAccuracy, 4)
        .member("l1d_miss").fixed(summary.l1dMissRate, 4)
        .member("l2_miss").fixed(summary.l2MissRate, 4)
        .member("cycles").uint(summary.cycles)
        .member("retired").uint(summary.retired)
        .endObject()
        .member("intervals").startArray(Layout::Lines);
    for (std::size_t k = 0; k < result.intervals.size(); ++k) {
        const auto &row = result.intervals[k];
        out.startObject().member("k").uint(k);
        for (int s = 0; s < core::numStructures; ++s) {
            const auto i = static_cast<std::size_t>(s);
            out.member(core::structureName(static_cast<core::Structure>(s)))
                .startObject()
                .member("online").fixed(row.online[i], 6)
                .member("softarch").fixed(row.softarch[i], 6)
                .endObject();
        }
        out.member("util").startObject()
            .member("fxu").fixed(row.utilization[0], 6)
            .member("fpu").fixed(row.utilization[1], 6)
            .endObject()
            .endObject();
    }
    out.endArray();

    if (result.lifecycle.enabled) {
        out.member("lifecycle").startObject(Layout::Lines);
        for (int s = 0; s < core::numStructures; ++s) {
            const auto &sum =
                result.lifecycle.structures[static_cast<std::size_t>(s)];
            out.member(core::structureName(static_cast<core::Structure>(s)))
                .startObject(Layout::Lines)
                .member("closed").uint(sum.closed)
                .member("open_at_end").uint(sum.openAtEnd)
                .member("live").uint(sum.live)
                .member("dropped").uint(sum.dropped)
                .member("outcomes").startObject();
            for (int o = 0; o < obs::numOutcomes; ++o)
                out.member(obs::outcomeName(static_cast<obs::Outcome>(o)))
                    .uint(sum.outcomes[static_cast<std::size_t>(o)]);
            out.endObject().member("hops").startObject();
            for (int h = 0; h < cpu::numErrorHops; ++h)
                out.member(cpu::errorHopName(static_cast<cpu::ErrorHop>(h)))
                    .uint(sum.hopTotals[static_cast<std::size_t>(h)]);
            out.endObject()
                .member("latency").startObject()
                .member("mean").fixed(sum.latencyMean, 4)
                .member("stddev").fixed(sum.latencyStddev, 4)
                .member("min").fixed(sum.latencyMin, 1)
                .member("max").fixed(sum.latencyMax, 1)
                .endObject();
            writeHistogram(out.member("latency_hist"), sum.latencyHist);
            writeHistogram(out.member("hop_count_hist"),
                           sum.hopCountHist);
            out.endObject();
        }
        out.endObject();
    }
    out.endObject().newline();
    closeOrDie(out, file, path);
}

void
writeLifecycleJsonl(const ExperimentResult &result,
                    const std::string &path)
{
    if (!result.lifecycle.enabled)
        fatal("writeLifecycleJsonl('%s'): result has no lifecycle "
              "data (run with lifecycle tracing enabled)",
              path.c_str());

    std::FILE *file = openOrDie(path);
    json::Writer out(file, json::Writer::Style::Spaced);

    // First line: a legend record naming the hop kinds and outcomes
    // the record lines key their objects on, so a reader never has
    // to hard-code the cpu::ErrorHop taxonomy. Readers distinguish
    // it by its "legend" key (record lines have none).
    out.startObject().member("legend").boolean(true)
        .member("hop_kinds").startArray();
    for (int h = 0; h < cpu::numErrorHops; ++h)
        out.text(cpu::errorHopName(static_cast<cpu::ErrorHop>(h)));
    out.endArray().member("outcomes").startArray();
    for (int o = 0; o < obs::numOutcomes; ++o)
        out.text(obs::outcomeName(static_cast<obs::Outcome>(o)));
    out.endArray().endObject().newline();

    for (int s = 0; s < core::numStructures; ++s) {
        const auto &sum =
            result.lifecycle.structures[static_cast<std::size_t>(s)];
        auto name = core::structureName(static_cast<core::Structure>(s));
        for (const auto &rec : sum.records) {
            // Blame identity of failure records ("-"/0 otherwise).
            auto opname =
                rec.blameOp >= 0
                    ? trace::opClassName(
                          static_cast<trace::OpClass>(rec.blameOp))
                    : std::string_view("-");
            out.startObject()
                .member("benchmark").text(result.benchmark)
                .member("structure").text(name)
                .member("lane").sint(rec.lane)
                .member("entry").sint(rec.entry)
                .member("field").sint(rec.field)
                .member("live").boolean(rec.live)
                .member("inject_cycle").uint(rec.injectCycle)
                .member("close_cycle").uint(rec.closeCycle)
                .member("outcome_cycle").uint(rec.outcomeCycle)
                .member("outcome").text(obs::outcomeName(rec.outcome))
                .member("latency").uint(rec.latency())
                .member("blame_pc").uint(rec.blamePc)
                .member("blame_op").text(opname)
                .member("hops").startObject();
            for (int h = 0; h < cpu::numErrorHops; ++h)
                out.member(cpu::errorHopName(static_cast<cpu::ErrorHop>(h)))
                    .uint(rec.hops[static_cast<std::size_t>(h)]);
            out.endObject().endObject().newline();
        }
    }
    closeOrDie(out, file, path);
}

void
writeMetricsJson(const std::string &path, const std::string &campaign,
                 const std::vector<TaskResult> &tasks)
{
    using Layout = json::Writer::Layout;
    std::FILE *file = openOrDie(path);
    json::Writer out(file, json::Writer::Style::Spaced);

    out.startObject(Layout::Lines)
        .member("schema").text(obs::metricsSchemaVersion)
        .member("campaign").text(campaign)
        .member("tasks").startArray(Layout::Lines);
    obs::MetricsSnapshot totals;
    for (const auto &task : tasks) {
        out.startObject()
            .member("name").text(task.name)
            .member("index").uint(task.index)
            .member("ok").boolean(task.ok());
        task.result.metrics.writeJson(out.member("metrics"));
        out.endObject();
        if (task.ok())
            totals.mergeTotals(task.result.metrics);
    }
    out.endArray();
    totals.writeJson(out.member("totals"));
    out.endObject().newline();
    closeOrDie(out, file, path);
}

void
writeTraceJson(const std::string &path, const std::string &campaign,
               const ExperimentEngine &engine,
               const std::vector<TaskResult> &tasks)
{
    obs::TraceWriter trace;
    trace.setProcessName(campaign);

    const unsigned workers = engine.threadCount();
    for (unsigned w = 0; w < workers; ++w)
        trace.setThreadName(w, "worker " + std::to_string(w));
    // A task that ran off the pool (worker -1) gets the lane after
    // the workers'.
    const std::uint32_t otherLane = workers;

    // One span per task on its worker's lane: each task appears once,
    // so `avf-report phases` counts it once.
    double maxWallMs = 0.0;
    for (const auto &task : tasks) {
        if (task.endNs <= task.startNs)
            continue;
        maxWallMs = std::max(maxWallMs, task.wallMs);
        obs::TraceSpan span;
        span.name = task.name;
        span.category = "task";
        span.beginNs = task.startNs;
        span.durNs = task.endNs - task.startNs;
        span.tid = task.worker >= 0
            ? static_cast<std::uint32_t>(task.worker)
            : otherLane;
        span.args = {
            {"index", static_cast<double>(task.index)},
            {"ok", task.ok() ? 1.0 : 0.0},
            {"wall_ms", task.wallMs},
        };
        trace.addSpan(std::move(span));
    }

    const auto pool = engine.poolStats();
    trace.addOtherData("thread_pool", [workers, pool](json::Writer &out) {
        out.startObject()
            .member("workers").uint(workers)
            .member("submitted").uint(pool.submitted)
            .member("executed").uint(pool.executed)
            .member("max_queue_depth").uint(pool.maxQueueDepth)
            .endObject();
    });

    // Task-latency histogram (milliseconds, uniform buckets sized to
    // the slowest task). Wall-clock data: trace side channel only.
    stats::Histogram latency(0.0, maxWallMs > 0 ? maxWallMs * 1.001
                                                : 1.0, 20);
    for (const auto &task : tasks)
        latency.add(task.wallMs);
    trace.addOtherData(
        "task_latency_ms", [snap = latency.snapshot()](json::Writer &out) {
            out.startObject()
                .member("unit").text("ms")
                .member("lo").exact(snap.lo)
                .member("hi").exact(snap.hi)
                .member("bins").startArray();
            for (std::uint64_t bin : snap.bins)
                out.uint(bin);
            out.endArray()
                .member("underflow").uint(snap.underflow)
                .member("overflow").uint(snap.overflow)
                .endObject();
        });

    std::FILE *file = openOrDie(path);
    json::Writer out(file, json::Writer::Style::Spaced);
    trace.writeJson(out);
    out.newline();
    closeOrDie(out, file, path);
}

void
writeRootCauseJson(const std::string &path,
                   const std::string &campaign,
                   const std::vector<TaskResult> &tasks)
{
    // Submission-order fold, like writeMetricsJson's totals: the
    // bytes are identical at any worker count by construction.
    obs::AttributionSnapshot totals;
    for (const auto &task : tasks) {
        if (task.ok())
            totals.mergeFrom(task.result.attribution);
    }
    if (!totals.enabled)
        fatal("writeRootCauseJson('%s'): no task carries attribution "
              "data (run with attribution enabled)",
              path.c_str());

    std::FILE *file = openOrDie(path);
    json::Writer out(file, json::Writer::Style::Spaced);
    out.startObject(json::Writer::Layout::Lines)
        .member("schema").text(obs::rootCauseSchemaVersion)
        .member("campaign").text(campaign);
    totals.writeJson(out.member("attribution"));
    out.endObject().newline();
    closeOrDie(out, file, path);
}

bool
exportCampaignRootCause(const std::string &campaign,
                        const ExperimentEngine &engine,
                        const std::vector<TaskResult> &tasks)
{
    const std::string &prefix = engine.options().metricsPrefix;
    if (prefix.empty())
        return false;
    const std::string path = prefix + "_ROOTCAUSE.json";
    writeRootCauseJson(path, campaign, tasks);
    // stderr, not stdout: campaign stdout is byte-compared.
    inform("root-cause: wrote %s", path.c_str());
    return true;
}

bool
exportCampaignMetrics(const std::string &campaign,
                      const ExperimentEngine &engine,
                      const std::vector<TaskResult> &tasks)
{
    const std::string &prefix = engine.options().metricsPrefix;
    if (prefix.empty())
        return false;
    const std::string metricsPath = prefix + "_METRICS.json";
    const std::string tracePath = prefix + "_TRACE.json";
    writeMetricsJson(metricsPath, campaign, tasks);
    writeTraceJson(tracePath, campaign, engine, tasks);
    // stderr, not stdout: campaign stdout is byte-compared.
    inform("metrics: wrote %s and %s", metricsPath.c_str(),
           tracePath.c_str());
    return true;
}

void
exportCampaign(const std::string &campaign,
               const ExperimentEngine &engine,
               const std::vector<TaskResult> &tasks)
{
    exportCampaignMetrics(campaign, engine, tasks);
    if (std::any_of(tasks.begin(), tasks.end(), [](const auto &task) {
            return task.result.attribution.enabled;
        }))
        exportCampaignRootCause(campaign, engine, tasks);
    for (const auto &task : tasks) {
        if (!task.result.lifecycle.enabled)
            continue;
        const std::string path =
            campaign + "_" + task.name + "_lifecycle.jsonl";
        writeLifecycleJsonl(task.result, path);
        inform("lifecycle: wrote %s", path.c_str());
    }
}

void
writeGnuplotScript(const std::string &csvPath,
                   const std::string &scriptPath,
                   const std::string &title)
{
    std::FILE *file = openOrDie(scriptPath);
    // One panel per structure, from the same enum walk writeCsv()
    // uses for its header — names, column indices, and panel count
    // all stay in lockstep when core::Structure grows.
    const int rows = (core::numStructures + 1) / 2;
    std::fprintf(file,
                 "set datafile separator ','\n"
                 "set key outside\n"
                 "set xlabel 'estimation interval (1M cycles)'\n"
                 "set ylabel 'AVF'\n"
                 "set yrange [0:0.6]\n"
                 "set terminal pngcairo size 1200,%d\n"
                 "set output '%s_avf.png'\n"
                 "set multiplot layout %d,2 title 'AVF for %s "
                 "(Figure 4 style)'\n",
                 400 * rows, title.c_str(), rows, title.c_str());
    // Columns: 1=interval, then an online/softarch pair per structure
    // in enum order (writeCsv's layout).
    for (int s = 0; s < core::numStructures; ++s) {
        auto name = core::structureName(
            static_cast<core::Structure>(s));
        int online_col = 2 + 2 * s;
        int softarch_col = online_col + 1;
        std::fprintf(file,
                     "set title '%.*s'\n"
                     "plot '%s' every ::1 using 1:%d with lines "
                     "title 'Real (SoftArch)', \\\n"
                     "     '%s' every ::1 using 1:%d with lines "
                     "title 'Online estimate'\n",
                     static_cast<int>(name.size()), name.data(),
                     csvPath.c_str(), softarch_col,
                     csvPath.c_str(), online_col);
    }
    std::fprintf(file, "unset multiplot\n");
    if (std::fclose(file) != 0)
        fatal("error closing '%s'", scriptPath.c_str());
}

} // namespace avf::harness
