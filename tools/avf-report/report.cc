#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <tuple>
#include <utility>

#include "core/structures.hh"
#include "obs/metrics.hh"

namespace avf::report
{

namespace
{

/** Printf-style line straight into an ostream. */
template <typename... Args>
void
line(std::ostream &out, const char *fmt, Args... args)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out << buf;
}

/** The four fixed sections every metrics object must carry. */
constexpr const char *metricsSections[] = {"counters", "gauges",
                                           "histograms", "series"};

bool
validMetricsObject(const json::Value &metrics, std::string &error,
                   const std::string &where)
{
    if (!metrics.isObject()) {
        error = where + ": \"metrics\" is not an object";
        return false;
    }
    for (const char *section : metricsSections) {
        if (!metrics.find(section, json::Value::Kind::Object)) {
            error = where + ": missing \"" + section + "\" section";
            return false;
        }
    }
    return true;
}

const json::Value *
findTask(const json::Value &doc, const std::string &taskName)
{
    const auto *tasks = doc.find("tasks", json::Value::Kind::Array);
    if (!tasks || tasks->items.empty())
        return nullptr;
    if (taskName.empty())
        return &tasks->items.front();
    for (const auto &task : tasks->items) {
        const auto *name = task.find("name",
                                     json::Value::Kind::String);
        if (name && name->text == taskName)
            return &task;
    }
    return nullptr;
}

/** "online_iq_avf" -> "online_iq_injections_total". */
std::string
injectionsCounterFor(const std::string &series)
{
    const std::string suffix = "_avf";
    if (series.size() > suffix.size() &&
        series.compare(series.size() - suffix.size(), suffix.size(),
                       suffix) == 0)
        return series.substr(0, series.size() - suffix.size()) +
               "_injections_total";
    return series + "_injections_total";
}

} // namespace

bool
readFile(const std::string &path, std::string &out,
         std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
        error = "error reading '" + path + "'";
        return false;
    }
    out = buf.str();
    return true;
}

bool
loadMetricsDoc(const std::string &text, json::Value &doc,
               std::string &error)
{
    if (!json::parse(text, doc, error)) {
        error = "not valid JSON: " + error;
        return false;
    }
    if (!doc.isObject()) {
        error = "document is not a JSON object";
        return false;
    }
    const auto *schema = doc.find("schema", json::Value::Kind::String);
    if (!schema) {
        error = "missing \"schema\" string";
        return false;
    }
    if (schema->text != obs::metricsSchemaVersion) {
        error = "unsupported schema '" + schema->text +
                "' (expected '" +
                std::string(obs::metricsSchemaVersion) + "')";
        return false;
    }
    const auto *tasks = doc.find("tasks", json::Value::Kind::Array);
    if (!tasks) {
        error = "missing \"tasks\" array";
        return false;
    }
    for (std::size_t i = 0; i < tasks->items.size(); ++i) {
        const auto &task = tasks->items[i];
        const std::string where = "task " + std::to_string(i);
        if (!task.isObject()) {
            error = where + ": not an object";
            return false;
        }
        if (!task.find("name", json::Value::Kind::String)) {
            error = where + ": missing \"name\"";
            return false;
        }
        const auto *metrics = task.find("metrics");
        if (!metrics) {
            error = where + ": missing \"metrics\"";
            return false;
        }
        if (!validMetricsObject(*metrics, error, where))
            return false;
    }
    const auto *totals = doc.find("totals");
    if (!totals) {
        error = "missing \"totals\" object";
        return false;
    }
    if (!validMetricsObject(*totals, error, "totals"))
        return false;
    return true;
}

bool
convergenceRows(const json::Value &doc, const std::string &taskName,
                const std::string &series,
                std::vector<ConvergenceRow> &rows, std::string &error)
{
    rows.clear();
    const auto *task = findTask(doc, taskName);
    if (!task) {
        error = taskName.empty()
            ? std::string("document has no tasks")
            : "no task named '" + taskName + "'";
        return false;
    }
    const auto *metrics = task->find("metrics");
    const auto *all = metrics
        ? metrics->find("series", json::Value::Kind::Object)
        : nullptr;
    const auto *values = all
        ? all->find(series, json::Value::Kind::Array)
        : nullptr;
    if (!values) {
        error = "no series '" + series + "' in task";
        return false;
    }
    if (values->items.empty()) {
        error = "series '" + series + "' is empty";
        return false;
    }

    const auto *counters = metrics->find("counters",
                                         json::Value::Kind::Object);
    const std::string counterName = injectionsCounterFor(series);
    const auto *injections = counters
        ? counters->find(counterName)
        : nullptr;
    if (!injections || !injections->isNumber()) {
        error = "no counter '" + counterName +
                "' to recover N from";
        return false;
    }
    const double n = injections->asDouble() /
        static_cast<double>(values->items.size());
    if (n <= 0.0) {
        error = "counter '" + counterName + "' is zero";
        return false;
    }
    // The paper's accuracy result (Section 3.4): the estimate's
    // standard deviation is bounded by 0.5/sqrt(N) regardless of the
    // true AVF.
    const double bound = 0.5 / std::sqrt(n);

    double sum = 0.0;
    for (std::size_t k = 0; k < values->items.size(); ++k) {
        ConvergenceRow row;
        row.interval = k;
        row.avf = values->items[k].asDouble();
        sum += row.avf;
        row.runningMean = sum / static_cast<double>(k + 1);
        row.bound = bound;
        row.flagged = std::fabs(row.avf - row.runningMean) > bound;
        rows.push_back(row);
    }
    return true;
}

bool
printConvergence(std::ostream &out, const json::Value &doc,
                 const std::string &taskName,
                 const std::string &series)
{
    std::vector<ConvergenceRow> rows;
    std::string error;
    if (!convergenceRows(doc, taskName, series, rows, error)) {
        out << "convergence: " << error << "\n";
        return false;
    }
    const auto *task = findTask(doc, taskName);
    const auto *name = task->find("name", json::Value::Kind::String);
    line(out, "convergence of %s for task '%s' (bound +-%.4f)\n",
         series.c_str(), name->text.c_str(), rows.front().bound);
    line(out, "%8s  %8s  %8s  %s\n", "interval", "avf", "running",
         "flag");
    std::size_t flagged = 0;
    for (const auto &row : rows) {
        line(out, "%8zu  %8.4f  %8.4f  %s\n", row.interval, row.avf,
             row.runningMean, row.flagged ? "OUT" : "");
        flagged += row.flagged ? 1u : 0u;
    }
    line(out,
         "%zu intervals, final AVF %.4f +- %.4f, %zu outside the "
         "0.5/sqrt(N) bound\n",
         rows.size(), rows.back().runningMean, rows.back().bound,
         flagged);
    return true;
}

void
printSummary(std::ostream &out, const json::Value &doc)
{
    const auto *campaign = doc.find("campaign",
                                    json::Value::Kind::String);
    if (campaign)
        line(out, "campaign: %s\n", campaign->text.c_str());
    line(out, "%-16s %-20s %9s %8s %8s %8s\n", "task", "series",
         "intervals", "avf", "bound", "outside");

    const auto *tasks = doc.find("tasks", json::Value::Kind::Array);
    for (const auto &task : tasks->items) {
        const auto *name = task.find("name",
                                     json::Value::Kind::String);
        const auto *metrics = task.find("metrics");
        const auto *all = metrics
            ? metrics->find("series", json::Value::Kind::Object)
            : nullptr;
        if (!name || !all)
            continue;
        for (const auto &[seriesName, unused] : all->members) {
            if (seriesName.rfind("online_", 0) != 0)
                continue;
            std::vector<ConvergenceRow> rows;
            std::string error;
            if (!convergenceRows(doc, name->text, seriesName, rows,
                                 error))
                continue;
            std::size_t flagged = 0;
            for (const auto &row : rows)
                flagged += row.flagged ? 1u : 0u;
            line(out, "%-16s %-20s %9zu %8.4f %8.4f %8zu\n",
                 name->text.c_str(), seriesName.c_str(), rows.size(),
                 rows.back().runningMean, rows.back().bound, flagged);
        }
    }
}

bool
printPhases(std::ostream &out, const json::Value &traceDoc,
            std::size_t topN)
{
    const auto *events = traceDoc.find("traceEvents",
                                       json::Value::Kind::Array);
    if (!events) {
        out << "phases: no traceEvents array (not a trace_event "
               "file?)\n";
        return false;
    }
    // Aggregate "X" (complete) events by name.
    std::vector<std::pair<std::string, std::pair<double, std::uint64_t>>>
        totals;
    for (const auto &event : events->items) {
        const auto *ph = event.find("ph", json::Value::Kind::String);
        const auto *name = event.find("name",
                                      json::Value::Kind::String);
        const auto *dur = event.find("dur");
        if (!ph || ph->text != "X" || !name || !dur ||
            !dur->isNumber())
            continue;
        bool found = false;
        for (auto &[n, agg] : totals) {
            if (n == name->text) {
                agg.first += dur->asDouble();
                ++agg.second;
                found = true;
                break;
            }
        }
        if (!found)
            totals.emplace_back(name->text,
                                std::make_pair(dur->asDouble(),
                                               std::uint64_t{1}));
    }
    std::stable_sort(totals.begin(), totals.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.first > b.second.first;
                     });
    line(out, "%-28s %10s %8s\n", "phase", "total_ms", "count");
    for (std::size_t i = 0; i < totals.size() && i < topN; ++i)
        line(out, "%-28s %10.3f %8llu\n", totals[i].first.c_str(),
             totals[i].second.first / 1000.0,
             static_cast<unsigned long long>(totals[i].second.second));
    return true;
}

void
printDiff(std::ostream &out, const json::Value &before,
          const json::Value &after)
{
    const auto *ca = before.find("totals")->find(
        "counters", json::Value::Kind::Object);
    const auto *cb = after.find("totals")->find(
        "counters", json::Value::Kind::Object);
    line(out, "%-36s %14s %14s %14s\n", "counter", "before", "after",
         "delta");
    auto row = [&](const std::string &name, double a, double b) {
        line(out, "%-36s %14.0f %14.0f %+14.0f\n", name.c_str(), a, b,
             b - a);
    };
    for (const auto &[name, value] : ca->members) {
        const auto *other = cb->find(name);
        row(name, value.asDouble(),
            other && other->isNumber() ? other->asDouble() : 0.0);
    }
    for (const auto &[name, value] : cb->members)
        if (!ca->find(name))
            row(name, 0.0, value.asDouble());
}

bool
printBudget(std::ostream &out, const json::Value &doc,
            const std::string &taskName)
{
    const auto *task = findTask(doc, taskName);
    if (!task) {
        out << "budget: "
            << (taskName.empty()
                    ? std::string("document has no tasks")
                    : "no task named '" + taskName + "'")
            << "\n";
        return false;
    }
    const auto *name = task->find("name", json::Value::Kind::String);
    const auto *metrics = task->find("metrics");
    const auto *series = metrics
        ? metrics->find("series", json::Value::Kind::Object)
        : nullptr;
    const auto *gauges = metrics
        ? metrics->find("gauges", json::Value::Kind::Object)
        : nullptr;
    const auto *counters = metrics
        ? metrics->find("counters", json::Value::Kind::Object)
        : nullptr;
    auto arr = [&](const std::string &n) {
        return series ? series->find(n, json::Value::Kind::Array)
                      : nullptr;
    };
    const auto *fit = arr("budget_fit_total");
    const auto *mttf = arr("budget_projected_mttf_hours");
    const auto *target = arr("budget_target_structure");
    const auto *engagedTrail = arr("control_engaged");
    if (!fit || !mttf || !target || !engagedTrail) {
        out << "budget: task '" << (name ? name->text : "")
            << "' has no budget decision trail (produce one with "
               "AVF_MTTF_BUDGET_HOURS and AVF_METRICS)\n";
        return false;
    }

    double budgetHours = 0.0;
    const auto *budgetGauge = gauges
        ? gauges->find("budget_mttf_hours")
        : nullptr;
    if (budgetGauge && budgetGauge->isNumber())
        budgetHours = budgetGauge->asDouble();
    double latency = 0.0;
    const auto *latencyGauge = gauges
        ? gauges->find("control_report_latency_cycles")
        : nullptr;
    if (latencyGauge && latencyGauge->isNumber())
        latency = latencyGauge->asDouble();

    line(out,
         "budget trail for task '%s': MTTF budget %.4g h "
         "(goal %.4f FIT), report latency %.0f cycles\n",
         name ? name->text.c_str() : "", budgetHours,
         budgetHours > 0.0 ? 1e9 / budgetHours : 0.0, latency);
    line(out, "%8s %12s %14s %6s %7s %8s\n", "interval", "fit",
         "mttf_hours", "target", "engaged", "coverage");

    std::size_t rows = std::min(
        {fit->items.size(), mttf->items.size(), target->items.size(),
         engagedTrail->items.size()});
    for (std::size_t k = 0; k < rows; ++k) {
        int targetIndex = static_cast<int>(
            target->items[k].asDouble());
        std::string targetName = "?";
        double coverage = 0.0;
        if (targetIndex >= 0 && targetIndex < core::numStructures) {
            targetName = std::string(core::structureName(
                static_cast<core::Structure>(targetIndex)));
            const auto *cover =
                arr("control_coverage_" + targetName);
            if (cover && k < cover->items.size())
                coverage = cover->items[k].asDouble();
        }
        bool engaged = engagedTrail->items[k].asDouble() != 0.0;
        line(out, "%8zu %12.4f %14.4g %6s %7s %8.4f\n", k,
             fit->items[k].asDouble(), mttf->items[k].asDouble(),
             targetName.c_str(), engaged ? "ON" : "", coverage);
    }

    auto counter = [&](const char *n) -> double {
        const auto *c = counters ? counters->find(n) : nullptr;
        return c && c->isNumber() ? c->asDouble() : 0.0;
    };
    line(out,
         "%zu intervals: %.0f over budget, %.0f throttled, "
         "%.0f engagements, %.0f actuations, %.0f protect actions\n",
         rows, counter("budget_exceeded_intervals_total"),
         counter("control_throttled_intervals_total"),
         counter("control_engagements_total"),
         counter("control_actuations_total"),
         counter("control_protect_actions_total"));
    return true;
}

bool
printLifecycle(std::ostream &out, const std::string &jsonl,
               std::string &error)
{
    struct Agg
    {
        std::uint64_t records = 0;
        std::map<std::string, std::uint64_t> outcomes;
    };
    // Keyed by (structure, lane): lane-parallel campaigns interleave
    // up to 64 windows per structure and the per-lane split is what
    // makes their records auditable. Exports predating the lane tag
    // lack the key; those records group under lane -1 (shown as "-").
    std::map<std::pair<std::string, int>, Agg> perGroup;

    std::size_t lineNo = 0;
    std::istringstream in(jsonl);
    std::string text;
    while (std::getline(in, text)) {
        ++lineNo;
        if (text.empty())
            continue;
        json::Value rec;
        std::string parseError;
        if (!json::parse(text, rec, parseError)) {
            error = "line " + std::to_string(lineNo) + ": " +
                    parseError;
            return false;
        }
        if (rec.find("legend")) {
            // writeLifecycleJsonl's first line names the hop kinds
            // and outcome strings instead of carrying a record.
            const auto *hopKinds =
                rec.find("hop_kinds", json::Value::Kind::Array);
            if (lineNo != 1 || !hopKinds) {
                error = "line " + std::to_string(lineNo) +
                        ": unexpected legend line";
                return false;
            }
            std::string kinds;
            for (const auto &kind : hopKinds->items) {
                if (!kind.isString()) {
                    error = "line 1: legend hop_kinds entry is not "
                            "a string";
                    return false;
                }
                if (!kinds.empty())
                    kinds += ", ";
                kinds += kind.text;
            }
            line(out, "hop kinds: %s\n", kinds.c_str());
            continue;
        }
        const auto *structure = rec.find("structure",
                                         json::Value::Kind::String);
        const auto *outcome = rec.find("outcome",
                                       json::Value::Kind::String);
        if (!structure || !outcome) {
            error = "line " + std::to_string(lineNo) +
                    ": record lacks structure/outcome";
            return false;
        }
        const auto *lane = rec.find("lane");
        int laneId = lane && lane->isNumber()
                         ? static_cast<int>(lane->asDouble())
                         : -1;
        auto &agg = perGroup[{structure->text, laneId}];
        ++agg.records;
        ++agg.outcomes[outcome->text];
    }

    line(out, "%-10s %4s %8s  %s\n", "structure", "lane", "records",
         "outcomes");
    for (const auto &[key, agg] : perGroup) {
        std::string outcomes;
        for (const auto &[outcome, count] : agg.outcomes) {
            if (!outcomes.empty())
                outcomes += ", ";
            outcomes += outcome + "=" + std::to_string(count);
        }
        std::string laneText =
            key.second < 0 ? "-" : std::to_string(key.second);
        line(out, "%-10s %4s %8llu  %s\n", key.first.c_str(),
             laneText.c_str(),
             static_cast<unsigned long long>(agg.records),
             outcomes.c_str());
    }
    return true;
}

bool
loadRootCauseDoc(const std::string &text, json::Value &doc,
                 std::string &error)
{
    if (!json::parse(text, doc, error)) {
        error = "not valid JSON: " + error;
        return false;
    }
    if (!doc.isObject()) {
        error = "document is not a JSON object";
        return false;
    }
    const auto *schema = doc.find("schema", json::Value::Kind::String);
    if (!schema) {
        error = "missing \"schema\" string";
        return false;
    }
    if (schema->text != "avf-rootcause-v1") {
        error = "unsupported schema '" + schema->text +
                "' (expected 'avf-rootcause-v1')";
        return false;
    }
    if (!doc.find("campaign", json::Value::Kind::String)) {
        error = "missing \"campaign\" string";
        return false;
    }
    const auto *attribution =
        doc.find("attribution", json::Value::Kind::Object);
    if (!attribution) {
        error = "missing \"attribution\" object";
        return false;
    }
    const auto *units =
        attribution->find("units", json::Value::Kind::Array);
    if (!units) {
        error = "attribution lacks a \"units\" array";
        return false;
    }
    for (const auto &unit : units->items) {
        if (!unit.isString()) {
            error = "\"units\" entry is not a string";
            return false;
        }
    }
    const auto *rows =
        attribution->find("rows", json::Value::Kind::Array);
    if (!rows) {
        error = "attribution lacks a \"rows\" array";
        return false;
    }
    for (std::size_t i = 0; i < rows->items.size(); ++i) {
        const auto &row = rows->items[i];
        const std::string where = "row " + std::to_string(i);
        if (!row.isObject()) {
            error = where + ": not an object";
            return false;
        }
        if (!row.find("unit", json::Value::Kind::String) ||
            !row.find("op", json::Value::Kind::String)) {
            error = where + ": missing \"unit\"/\"op\" strings";
            return false;
        }
        for (const char *key :
             {"phase", "pc", "windows", "live", "failures"}) {
            const auto *value = row.find(key);
            if (!value || value->kind != json::Value::Kind::Uint) {
                error = where + ": missing integer \"" +
                        std::string(key) + "\"";
                return false;
            }
        }
    }
    return true;
}

bool
printRootCause(std::ostream &out, const json::Value &doc,
               const std::string &by, std::size_t topN, bool jsonOut)
{
    if (by != "instruction" && by != "structure" && by != "opcode" &&
        by != "phase") {
        out << "unknown --by grouping '" << by
            << "' (expected instruction, structure, opcode, or "
               "phase)\n";
        return false;
    }

    const std::string &campaign =
        doc.find("campaign", json::Value::Kind::String)->text;
    const auto *rowsValue =
        doc.find("attribution", json::Value::Kind::Object)
            ->find("rows", json::Value::Kind::Array);

    struct Agg
    {
        std::uint64_t windows = 0;
        std::uint64_t live = 0;
        std::uint64_t failures = 0;
    };
    // One key type covers every grouping; unused members keep their
    // defaults so map order doubles as the deterministic tiebreak.
    using Key = std::tuple<std::uint64_t, std::string, std::string>;
    std::map<Key, Agg> groups;
    Agg total;

    for (const auto &row : rowsValue->items) {
        const std::uint64_t phase = row.find("phase")->asUint();
        const std::uint64_t pc = row.find("pc")->asUint();
        const std::string &unit = row.find("unit")->text;
        const std::string &op = row.find("op")->text;
        const std::uint64_t windows = row.find("windows")->asUint();
        const std::uint64_t live = row.find("live")->asUint();
        const std::uint64_t failures =
            row.find("failures")->asUint();
        total.windows += windows;
        total.live += live;
        total.failures += failures;

        Key key;
        if (by == "instruction") {
            if (pc == 0)
                continue; // masked mass has no blamed instruction
            key = {pc, op, unit};
        } else if (by == "structure") {
            key = {0, unit, ""};
        } else if (by == "opcode") {
            if (op == "-")
                continue;
            key = {0, op, ""};
        } else {
            key = {phase, "", ""};
        }
        Agg &agg = groups[key];
        agg.windows += windows;
        agg.live += live;
        agg.failures += failures;
    }

    std::vector<std::pair<Key, Agg>> ranked(groups.begin(),
                                            groups.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.failures >
                                b.second.failures;
                     });
    if (ranked.size() > topN)
        ranked.resize(topN);

    auto ull = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    auto share = [&](std::uint64_t failures) {
        return total.failures == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(failures) /
                         static_cast<double>(total.failures);
    };

    if (jsonOut) {
        // Integer counts only — derived rates stay out so the bytes
        // are deterministic without a float-formatting contract.
        std::string text;
        json::Writer w(text, json::Writer::Style::Spaced);
        w.startObject()
            .member("schema").text("avf-rootcause-report-v1")
            .member("campaign").text(campaign)
            .member("by").text(by)
            .member("total_windows").uint(total.windows)
            .member("total_live").uint(total.live)
            .member("total_failures").uint(total.failures)
            .member("rows").startArray();
        for (const auto &[key, agg] : ranked) {
            w.startObject();
            if (by == "instruction")
                w.member("pc").uint(std::get<0>(key))
                    .member("op").text(std::get<1>(key))
                    .member("unit").text(std::get<2>(key));
            else if (by == "structure")
                w.member("unit").text(std::get<1>(key));
            else if (by == "opcode")
                w.member("op").text(std::get<1>(key));
            else
                w.member("phase").uint(std::get<0>(key));
            w.member("windows").uint(agg.windows)
                .member("live").uint(agg.live)
                .member("failures").uint(agg.failures)
                .endObject();
        }
        w.endArray().endObject().newline();
        out << text;
        return true;
    }

    line(out,
         "campaign %s: %llu failures over %llu windows "
         "(%llu live injections)\n",
         campaign.c_str(), ull(total.failures), ull(total.windows),
         ull(total.live));
    if (by == "instruction")
        line(out, "%-18s %-10s %-12s %10s %7s\n", "pc", "op", "unit",
             "failures", "share");
    else if (by == "structure")
        line(out, "%-12s %10s %10s %10s %8s %7s\n", "unit",
             "windows", "live", "failures", "rate", "share");
    else if (by == "opcode")
        line(out, "%-10s %10s %7s\n", "op", "failures", "share");
    else
        line(out, "%-8s %10s %10s %7s\n", "phase", "windows",
             "failures", "share");
    for (const auto &[key, agg] : ranked) {
        if (by == "instruction") {
            char pcText[32];
            std::snprintf(pcText, sizeof(pcText), "0x%llx",
                          ull(std::get<0>(key)));
            line(out, "%-18s %-10s %-12s %10llu %6.1f%%\n", pcText,
                 std::get<1>(key).c_str(), std::get<2>(key).c_str(),
                 ull(agg.failures), share(agg.failures));
        } else if (by == "structure") {
            double rate =
                agg.windows == 0
                    ? 0.0
                    : static_cast<double>(agg.failures) /
                          static_cast<double>(agg.windows);
            line(out, "%-12s %10llu %10llu %10llu %8.4f %6.1f%%\n",
                 std::get<1>(key).c_str(), ull(agg.windows),
                 ull(agg.live), ull(agg.failures), rate,
                 share(agg.failures));
        } else if (by == "opcode") {
            line(out, "%-10s %10llu %6.1f%%\n",
                 std::get<1>(key).c_str(), ull(agg.failures),
                 share(agg.failures));
        } else {
            line(out, "%-8llu %10llu %10llu %6.1f%%\n",
                 ull(std::get<0>(key)), ull(agg.windows),
                 ull(agg.failures), share(agg.failures));
        }
    }
    if (ranked.empty())
        out << "(no rows)\n";
    return true;
}

bool
loadLintDoc(const std::string &text, json::Value &doc,
            std::string &error)
{
    if (!json::parse(text, doc, error)) {
        error = "not valid JSON: " + error;
        return false;
    }
    if (!doc.isObject()) {
        error = "document is not a JSON object";
        return false;
    }
    const auto *schema = doc.find("schema", json::Value::Kind::String);
    if (!schema) {
        error = "missing \"schema\" string";
        return false;
    }
    if (schema->text != "avflint-v2") {
        error = "unsupported schema '" + schema->text +
                "' (expected 'avflint-v2')";
        return false;
    }
    const auto *checks = doc.find("checks", json::Value::Kind::Array);
    if (!checks) {
        error = "missing \"checks\" array";
        return false;
    }
    for (std::size_t i = 0; i < checks->items.size(); ++i) {
        const auto &check = checks->items[i];
        const std::string where = "check " + std::to_string(i);
        if (!check.isObject()) {
            error = where + ": not an object";
            return false;
        }
        if (!check.find("id", json::Value::Kind::String) ||
            !check.find("severity", json::Value::Kind::String)) {
            error = where + ": missing \"id\"/\"severity\"";
            return false;
        }
        const auto *count = check.find("findings");
        const auto *micros = check.find("micros");
        if (!count || !count->isNumber() || !micros ||
            !micros->isNumber()) {
            error = where + ": missing numeric "
                            "\"findings\"/\"micros\"";
            return false;
        }
    }
    const auto *findings = doc.find("findings",
                                    json::Value::Kind::Array);
    if (!findings) {
        error = "missing \"findings\" array";
        return false;
    }
    for (std::size_t i = 0; i < findings->items.size(); ++i) {
        const auto &f = findings->items[i];
        const std::string where = "finding " + std::to_string(i);
        if (!f.isObject()) {
            error = where + ": not an object";
            return false;
        }
        if (!f.find("file", json::Value::Kind::String) ||
            !f.find("check", json::Value::Kind::String) ||
            !f.find("severity", json::Value::Kind::String) ||
            !f.find("message", json::Value::Kind::String)) {
            error = where + ": missing "
                            "file/check/severity/message strings";
            return false;
        }
        const auto *lineNo = f.find("line");
        if (!lineNo || !lineNo->isNumber()) {
            error = where + ": missing numeric \"line\"";
            return false;
        }
    }
    if (!doc.find("ok", json::Value::Kind::Bool)) {
        error = "missing boolean \"ok\"";
        return false;
    }
    return true;
}

bool
printLintReport(std::ostream &out, const json::Value &doc,
                bool github)
{
    const auto *files = doc.find("filesScanned");
    const auto *passMicros = doc.find("lexParseMicros");
    line(out, "avflint: %llu files, pass 1 (lex+parse+index) %llu us\n",
         static_cast<unsigned long long>(files ? files->asUint() : 0),
         static_cast<unsigned long long>(
             passMicros ? passMicros->asUint() : 0));

    const auto *checks = doc.find("checks");
    line(out, "%-26s %-5s %8s %8s\n", "check", "sev", "findings",
         "us");
    for (const auto &check : checks->items) {
        line(out, "%-26s %-5s %8llu %8llu\n",
             check.find("id")->text.c_str(),
             check.find("severity")->text.c_str(),
             static_cast<unsigned long long>(
                 check.find("findings")->asUint()),
             static_cast<unsigned long long>(
                 check.find("micros")->asUint()));
    }

    const auto *findings = doc.find("findings");
    for (const auto &f : findings->items) {
        const std::string &file = f.find("file")->text;
        unsigned long long lineNo = f.find("line")->asUint();
        const std::string &check = f.find("check")->text;
        const std::string &message = f.find("message")->text;
        line(out, "%s:%llu: [%s] %s\n", file.c_str(), lineNo,
             check.c_str(), message.c_str());
        if (github) {
            // Workflow-command annotations; the runner renders them
            // inline on the PR diff. Severity maps directly.
            bool isError = f.find("severity")->text == "error";
            line(out, "::%s file=%s,line=%llu::[%s] %s\n",
                 isError ? "error" : "warning", file.c_str(), lineNo,
                 check.c_str(), message.c_str());
        }
    }

    bool ok = doc.find("ok")->boolean;
    line(out, "avflint: %zu finding(s) — %s\n", findings->items.size(),
         ok ? "ok" : "FAIL");
    return ok;
}

} // namespace avf::report
