/**
 * @file
 * Report engine behind the avf-report CLI: loads the exporters'
 * output back in — `avf-metrics-v1` METRICS.json snapshots,
 * trace_event TRACE.json files, and injection-lifecycle JSONL — and
 * renders convergence tables, phase-cost summaries, and campaign
 * diffs. Library (not main.cc) so tests can drive the loaders and
 * malformed-input rejection directly.
 *
 * Error convention: loaders return false and fill an error string;
 * printers return false when the document lacks the data they need.
 * Nothing here calls fatal() — the CLI decides how to die.
 */

#ifndef AVF_REPORT_REPORT_HH
#define AVF_REPORT_REPORT_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/json.hh"

namespace avf::report
{

/**
 * Read a whole file into @p out.
 * @return false with @p error filled when unreadable.
 */
bool readFile(const std::string &path, std::string &out,
              std::string &error);

/**
 * Parse and validate one METRICS.json document: must be JSON, carry
 * `"schema": "avf-metrics-v1"`, a "tasks" array whose entries have
 * "name" and a "metrics" object with the four fixed sections, and a
 * "totals" object. Anything else is rejected with a message naming
 * the offending part — a malformed snapshot must never be summarized
 * as if it were data.
 */
bool loadMetricsDoc(const std::string &text, json::Value &doc,
                    std::string &error);

/**
 * Per-interval convergence table for one task/series: the interval's
 * failure-count AVF, the running mean, and the paper's statistical
 * bound 0.5/sqrt(N) on the estimate's standard deviation (N =
 * injections per interval, recovered from the task's
 * `<prefix>_injections_total` counter). Intervals where the estimate
 * sits outside running-mean ± bound are flagged.
 */
struct ConvergenceRow
{
    std::size_t interval = 0;
    double avf = 0.0;
    double runningMean = 0.0;
    double bound = 0.0;
    bool flagged = false;
};

/**
 * Compute the convergence rows for @p series (e.g. "online_iq_avf")
 * of task @p taskName ("" = first task). @return false with @p error
 * when the task or series is missing or N cannot be recovered.
 */
bool convergenceRows(const json::Value &doc,
                     const std::string &taskName,
                     const std::string &series,
                     std::vector<ConvergenceRow> &rows,
                     std::string &error);

/**
 * Print the full convergence table (one row per interval) plus a
 * closing summary line. @return false (after printing the reason to
 * @p out) when the data is missing.
 */
bool printConvergence(std::ostream &out, const json::Value &doc,
                      const std::string &taskName,
                      const std::string &series);

/**
 * One-line-per-(task, online series) campaign summary: final running
 * AVF, the ± bound, and how many intervals tripped it.
 */
void printSummary(std::ostream &out, const json::Value &doc);

/**
 * Top-N phase costs from a trace_event TRACE.json: every "X" event,
 * aggregated by name, sorted by total duration. @return false when
 * the document has no traceEvents array.
 */
bool printPhases(std::ostream &out, const json::Value &traceDoc,
                 std::size_t topN);

/**
 * Campaign diff: for every counter in either document's "totals",
 * print old, new, and delta (sorted by the first document's order,
 * new-only counters appended).
 */
void printDiff(std::ostream &out, const json::Value &before,
               const json::Value &after);

/**
 * Budget decision trail for one task ("" = first task): the
 * per-interval FIT, projected MTTF, arbitration target, throttle
 * state, and the target's protection coverage, from the budget_* /
 * control_* series the controller recorded, followed by the decision
 * counters. @return false (after printing the reason to @p out) when
 * the task has no budget trail (run with AVF_MTTF_BUDGET_HOURS and
 * AVF_METRICS to produce one).
 */
bool printBudget(std::ostream &out, const json::Value &doc,
                 const std::string &taskName);

/**
 * Summarize an injection-lifecycle JSONL stream (export.hh:
 * writeLifecycleJsonl): records and failure/outcome counts per
 * structure. The stream's leading legend line (the `"legend": true`
 * object naming the hop kinds and outcome strings) is rendered as a
 * "hop kinds:" line; legacy streams without one still parse. @return
 * false with @p error on the first malformed line.
 */
bool printLifecycle(std::ostream &out, const std::string &jsonl,
                    std::string &error);

/**
 * Parse and validate one ROOTCAUSE.json document (export.hh:
 * writeRootCauseJson): must be JSON carrying
 * `"schema": "avf-rootcause-v1"`, a "campaign" string, and an
 * "attribution" object with a "units" string array and a "rows"
 * array whose entries carry string unit/op plus integer
 * phase/pc/windows/live/failures. Anything else is rejected with a
 * message naming the offending part.
 */
bool loadRootCauseDoc(const std::string &text, json::Value &doc,
                      std::string &error);

/**
 * Render the root-cause blame table from a validated ROOTCAUSE.json.
 * @p by selects the grouping: "instruction" (the default — failure
 * rows ranked by blamed (pc, op, unit) identity), "structure" (per
 * blame unit, with windows/live/failure-rate), "opcode" (per blamed
 * opcode class), or "phase" (per campaign-global workload phase
 * bucket). Rows sort by failures descending, canonical key order on
 * ties; @p topN caps the table. With @p jsonOut the same ranking is
 * emitted as one deterministic JSON object (integer counts only, no
 * derived floats) instead of the human table. @return false (after
 * printing the reason to @p out) when @p by names no grouping.
 */
bool printRootCause(std::ostream &out, const json::Value &doc,
                    const std::string &by, std::size_t topN,
                    bool jsonOut);

/**
 * Parse and validate one `avflint --format=json` report: must be
 * strict JSON carrying `"schema": "avflint-v2"`, a "checks" array
 * whose entries have string "id"/"severity" and numeric
 * "findings"/"micros", a "findings" array whose entries carry
 * file/line/check/severity/message, and a boolean "ok". Anything
 * else is rejected with a message naming the offending part.
 */
bool loadLintDoc(const std::string &text, json::Value &doc,
                 std::string &error);

/**
 * Render a validated lint report: the per-check summary with
 * timings, then every finding. With
 * @p github true, each finding is additionally emitted as a GitHub
 * workflow annotation command (`::error`/`::warning
 * file=F,line=N::...`), which the Actions runner turns into inline
 * PR annotations. @return the document's "ok" gate — callers exit
 * nonzero on false.
 */
bool printLintReport(std::ostream &out, const json::Value &doc,
                     bool github);

} // namespace avf::report

#endif // AVF_REPORT_REPORT_HH
