/**
 * @file
 * Machine-readable exports of experiment results: CSV for
 * spreadsheets, JSON for scripts (all written through json::Writer
 * in Spaced style), and gnuplot command files that re-plot the
 * paper's figures from the emitted data.
 */

#ifndef AVF_HARNESS_EXPORT_HH
#define AVF_HARNESS_EXPORT_HH

#include <string>
#include <string_view>
#include <vector>

#include "harness/engine.hh"
#include "harness/experiment.hh"

namespace avf::harness
{

/**
 * json::escape() into a new string. Kept only for the bench/e2e
 * harness; new code writes through json::Writer.
 */
std::string jsonEscape(std::string_view text);

/**
 * Write the per-interval series as CSV with the header
 * `interval,<struct>_online,<struct>_softarch,...,fxu_util,fpu_util`.
 * fatal() on I/O errors.
 */
void writeCsv(const ExperimentResult &result, const std::string &path);

/**
 * Write the full result (benchmark, summary, per-interval series, and
 * — when tracing was enabled — the per-structure lifecycle summary)
 * as a single JSON object. fatal() on I/O errors.
 */
void writeJson(const ExperimentResult &result,
               const std::string &path);

/**
 * Write the retained injection-lifecycle records as JSON Lines: one
 * object per record (structure, entry/field, liveness, cycles,
 * outcome, per-kind hop counts), ordered by structure then injection
 * cycle. Requires a result produced with lifecycle tracing enabled;
 * fatal() otherwise and on I/O errors.
 */
void writeLifecycleJsonl(const ExperimentResult &result,
                         const std::string &path);

/**
 * Write a gnuplot script that plots the Figure 4-style AVF traces
 * from a CSV produced by writeCsv().
 *
 * @param csvPath path the script will read.
 * @param scriptPath where to write the script.
 * @param title plot title (benchmark name).
 */
void writeGnuplotScript(const std::string &csvPath,
                        const std::string &scriptPath,
                        const std::string &title);

/**
 * Write a campaign's metrics snapshots as one `avf-metrics-v1` JSON
 * document: a "tasks" array (one entry per TaskResult, submission
 * order, each with its MetricsSnapshot) plus a "totals" object
 * folding every task's counters and histograms. Deterministic by
 * construction — snapshots contain no wall-clock data — so the bytes
 * are identical at any worker count. fatal() on I/O errors.
 */
void writeMetricsJson(const std::string &path,
                      const std::string &campaign,
                      const std::vector<TaskResult> &tasks);

/**
 * Write a campaign's root-cause attribution tables as one
 * `avf-rootcause-v1` JSON document: the submission-order fold of
 * every task's AttributionSnapshot (obs/attribution.hh), so the
 * bytes are identical at any worker count. fatal() when no task
 * carries attribution data and on I/O errors.
 */
void writeRootCauseJson(const std::string &path,
                        const std::string &campaign,
                        const std::vector<TaskResult> &tasks);

/**
 * Companion to exportCampaignMetrics() for attribution campaigns:
 * when the engine was built with a RunOptions::metricsPrefix
 * (AVF_METRICS), write <prefix>_ROOTCAUSE.json and report the path
 * on stderr. fatal() when no task carries attribution data.
 *
 * @return true when the file was written, false when metrics are off.
 */
bool exportCampaignRootCause(const std::string &campaign,
                             const ExperimentEngine &engine,
                             const std::vector<TaskResult> &tasks);

/**
 * Write the campaign's wall-clock story as Chrome/Perfetto
 * trace_event JSON (obs/trace_export.hh): one "X" span per task on
 * its worker's lane and pool/task-latency summaries
 * under "otherData". Everything here is timing-dependent — this file
 * is never byte-compared. fatal() on I/O errors.
 */
void writeTraceJson(const std::string &path,
                    const std::string &campaign,
                    const ExperimentEngine &engine,
                    const std::vector<TaskResult> &tasks);

/**
 * When the engine was built with a RunOptions::metricsPrefix
 * (AVF_METRICS), write <prefix>_METRICS.json and <prefix>_TRACE.json
 * for this campaign and report the paths on stderr.
 *
 * @return true when files were written, false when metrics are off.
 */
bool exportCampaignMetrics(const std::string &campaign,
                           const ExperimentEngine &engine,
                           const std::vector<TaskResult> &tasks);

/**
 * The export step every campaign bench ends with, after
 * collectOrDie(): write whatever the engine's options and the tasks
 * ask for, reporting each path on stderr —
 *
 *  - <prefix>_METRICS.json and <prefix>_TRACE.json when AVF_METRICS
 *    set a prefix (exportCampaignMetrics);
 *  - <prefix>_ROOTCAUSE.json as well when any task carries
 *    attribution (exportCampaignRootCause);
 *  - <campaign>_<task>_lifecycle.jsonl in the working directory for
 *    every task that ran with lifecycle tracing (writeLifecycleJsonl).
 *
 * Every file is deterministic but TRACE.json, and campaign stdout is
 * untouched, so the export knobs stay passive.
 */
void exportCampaign(const std::string &campaign,
                    const ExperimentEngine &engine,
                    const std::vector<TaskResult> &tasks);

} // namespace avf::harness

#endif // AVF_HARNESS_EXPORT_HH
