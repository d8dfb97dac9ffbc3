/**
 * @file
 * Wire codec for engine task results — the serve layer's process
 * boundary. A forked worker encodes each finished TaskResult as one
 * line of strict JSON; the parent decodes it with the util/json
 * parser and merges in submission order, exactly as the in-process
 * engine would.
 *
 * Byte-identity contract: every double crosses as
 * json::Writer::exact() (%.17g), which strtod() parses back to the
 * identical bit pattern, so a value that crosses the wire equals the
 * value that did not. The serve sharder leans on this the other way
 * around: it routes EVERY result through the codec — even at one
 * worker process — so the feed bytes are the same at any shard count
 * by construction, not by accident. The write* functions below are
 * shared with the serve checkpoint and feed, which therefore store
 * states, metrics and attribution tables in the same bytes.
 *
 * Deliberately partial: the codec carries the deterministic fields
 * (result payload, estimator states, metrics snapshot, error text)
 * and drops the wall-clock side channel (wallMs/startNs/endNs/worker)
 * and the exception pointer, which cannot cross a process boundary
 * and must never influence deterministic output anyway.
 */

#ifndef AVF_HARNESS_TASK_CODEC_HH
#define AVF_HARNESS_TASK_CODEC_HH

#include <string>
#include <string_view>

#include "harness/engine.hh"
#include "util/json.hh"

namespace avf::harness::codec
{

/** Codec schema tag, first key of every encoded line. */
inline constexpr std::string_view taskCodecVersion = "avf-task-v1";

/** Write @p count doubles as one array of exact() numbers. */
void writeExactDoubles(json::Writer &out, const double *values,
                       std::size_t count);

/**
 * Write @p row's online, softarch, utilization and occupancy members
 * into the open object (task results and feed interval rows).
 */
void writeIntervalMembers(json::Writer &out, const IntervalResult &row);

/**
 * Write one estimator state as a JSON object (fixed key order:
 * name, counters, values, estimates).
 */
void writeEstimatorState(json::Writer &out,
                         const core::EstimatorState &state);

/**
 * Write an attribution snapshot as a JSON object: unit names in
 * registration order, rows as compact 7-number arrays
 * [unit, phase, pc, op, windows, live, failures] in canonical order.
 */
void writeAttributionSnapshot(json::Writer &out,
                              const obs::AttributionSnapshot &attr);

/**
 * Write the members task results and checkpoints end with into the
 * open object: "states" (one writeEstimatorState() object each),
 * then "metrics" and "attribution" when those snapshots are enabled.
 */
void writeSnapshots(json::Writer &out,
                    const std::vector<core::EstimatorState> &states,
                    const obs::MetricsSnapshot &metrics,
                    const obs::AttributionSnapshot &attribution);

/** Read an object writeAttributionSnapshot() wrote; @p out comes
 *  back with enabled = true. Failures go to @p in. */
bool readAttributionSnapshot(const json::Value &value,
                             obs::AttributionSnapshot &out,
                             json::Reader &in);

/** Read the members writeSnapshots() wrote into @p object; a
 *  snapshot that is present comes back with enabled = true. Failures
 *  go to @p in, under its caller's prefix. */
bool readSnapshots(const json::Value &object,
                   std::vector<core::EstimatorState> &states,
                   obs::MetricsSnapshot &metrics,
                   obs::AttributionSnapshot &attribution,
                   json::Reader &in);

/**
 * Encode one task as a single line of JSON (no trailing newline).
 * The task's result is encoded in full when ok(); a failed task
 * carries only its error text.
 */
std::string encodeTaskResult(const TaskResult &task);

/**
 * Decode a line produced by encodeTaskResult().
 *
 * @param line one encoded task, without the newline.
 * @param out receives the task on success; unspecified on failure.
 * @param errorOut receives a diagnostic on failure.
 * @return true on success.
 */
bool decodeTaskResult(std::string_view line, TaskResult &out,
                      std::string &errorOut);

} // namespace avf::harness::codec

#endif // AVF_HARNESS_TASK_CODEC_HH
