/**
 * @file
 * Chrome/Perfetto trace_event exporter: the wall-clock side channel
 * of the metrics layer. Everything timing-dependent — task spans,
 * worker/thread attribution — is emitted here and ONLY here, so the
 * deterministic METRICS.json snapshot stays byte-identical across
 * worker counts while this file captures what actually happened on
 * the clock.
 *
 * Output is the JSON Object Format of the Trace Event spec:
 * {"traceEvents": [...]} with "X" (complete) events carrying
 * microsecond ts/dur and "M" (metadata) events naming the process
 * and threads. The file loads directly in ui.perfetto.dev or
 * chrome://tracing.
 */

#ifndef AVF_OBS_TRACE_EXPORT_HH
#define AVF_OBS_TRACE_EXPORT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hh"

namespace avf::obs
{

/** One complete ("X") span on the trace timeline. */
struct TraceSpan
{
    std::string name;
    std::string category;
    /** Absolute begin tick (timing::steadyNowNs() domain). */
    std::uint64_t beginNs = 0;
    std::uint64_t durNs = 0;
    /** Trace-local thread lane (worker index, or a synthetic lane). */
    std::uint32_t tid = 0;
    /** Numeric args shown in the span's detail pane. */
    std::vector<std::pair<std::string, double>> args;
};

/**
 * Collects spans and thread names, then serializes them as one
 * trace_event JSON document. Timestamps are rebased so the earliest
 * span starts at ts=0; Perfetto only cares about relative time.
 * Not thread-safe — build it after the parallel work is done.
 */
class TraceWriter
{
  public:
    /** Name shown for the whole process track. */
    void setProcessName(std::string name);

    /** Label a tid lane ("worker 0", "campaign", ...). */
    void setThreadName(std::uint32_t tid, std::string name);

    /** Add one complete span. */
    void addSpan(TraceSpan span);

    /** Number of spans queued. */
    std::size_t spanCount() const { return spans.size(); }

    /**
     * Attach one entry to the document's "otherData" metadata object
     * (pool stats, task-latency histograms, ...). @p value writes
     * the entry's one JSON value when the trace is serialized.
     */
    void addOtherData(std::string key,
                      std::function<void(json::Writer &)> value);

    /** Serialize the whole trace as one JSON document (no trailing
     *  newline; TRACE.json uses a Spaced writer). */
    void writeJson(json::Writer &out) const;

  private:
    std::string processName = "avf";
    std::vector<std::pair<std::uint32_t, std::string>> threadNames;
    std::vector<TraceSpan> spans;
    std::vector<std::pair<std::string,
                          std::function<void(json::Writer &)>>>
        otherData;
};

} // namespace avf::obs

#endif // AVF_OBS_TRACE_EXPORT_HH
