/**
 * @file
 * In-memory span log for the traced benchmark run. The benchmark
 * records a span around every call it makes into a library layer;
 * spans stay in memory and are written once, as trace_event JSON,
 * when the rep ends. The log is driven from one thread: spans for
 * work that ran on engine workers are added afterwards from the
 * TaskResult's [startNs, endNs].
 */

#ifndef AVF_BENCH_E2E_SPANS_HH
#define AVF_BENCH_E2E_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace avfbench
{

/** One closed interval of host time, steady-clock nanoseconds. */
struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    /** Display lane: 0 for the driving thread, 1 + worker id for
     *  engine workers. */
    int lane = 0;
};

/** Append-only span store; every call is a no-op when disabled. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Open a span now; @return its id (-1 when disabled). */
    int openSpan(std::string name, int parent);

    /** Close span @p id now (ignores -1). */
    void closeSpan(int id);

    /** Record a span that already finished. */
    int recordSpan(std::string name, std::uint64_t startNs,
                   std::uint64_t endNs, int parent, int lane);

    /** Innermost span still open, or -1. */
    int current() const;

    /**
     * Write the spans as a trace_event JSON array ("X" events; args
     * carry id, parent and @p rep) to @p path.
     * @return false on I/O failure.
     */
    bool writeJson(const std::string &path, int rep) const;

  private:
    bool on;
    std::vector<Span> spans;
    std::vector<int> openStack;
};

/** RAII span: opens under the log's innermost open span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name)
        : spanLog(log),
          id(log.openSpan(std::move(name), log.current()))
    {
    }
    ~ScopedSpan() { spanLog.closeSpan(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int spanId() const { return id; }

  private:
    SpanLog &spanLog;
    int id;
};

} // namespace avfbench

#endif // AVF_BENCH_E2E_SPANS_HH
