/**
 * @file
 * Wall-clock instrumentation for the perf subsystem: a steady-clock
 * stopwatch.
 *
 * Determinism contract: everything in this header is a *side
 * channel*. Timing values may be printed to stderr, written to
 * TRACE.json or the bench/e2e reports, or fed to progress callbacks,
 * but must never influence experiment results, estimator state,
 * seeds, or any stdout table the figures compare byte-for-byte. The
 * avflint determinism check enforces the discipline at the call
 * sites: the only sanctioned clock reads live in timing.cc, each
 * carrying an `avflint: allow(determinism)` justification.
 */

#ifndef AVF_UTIL_TIMING_HH
#define AVF_UTIL_TIMING_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace avf::timing
{

/**
 * Monotonic wall-clock lap timer: stop() returns the time since the
 * matching start(). Reads come from std::chrono::steady_clock, so a
 * lap never goes negative under NTP adjustments.
 */
class Stopwatch
{
  public:
    /** Begin a lap. No-op if already running. */
    void start();

    /**
     * End the lap.
     * @return its length in nanoseconds (0 if not running).
     */
    double stop();

  private:
    std::uint64_t startTick = 0;
    bool isRunning = false;
};

/**
 * Raw steady-clock tick in nanoseconds. The single sanctioned clock
 * entry point for the perf subsystem (Stopwatch, the engine's task
 * spans and the bench/e2e programs all route through it).
 */
std::uint64_t steadyNowNs();

} // namespace avf::timing

#endif // AVF_UTIL_TIMING_HH
