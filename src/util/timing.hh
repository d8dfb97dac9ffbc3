/**
 * @file
 * Wall-clock instrumentation for the perf subsystem: a steady-clock
 * stopwatch and named per-phase accumulators.
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

/** Aggregated timings of one named phase. */
struct PhaseStats
{
    std::string name;
    std::uint64_t count = 0; ///< add() calls folded in
    double totalNs = 0.0;
    double minNs = 0.0; ///< 0 when count == 0
    double maxNs = 0.0;

    /** Mean nanoseconds per recorded lap (0 when empty). */
    double meanNs() const;

    /** Fold @p other into this (same-phase merge). */
    void merge(const PhaseStats &other);
};

/**
 * Named per-phase time accumulators, e.g. one per campaign stage
 * (simulate / finalize / export). Phases are created on first use
 * and reported in first-use order, which is deterministic for a
 * fixed code path — accumulator *ordering* never depends on timing.
 */
class PhaseAccumulator
{
  public:
    /** Record one lap of @p ns nanoseconds against @p phase. */
    void add(std::string_view phase, double ns);

    /** Stats of one phase; zeroed stats if never recorded. */
    PhaseStats get(std::string_view phase) const;

    /** All phases, first-use order. */
    const std::vector<PhaseStats> &phases() const { return slots; }

    /** Sum of totalNs over all phases. */
    double totalNs() const;

    /**
     * Fold @p other into this: same-name phases merge, new phases
     * append. Merging accumulators from parallel workers is ordering
     * sensitive only in float rounding of totals; counts and extrema
     * are exact.
     */
    void merge(const PhaseAccumulator &other);

  private:
    std::vector<PhaseStats> slots;
};

/**
 * Raw steady-clock tick in nanoseconds. The single sanctioned clock
 * entry point for the perf subsystem (Stopwatch, the engine's task
 * spans and the bench/e2e programs all route through it).
 */
std::uint64_t steadyNowNs();

} // namespace avf::timing

#endif // AVF_UTIL_TIMING_HH
