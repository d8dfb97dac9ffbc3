/**
 * @file
 * The bench/micro harness: a tiny, dependency-free microbenchmark
 * runner for single hot paths, so CI and scripts get
 * machine-readable, schema-stable JSON without linking an external
 * framework into every probe.
 *
 * Protocol (see DESIGN.md §9):
 *   1. calibrate: double the per-repeat iteration count until one
 *      repeat runs at least --min-time-ms wall milliseconds;
 *   2. warm up: run W whole repeats and discard them;
 *   3. measure: run R repeats, recording ns/iteration for each;
 *   4. report: trimmed mean (drop the top and bottom 20% of repeats),
 *      median, min, max, stddev, and items/sec.
 *
 * Registration:
 *   AVF_MICROBENCH(bitvector_popcount)
 *   {
 *       avf::BitVector bits(4096);
 *       b.setItems(4096);            // per iteration, for items/sec
 *       while (b.next())
 *           avf::micro::doNotOptimize(bits.count());
 *   }
 *
 * The runner writes BENCH_micro.json (override with --out), sorted
 * by benchmark name so the file is diffable run to run. --smoke
 * shrinks warmup/repeats/min-time for CI smoke jobs; --compare FILE
 * reads a previous output and adds per-benchmark baseline and
 * speedup fields.
 */

#ifndef AVF_BENCH_MICRO_MICRO_HH
#define AVF_BENCH_MICRO_MICRO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/timing.hh"

namespace avf::micro
{

/** Iteration controller handed to every benchmark body. */
class Bench
{
  public:
    /**
     * Iteration gate: `while (b.next())` runs the calibrated number
     * of iterations, timing from the first call to the last.
     */
    bool
    next()
    {
        if (done == 0)
            startNs = timing::steadyNowNs();
        if (done++ < target)
            return true;
        elapsed = timing::steadyNowNs() - startNs;
        return false;
    }

    /**
     * Declare how many logical items one iteration processes (bits
     * swept, cycles stepped, tasks dispatched); feeds the JSON
     * items_per_sec field. Default 1.
     */
    void setItems(std::uint64_t perIteration) { items = perIteration; }

    /** Iterations this run will execute. */
    std::uint64_t iterations() const { return target; }

    // ---- runner internals (benchmark bodies never need these) ----

    /** Reset for a repeat of @p iters iterations. */
    void
    arm(std::uint64_t iters)
    {
        target = iters;
        done = 0;
        startNs = 0;
        elapsed = 0;
        items = 1;
    }

    /** Measured nanoseconds of the drained next() loop. */
    std::uint64_t elapsedRawNs() const { return elapsed; }

    /** Items one iteration processes, as declared by setItems(). */
    std::uint64_t itemsPerIter() const { return items; }

    /** next() calls made; target + 1 once the loop drained. */
    std::uint64_t nextCalls() const { return done; }

  private:
    std::uint64_t target = 0;
    std::uint64_t done = 0;
    std::uint64_t startNs = 0;
    std::uint64_t elapsed = 0;
    std::uint64_t items = 1;
};

/** Keep @p value alive without letting the optimizer fold the work. */
template <typename T>
inline void
doNotOptimize(T const &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/** Force pending writes to be considered observable. */
inline void
clobberMemory()
{
    asm volatile("" : : : "memory");
}

using BenchFn = void (*)(Bench &);

/** Register a benchmark; invoked via the AVF_MICROBENCH macro. */
bool registerBench(const char *name, BenchFn fn);

/** Final statistics of one benchmark. */
struct Result
{
    std::string name;
    std::uint64_t iterations = 0; ///< per measured repeat
    int repeats = 0;
    double trimmedMeanNs = 0.0; ///< ns per iteration, headline stat
    double medianNs = 0.0;
    double minNs = 0.0;
    double maxNs = 0.0;
    double stddevNs = 0.0;
    double itemsPerSec = 0.0;
    /** From --compare; <= 0 when absent. */
    double baselineNs = 0.0;
    /** baselineNs / trimmedMeanNs; 0 when no baseline. */
    double speedup = 0.0;
};

/** Runner knobs (CLI defaults in parse()). */
struct Options
{
    bool smoke = false;
    bool listOnly = false;
    int warmupRepeats = 2;
    int repeats = 15;
    double minTimeMs = 20.0;
    std::string filter;  ///< substring; empty = all
    std::string outPath = "BENCH_micro.json";
    std::string comparePath;
};

/**
 * CLI entry point (bench/micro/main.cc is a one-liner over this).
 * Parses args, runs every registered benchmark matching the filter,
 * prints a human table to stderr, and writes the JSON report.
 * @return process exit code.
 */
int runMain(int argc, char **argv);

} // namespace avf::micro

#define AVF_MICROBENCH(name)                                          \
    static void avf_micro_##name(avf::micro::Bench &b);               \
    static const bool avf_micro_reg_##name =                          \
        avf::micro::registerBench(#name, &avf_micro_##name);          \
    static void avf_micro_##name(avf::micro::Bench &b)

#endif // AVF_BENCH_MICRO_MICRO_HH
