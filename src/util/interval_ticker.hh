/**
 * @file
 * Division-free periodic trigger for cycle observers. The estimators
 * all ask "is `now` at my interval boundary?"; asked with
 * `now % period` that is a 64-bit division on the hottest loop in the
 * simulator. IntervalTicker keeps the absolute cycle of its next
 * firing instead, so the question is one compare, and next() hands
 * that cycle to PipelineObserver::nextWake() so an observer can sleep
 * until it.
 *
 * Contract: call tick() on every firing cycle; calls on the cycles in
 * between are optional and return false. The first tick computes the
 * phase once (one division total), so a ticker first ticked mid-run
 * stays exact.
 */

#ifndef AVF_UTIL_INTERVAL_TICKER_HH
#define AVF_UTIL_INTERVAL_TICKER_HH

#include "util/logging.hh"
#include "util/types.hh"

namespace avf
{

/** Fires on the cycles congruent to @c phase modulo @c period. */
class IntervalTicker
{
  public:
    /**
     * @param period interval length in cycles (> 0).
     * @param phase residue to fire on: tick(now) is true exactly
     *        when now % period == phase.
     */
    explicit IntervalTicker(Cycle period, Cycle phase = 0)
        : interval(period)
    {
        avf_assert(period > 0, "ticker period must be positive");
        residue = phase % period;
    }

    /**
     * True when @p now is a firing cycle. Calls must not go backwards
     * in time and must not skip a firing cycle; only the first call
     * may start anywhere.
     */
    bool
    tick(Cycle now)
    {
        if (!primed) {
            nextFire = firstFireFrom(now);
            primed = true;
        }
        if (now < nextFire)
            return false;
        avf_assert(now == nextFire, "ticker skipped a firing cycle");
        nextFire += interval;
        return true;
    }

    /**
     * The next cycle at which tick() returns true: the earliest
     * firing cycle >= @p now before the first tick, the one after the
     * last firing since.
     */
    Cycle
    next(Cycle now) const
    {
        return primed ? nextFire : firstFireFrom(now);
    }

    /** The configured period. */
    Cycle period() const { return interval; }

  private:
    /** The earliest firing cycle >= @p now. */
    Cycle
    firstFireFrom(Cycle now) const
    {
        Cycle mod = now % interval;
        return mod <= residue ? now + (residue - mod)
                              : now + (interval - mod + residue);
    }

    Cycle interval;
    Cycle residue = 0;
    Cycle nextFire = 0;
    bool primed = false;
};

} // namespace avf

#endif // AVF_UTIL_INTERVAL_TICKER_HH
