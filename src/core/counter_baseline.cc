#include "core/counter_baseline.hh"

#include <utility>

namespace avf::core
{

CounterBaseline::CounterBaseline(const std::uint64_t &source,
                                 int units, Cycle intervalCycles,
                                 std::string estimatorName,
                                 const char *snapshotKey)
    : counter(source), capacity(units), intervalLen(intervalCycles),
      boundaryTick(intervalCycles, intervalCycles - 1),
      label(std::move(estimatorName)), sampleKey(snapshotKey)
{
}

void
CounterBaseline::onCycle(Cycle now)
{
    // Interval k covers cycles [k * len, (k+1) * len); close it at
    // the end of its last cycle.
    if (!boundaryTick.tick(now))
        return;
    std::uint64_t delta = counter - lastSample;
    lastSample = counter;
    // One sample per estimation interval; unbounded by design.
    // avflint: allow(hot-path-alloc)
    results.push_back(static_cast<double>(delta) /
                      (static_cast<double>(intervalLen) *
                       static_cast<double>(capacity)));
}

EstimatorState
CounterBaseline::snapshotState() const
{
    EstimatorState state;
    state.name = label;
    state.counters = {{sampleKey, lastSample}};
    state.estimates = results;
    return state;
}

} // namespace avf::core
