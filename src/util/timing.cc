#include "util/timing.hh"

#include <algorithm>
#include <chrono>

namespace avf::timing
{

std::uint64_t
steadyNowNs()
{
    // The perf subsystem's one sanctioned wall-clock read: values
    // derived from it are side-channel metrics only and never reach
    // experiment output.
    auto now =
        std::chrono::steady_clock::now(); // avflint: allow(determinism)
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
}

void
Stopwatch::start()
{
    if (isRunning)
        return;
    startTick = steadyNowNs();
    isRunning = true;
}

double
Stopwatch::stop()
{
    if (!isRunning)
        return 0.0;
    isRunning = false;
    return static_cast<double>(steadyNowNs() - startTick);
}

double
PhaseStats::meanNs() const
{
    return count ? totalNs / static_cast<double>(count) : 0.0;
}

void
PhaseStats::merge(const PhaseStats &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        minNs = other.minNs;
        maxNs = other.maxNs;
    } else {
        minNs = std::min(minNs, other.minNs);
        maxNs = std::max(maxNs, other.maxNs);
    }
    count += other.count;
    totalNs += other.totalNs;
}

void
PhaseAccumulator::add(std::string_view phase, double ns)
{
    for (auto &slot : slots) {
        if (slot.name == phase) {
            PhaseStats lap;
            lap.count = 1;
            lap.totalNs = ns;
            lap.minNs = ns;
            lap.maxNs = ns;
            slot.merge(lap);
            return;
        }
    }
    PhaseStats fresh;
    // First lap of a new phase name only; the slot table is bounded
    // by the distinct phases. avflint: allow(hot-path-alloc)
    fresh.name = std::string(phase);
    fresh.count = 1;
    fresh.totalNs = ns;
    fresh.minNs = ns;
    fresh.maxNs = ns;
    // avflint: allow(hot-path-alloc)
    slots.push_back(std::move(fresh));
}

PhaseStats
PhaseAccumulator::get(std::string_view phase) const
{
    for (const auto &slot : slots)
        if (slot.name == phase)
            return slot;
    PhaseStats empty;
    // Reporting-time query, not per-cycle.
    // avflint: allow(hot-path-alloc)
    empty.name = std::string(phase);
    return empty;
}

double
PhaseAccumulator::totalNs() const
{
    double total = 0.0;
    for (const auto &slot : slots)
        total += slot.totalNs;
    return total;
}

void
PhaseAccumulator::merge(const PhaseAccumulator &other)
{
    for (const auto &theirs : other.slots) {
        bool found = false;
        for (auto &mine : slots) {
            if (mine.name == theirs.name) {
                mine.merge(theirs);
                found = true;
                break;
            }
        }
        if (!found) {
            // Merge runs once at report assembly.
            // avflint: allow(hot-path-alloc)
            slots.push_back(theirs);
        }
    }
}

} // namespace avf::timing
