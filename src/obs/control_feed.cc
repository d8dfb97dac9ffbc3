#include "obs/control_feed.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace avf::obs
{

ControlFeed::ControlFeed(Cycle reportLatencyCycles)
    : latency(reportLatencyCycles)
{
    avfSlot.fill(-1);
}

void
ControlFeed::attachAvf(core::Structure structure,
                       const core::AvfEstimator &estimator)
{
    auto idx = static_cast<std::size_t>(structure);
    avf_assert(avfSlot[idx] < 0,
               "control feed: structure attached twice");
    Source source;
    source.estimator = &estimator;
    source.series = registry.registerSeries(
        "control_" + std::string(core::structureName(structure)) +
        "_avf");
    avfSlot[idx] = static_cast<int>(sources.size());
    sources.push_back(std::move(source));
}

void
ControlFeed::attachOccupancy(const core::AvfEstimator &estimator)
{
    avf_assert(occupancySlot < 0,
               "control feed: occupancy attached twice");
    Source source;
    source.estimator = &estimator;
    source.series = registry.registerSeries("control_occupancy_iq");
    occupancySlot = static_cast<int>(sources.size());
    sources.push_back(std::move(source));
}

void
ControlFeed::pump(Source &source, Cycle now)
{
    const auto &fresh = source.estimator->estimates();
    while (source.taken < fresh.size()) {
        // One staged entry per closed estimation interval (a deque:
        // chunk reuse keeps steady state off the allocator).
        // avflint: allow(hot-path-alloc)
        source.staged.emplace_back(now + latency,
                                   fresh[source.taken]);
        ++source.taken;
    }
    while (!source.staged.empty() &&
           source.staged.front().first <= now) {
        registry.push(source.series, source.staged.front().second);
        source.staged.pop_front();
    }
}

void
ControlFeed::onCycle(Cycle now)
{
    for (auto &source : sources)
        pump(source, now);
}

Cycle
ControlFeed::nextWake(Cycle now) const
{
    Cycle wake = cpu::neverWake;
    for (const auto &source : sources) {
        wake = std::min(wake, source.estimator->nextWake(now));
        if (!source.staged.empty())
            wake = std::min(wake, source.staged.front().first);
    }
    return wake;
}

std::size_t
ControlFeed::rows() const
{
    bool any = false;
    std::size_t rows = 0;
    for (int slot : avfSlot) {
        if (slot < 0)
            continue;
        std::size_t len = registry
            .seriesValues(sources[static_cast<std::size_t>(slot)]
                              .series)
            .size();
        rows = any ? std::min(rows, len) : len;
        any = true;
    }
    return any ? rows : 0;
}

bool
ControlFeed::hasAvf(core::Structure structure) const
{
    return avfSlot[static_cast<std::size_t>(structure)] >= 0;
}

const std::vector<double> &
ControlFeed::avfSeries(core::Structure structure) const
{
    int slot = avfSlot[static_cast<std::size_t>(structure)];
    avf_assert(slot >= 0, "control feed: structure not attached");
    return registry.seriesValues(
        sources[static_cast<std::size_t>(slot)].series);
}

const std::vector<double> &
ControlFeed::occupancySeries() const
{
    avf_assert(occupancySlot >= 0,
               "control feed: occupancy not attached");
    return registry.seriesValues(
        sources[static_cast<std::size_t>(occupancySlot)].series);
}

} // namespace avf::obs
