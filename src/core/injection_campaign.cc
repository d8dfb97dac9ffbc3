#include "core/injection_campaign.hh"

#include "util/logging.hh"

namespace avf::core
{

namespace
{

/** Validate before any member (the boundary ticker) consumes M. */
const OnlineConfig &
checked(const OnlineConfig &config)
{
    avf_assert(config.m > 0, "window length M must be positive");
    avf_assert(config.n > 0, "sample count N must be positive");
    avf_assert(config.lanes >= 0 &&
                   config.lanes <= numErrorChannels,
               "lane count %d outside 0..%d", config.lanes,
               numErrorChannels);
    return config;
}

} // namespace

SiteSource::SiteSource(const cpu::Pipeline &pipe,
                       cpu::InjectTarget injectTarget)
    : target(injectTarget), slots(pipe.numSites(injectTarget))
{
    avf_assert(slots > 0, "injection target has no slots");
}

Site
SiteSource::siteAt(int slot) const
{
    Site site;
    site.target = target;
    site.entry = slot;
    if (target == cpu::InjectTarget::IqField) {
        site.entry = slot / cpu::Pipeline::iqFieldsPerEntry;
        site.field = slot % cpu::Pipeline::iqFieldsPerEntry;
    }
    return site;
}

InjectionCampaign::InjectionCampaign(cpu::Pipeline &pipe,
                                     SiteSource sites,
                                     const OnlineConfig &config,
                                     InjectionPort *sharedPort,
                                     LaneId privateLane)
    : pipeline(pipe), siteSource(sites), conf(checked(config)),
      rng(config.seed), boundaryTick(config.m)
{
    const int lanes = conf.lanes > 0 ? conf.lanes : 1;
    std::vector<LaneId> reserved;
    if (sharedPort) {
        portPtr = sharedPort;
        reserved = portPtr->reserveLanes(lanes);
    } else {
        // Private port: pin the first lane so directly-constructed
        // campaigns of distinct targets land on disjoint lanes. (The
        // private port is not on the observer list; onRetire below
        // forwards to it.)
        ownedPort = std::make_unique<InjectionPort>(pipe);
        portPtr = ownedPort.get();
        portPtr->reserveLane(privateLane);
        reserved.push_back(privateLane);
        for (int i = 1; i < lanes; ++i)
            reserved.push_back(portPtr->reserveLane());
    }
    windows.resize(reserved.size());
    for (std::size_t i = 0; i < reserved.size(); ++i) {
        windows[i].lane = reserved[i];
        laneMask |= laneBit(reserved[i]);
    }
}

void
InjectionCampaign::onRetire(const cpu::DynInstr &instr,
                            const cpu::RetireInfo &info)
{
    // A shared port sits on the pipeline's observer list itself; a
    // private one sees retirements only through its owner.
    if (ownedPort)
        ownedPort->onRetire(instr, info);
}

double
InjectionCampaign::partialAvf() const
{
    return count.injections ? static_cast<double>(count.failures) /
                                  static_cast<double>(count.injections)
                            : 0.0;
}

EstimatorState
InjectionCampaign::snapshotState() const
{
    EstimatorState state;
    state.name = name();
    for (const CounterKey &key : counterKeys())
        state.counters.emplace_back(key.key, count.*key.counter);
    state.counters.emplace_back(
        "cursor", static_cast<std::uint64_t>(siteSource.position()));
    state.estimates = results;
    return state;
}

void
InjectionCampaign::openWindow(LaneSlot &slot, Cycle now)
{
    Site site = siteSource.next();
    slot.handle = portPtr->open(slot.lane, site, now);
    slot.open = true;
    ++count.lifetimeInjections;

    bool live = slot.handle.inject == InjectOutcome::Occupied;
    if (live)
        ++count.liveInjections;
    onWindowOpened(slot.lane, site, live, now);
}

void
InjectionCampaign::windowBoundary(Cycle now)
{
    // Close phase: every window opened at the previous boundary ends
    // here, in lane order. The Nth close finishes the interval.
    for (auto &slot : windows) {
        slot.scheduled = false;
        if (!slot.open)
            continue;
        Outcome outcome = portPtr->closed(slot.handle);
        slot.open = false;
        ++count.injections;
        ++count.windowsClosed;
        if (outcome.failed) {
            ++count.failures;
            ++count.lifetimeFailures;
        }
        onWindowClosed(outcome, now);
        if (count.injections == conf.n) {
            // One estimate per completed interval of n injections.
            // avflint: allow(hot-path-alloc)
            results.push_back(static_cast<double>(count.failures) /
                              static_cast<double>(conf.n));
            count.injections = 0;
            count.failures = 0;
            count.openedThisInterval = 0;
        }
    }
    scheduledCount = 0;

    // One error at a time per lane: one batched sweep retires every
    // lane's bits before the next windows open.
    portPtr->clearLanes(laneMask);

    // Open phase: saturate the lanes, capped so an interval closes on
    // exactly N windows (the cap only binds on the last boundary of
    // an interval when the lane count does not divide N).
    auto want = static_cast<std::uint64_t>(windows.size());
    std::uint64_t room = conf.n - count.openedThisInterval;
    std::uint64_t opening = want < room ? want : room;
    for (std::uint64_t i = 0; i < opening; ++i) {
        LaneSlot &slot = windows[i];
        if (conf.randomizeInjectionTiming) {
            slot.scheduled = true;
            slot.injectAt = now + rng.below(conf.m);
            ++scheduledCount;
        } else {
            openWindow(slot, now);
        }
    }
    count.openedThisInterval += opening;
}

void
InjectionCampaign::onCycle(Cycle now)
{
    if (boundaryTick.tick(now))
        windowBoundary(now);
    if (scheduledCount) {
        for (auto &slot : windows) {
            if (!slot.scheduled || now != slot.injectAt)
                continue;
            slot.scheduled = false;
            --scheduledCount;
            openWindow(slot, now);
        }
    }
}

Cycle
InjectionCampaign::nextWake(Cycle now) const
{
    Cycle wake = boundaryTick.next(now);
    if (scheduledCount) {
        for (const auto &slot : windows)
            if (slot.scheduled && slot.injectAt < wake)
                wake = slot.injectAt;
    }
    return wake;
}

} // namespace avf::core
