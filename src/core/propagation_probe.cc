#include "core/propagation_probe.hh"

#include "util/logging.hh"

namespace avf::core
{

PropagationProbe::PropagationProbe(cpu::Pipeline &pipe,
                                   Structure structure,
                                   ProbeConfig config)
    : conf(config), sites(pipe, injectTargetOf(structure, false)),
      port(std::make_unique<InjectionPort>(pipe)),
      lane(channelOf(structure))
{
    avf_assert(conf.maxWait > 0, "probe maxWait must be positive");
    port->reserveLane(lane);
}

void
PropagationProbe::inject(Cycle now)
{
    port->clearLanes(laneBit(lane));
    handle = port->open(lane, sites.next(), now);
    windowOpen = true;
    injectCycle = now;
    ++injectionsFired;
}

void
PropagationProbe::onRetire(const cpu::DynInstr &instr,
                           const cpu::RetireInfo &info)
{
    // The private port is not on the observer list; it sees
    // retirements only through its owner.
    port->onRetire(instr, info);
    if (!windowOpen || !port->failureSeen(handle))
        return;
    Outcome outcome = port->closed(handle);
    windowOpen = false;
    // One latency sample per closed injection window, not per
    // retirement. avflint: allow(hot-path-alloc)
    samples.push_back(static_cast<double>(
        outcome.failCycle - outcome.openedAt));
    port->clearLanes(laneBit(lane));
}

void
PropagationProbe::onCycle(Cycle now)
{
    if (finished())
        return;
    if (windowOpen && now - injectCycle >= conf.maxWait) {
        // The injected error never surfaced: masked.
        ++masked;
        port->closed(handle);
        windowOpen = false;
        port->clearLanes(laneBit(lane));
    }
    if (!windowOpen)
        inject(now);
}

} // namespace avf::core
