#include "core/injection_port.hh"

#include <bit>

#include "util/logging.hh"

namespace avf::core
{

InjectionPort::InjectionPort(cpu::Pipeline &pipe) : pipeline(pipe) {}

InjectionPort::Lane &
InjectionPort::laneAt(LaneId lane)
{
    avf_assert(lane >= 0 && lane < numErrorChannels,
               "lane %d outside the %d-lane error plane", lane,
               numErrorChannels);
    return laneState[static_cast<std::size_t>(lane)];
}

const InjectionPort::Lane &
InjectionPort::laneAt(LaneId lane) const
{
    avf_assert(lane >= 0 && lane < numErrorChannels,
               "lane %d outside the %d-lane error plane", lane,
               numErrorChannels);
    return laneState[static_cast<std::size_t>(lane)];
}

LaneId
InjectionPort::reserveLane()
{
    ErrorMask free = ~reservedLanes;
    if (!free)
        fatal("injection port: all %d lanes reserved",
              numErrorChannels);
    auto lane = static_cast<LaneId>(std::countr_zero(free));
    reserveLane(lane);
    return lane;
}

void
InjectionPort::reserveLane(LaneId lane)
{
    Lane &state = laneAt(lane);
    avf_assert(!state.reserved, "lane %d reserved twice", lane);
    state.reserved = true;
    reservedLanes |= laneBit(lane);
}

std::vector<LaneId>
InjectionPort::reserveLanes(int count)
{
    avf_assert(count > 0, "lane reservation count must be positive");
    std::vector<LaneId> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        out.push_back(reserveLane());
    return out;
}

InjectOutcome
InjectionPort::fire(const Site &site, ErrorMask bit)
{
    if (site.kind == Site::Kind::Dtlb)
        return pipeline.injectDtlbError(site.entry, bit);
    if (site.kind == Site::Kind::FetchBuf)
        return pipeline.injectFetchBufError(site.entry, bit)
                   ? InjectOutcome::Occupied
                   : InjectOutcome::Opened;
    if (site.kind == Site::Kind::RenameMap)
        return pipeline.injectRenameMapError(site.entry, bit);
    if (site.kind == Site::Kind::BranchPred)
        return pipeline.injectBranchPredError(site.entry, bit);

    switch (site.structure) {
      case Structure::REG:
        pipeline.injectRegError(site.entry, bit);
        // Register liveness is not observable at inject time; the
        // paper's convention (and the legacy estimator's) is to count
        // every register injection as live.
        return InjectOutcome::Occupied;
      case Structure::FREG:
        pipeline.injectRegError(pipeline.numIntPhysRegs() + site.entry,
                                bit);
        return InjectOutcome::Occupied;
      case Structure::IQ:
        if (site.field >= 0) {
            auto hit = pipeline.injectIqFieldError(site.entry,
                                                   site.field, bit);
            return hit == cpu::Pipeline::IqFieldInjection::Corrupted
                       ? InjectOutcome::Occupied
                       : InjectOutcome::Opened;
        }
        return pipeline.injectIqEntryError(site.entry, bit)
                   ? InjectOutcome::Occupied
                   : InjectOutcome::Opened;
      case Structure::FXU:
        return pipeline.injectFuError(cpu::FuClass::Fxu, site.entry,
                                      bit) > 0
                   ? InjectOutcome::Occupied
                   : InjectOutcome::Opened;
      case Structure::FPU:
        return pipeline.injectFuError(cpu::FuClass::Fpu, site.entry,
                                      bit) > 0
                   ? InjectOutcome::Occupied
                   : InjectOutcome::Opened;
      default:
        panic("injection site bound to invalid structure");
    }
}

WindowHandle
InjectionPort::open(LaneId lane, const Site &site, Cycle now)
{
    Lane &state = laneAt(lane);
    avf_assert(state.reserved, "open() on unreserved lane %d", lane);
    avf_assert(!state.open,
               "lane %d opened twice (one window at a time per lane)",
               lane);

    state.open = true;
    state.failed = false;
    ++state.serial;
    state.openedAt = now;
    state.failCycle = 0;
    state.failPc = 0;
    state.failOp = -1;
    state.site = site;

    InjectOutcome inject = fire(site, laneBit(lane));
    state.live = inject == InjectOutcome::Occupied;

    openLanes |= laneBit(lane);
    failedLanes &= ~laneBit(lane);

    WindowHandle handle;
    handle.lane = lane;
    handle.serial = state.serial;
    handle.inject = inject;
    return handle;
}

Outcome
InjectionPort::closed(const WindowHandle &handle)
{
    Lane &state = laneAt(handle.lane);
    avf_assert(state.open, "closed() on lane %d with no open window",
               handle.lane);
    avf_assert(state.serial == handle.serial,
               "stale handle for lane %d (serial %llu vs %llu)",
               handle.lane,
               static_cast<unsigned long long>(handle.serial),
               static_cast<unsigned long long>(state.serial));

    state.open = false;
    openLanes &= ~laneBit(handle.lane);
    failedLanes &= ~laneBit(handle.lane);

    Outcome out;
    out.failed = state.failed;
    out.live = state.live;
    out.lane = handle.lane;
    out.openedAt = state.openedAt;
    out.failCycle = state.failCycle;
    out.failPc = state.failPc;
    out.failOp = state.failOp;
    out.site = state.site;
    return out;
}

void
InjectionPort::clearLanes(ErrorMask mask)
{
    pipeline.clearErrorChannels(mask);
}

bool
InjectionPort::failureSeen(const WindowHandle &handle) const
{
    const Lane &state = laneAt(handle.lane);
    return state.open && state.serial == handle.serial && state.failed;
}

void
InjectionPort::onRetire(const cpu::DynInstr &instr,
                        const cpu::RetireInfo &info)
{
    ErrorMask hit = info.failureMask & openLanes & ~failedLanes;
    while (hit) {
        auto lane = static_cast<LaneId>(std::countr_zero(hit));
        hit &= hit - 1;
        Lane &state = laneAt(lane);
        state.failed = true;
        state.failCycle = instr.retireCycle;
        // The blame trail: which trace instruction carried the bit
        // out. First failure wins, same rule as failCycle.
        state.failPc = instr.in.pc;
        state.failOp = static_cast<int>(instr.in.op);
        failedLanes |= laneBit(lane);
    }
}

} // namespace avf::core
