#include "obs/lifecycle.hh"

#include <bit>
#include <numeric>

#include "core/injection_port.hh"
#include "core/online_estimator.hh"
#include "util/logging.hh"

namespace avf::obs
{

using core::Structure;

std::string_view
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::FailureStore: return "failure_store";
      case Outcome::FailureLoad: return "failure_load";
      case Outcome::FailureBranch: return "failure_branch";
      case Outcome::Killed: return "killed";
      case Outcome::Expired: return "expired";
      default: break;
    }
    panic("outcomeName(%d) out of range", static_cast<int>(o));
}

std::uint32_t
LifecycleRecord::totalHops() const
{
    return std::accumulate(hops.begin(), hops.end(), 0u);
}

std::uint64_t
StructureLifecycleSummary::failures() const
{
    std::uint64_t n = 0;
    for (int o = 0; o < numOutcomes; ++o) {
        if (isFailureOutcome(static_cast<Outcome>(o)))
            n += outcomes[static_cast<std::size_t>(o)];
    }
    return n;
}

std::uint64_t
LifecycleSummary::totalClosed() const
{
    std::uint64_t n = 0;
    for (const auto &s : structures)
        n += s.closed;
    return n;
}

std::uint64_t
LifecycleSummary::totalFailures() const
{
    std::uint64_t n = 0;
    for (const auto &s : structures)
        n += s.failures();
    return n;
}

std::uint64_t
LifecycleSummary::totalWithOutcome(Outcome o) const
{
    std::uint64_t n = 0;
    for (const auto &s : structures)
        n += s.outcomes[static_cast<std::size_t>(o)];
    return n;
}

LifecycleTracker::PerStructure::PerStructure(const LifecycleConfig &conf)
    : latencyHist(0.0,
                  static_cast<double>(conf.windowCycles) + 1.0,
                  latencyBins),
      hopCountHist(0.0, static_cast<double>(hopCountBins),
                   hopCountBins)
{
    // Retention is capped, so one up-front reservation keeps
    // closeRecord() off the allocator for the simulation's lifetime.
    records.reserve(conf.maxRecordsPerStructure);
}

LifecycleTracker::LifecycleTracker(LifecycleConfig config)
    : conf(config)
{
    avf_assert(conf.windowCycles > 0,
               "lifecycle windowCycles must be positive");
    perStructure.reserve(static_cast<std::size_t>(core::numStructures));
    for (int s = 0; s < core::numStructures; ++s)
        perStructure.emplace_back(conf);
}

LifecycleTracker::OpenWindow &
LifecycleTracker::windowAt(LaneId lane)
{
    avf_assert(lane >= 0 && lane < numErrorChannels,
               "lifecycle lane %d outside the %d-lane error plane",
               lane, numErrorChannels);
    return openWindows[static_cast<std::size_t>(lane)];
}

LifecycleTracker::PerStructure &
LifecycleTracker::stateOf(Structure s)
{
    return perStructure[static_cast<std::size_t>(s)];
}

const LifecycleTracker::PerStructure &
LifecycleTracker::stateOf(Structure s) const
{
    return perStructure[static_cast<std::size_t>(s)];
}

std::uint64_t
LifecycleTracker::openCountOf(Structure s) const
{
    std::uint64_t n = 0;
    ErrorMask mask = openLaneMask;
    while (mask) {
        auto lane = static_cast<std::size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        if (openWindows[lane].rec.structure == s)
            ++n;
    }
    return n;
}

void
LifecycleTracker::openRecord(Structure s, LaneId lane, int entry,
                             int field, bool live, Cycle now)
{
    OpenWindow &win = windowAt(lane);
    std::string_view sname = structureName(s);
    avf_assert(!(openLaneMask & laneBit(lane)),
               "lifecycle record for %.*s lane %d opened twice (one "
               "window at a time per lane)",
               static_cast<int>(sname.size()), sname.data(), lane);
    openLaneMask |= laneBit(lane);
    win.failed = false;
    win.sawKill = false;
    win.blamePc = 0;
    win.blameOp = -1;
    win.rec = LifecycleRecord{};
    win.rec.structure = s;
    win.rec.lane = lane;
    win.rec.entry = entry;
    win.rec.field = field;
    win.rec.live = live;
    win.rec.injectCycle = now;
}

void
LifecycleTracker::closeRecord(Structure s, LaneId lane, Cycle now,
                              const core::Outcome &outcome)
{
    OpenWindow &win = windowAt(lane);
    avf_assert(openLaneMask & laneBit(lane),
               "lifecycle close without an open record on lane %d",
               lane);
    // The port and this tracker watch the same retirement stream
    // independently; disagreement on whether (or where) the window
    // failed means one of them mis-latched — same fatality class as
    // reconcile().
    avf_assert(outcome.failed == win.failed,
               "lifecycle/port failure disagreement on lane %d", lane);
    avf_assert(!win.failed || (outcome.failPc == win.blamePc &&
                               outcome.failOp == win.blameOp),
               "lifecycle/port blame disagreement on lane %d", lane);
    std::string_view byName = structureName(s);
    std::string_view openerName = structureName(win.rec.structure);
    avf_assert(win.rec.structure == s,
               "lifecycle close of lane %d by %.*s, opened by %.*s",
               lane, static_cast<int>(byName.size()), byName.data(),
               static_cast<int>(openerName.size()),
               openerName.data());
    openLaneMask &= ~laneBit(lane);

    LifecycleRecord &rec = win.rec;
    rec.closeCycle = now;
    if (win.failed) {
        rec.outcome = win.failureKind;
        rec.outcomeCycle = win.failCycle;
        rec.blamePc = win.blamePc;
        rec.blameOp = win.blameOp;
    } else if (win.sawKill) {
        rec.outcome = Outcome::Killed;
        rec.outcomeCycle = win.killCycle;
    } else {
        rec.outcome = Outcome::Expired;
        rec.outcomeCycle = now;
    }

    PerStructure &state = stateOf(s);
    ++state.closed;
    if (rec.live)
        ++state.live;
    ++state.outcomes[static_cast<std::size_t>(rec.outcome)];
    for (int h = 0; h < cpu::numErrorHops; ++h) {
        state.hopTotals[static_cast<std::size_t>(h)] +=
            rec.hops[static_cast<std::size_t>(h)];
    }
    double latency = static_cast<double>(rec.latency());
    state.latency.add(latency);
    state.latencyHist.add(latency);
    state.hopCountHist.add(static_cast<double>(rec.totalHops()));

    if (state.records.size() < conf.maxRecordsPerStructure)
        state.records.push_back(rec);
    else
        ++state.dropped;
}

void
LifecycleTracker::onRetire(const cpu::DynInstr &instr,
                           const cpu::RetireInfo &info)
{
    ErrorMask hit = info.failureMask & openLaneMask;
    while (hit) {
        auto lane = static_cast<std::size_t>(std::countr_zero(hit));
        hit &= hit - 1;
        OpenWindow &win = openWindows[lane];
        if (win.failed)
            continue;
        win.failed = true;
        win.failCycle = instr.retireCycle;
        win.blamePc = instr.in.pc;
        win.blameOp = static_cast<int>(instr.in.op);
        switch (instr.in.op) {
          case trace::OpClass::Store:
            win.failureKind = Outcome::FailureStore;
            break;
          case trace::OpClass::Load:
            win.failureKind = Outcome::FailureLoad;
            break;
          default:
            // isFailurePoint() admits only loads, stores, branches.
            win.failureKind = Outcome::FailureBranch;
            break;
        }
    }
}

void
LifecycleTracker::onErrorHop(const cpu::DynInstr &instr,
                             cpu::ErrorMask bits, cpu::ErrorHop hop)
{
    ErrorMask hit = bits & openLaneMask;
    while (hit) {
        auto lane = static_cast<std::size_t>(std::countr_zero(hit));
        hit &= hit - 1;
        OpenWindow &win = openWindows[lane];
        ++win.rec.hops[static_cast<std::size_t>(hop)];
        if (hop == cpu::ErrorHop::OverwriteKill && !win.sawKill) {
            win.sawKill = true;
            win.killCycle = instr.completeCycle;
        }
    }
}

LifecycleSummary
LifecycleTracker::summary() const
{
    LifecycleSummary out;
    out.enabled = true;
    for (int s = 0; s < core::numStructures; ++s) {
        const PerStructure &state =
            perStructure[static_cast<std::size_t>(s)];
        auto &dst = out.structures[static_cast<std::size_t>(s)];
        dst.closed = state.closed;
        dst.openAtEnd = openCountOf(static_cast<Structure>(s));
        dst.live = state.live;
        dst.dropped = state.dropped;
        dst.outcomes = state.outcomes;
        dst.hopTotals = state.hopTotals;
        if (state.latency.count() > 0) {
            dst.latencyMean = state.latency.mean();
            dst.latencyStddev = state.latency.stddev();
            dst.latencyMin = state.latency.min();
            dst.latencyMax = state.latency.max();
        }
        dst.latencyHist = state.latencyHist.snapshot();
        dst.hopCountHist = state.hopCountHist.snapshot();
        dst.records = state.records;
    }
    return out;
}

std::string
LifecycleTracker::reconcile(const core::OnlineAvfEstimator &est) const
{
    const PerStructure &state = stateOf(est.structure());
    std::string name(structureName(est.structure()));

    std::uint64_t tracked = state.closed + openCountOf(est.structure());
    if (tracked != est.totalInjections()) {
        return "lifecycle reconciliation failed for " + name + ": " +
               std::to_string(tracked) + " records vs " +
               std::to_string(est.totalInjections()) +
               " estimator injections";
    }

    std::uint64_t failures = 0;
    for (int o = 0; o < numOutcomes; ++o) {
        if (isFailureOutcome(static_cast<Outcome>(o)))
            failures += state.outcomes[static_cast<std::size_t>(o)];
    }
    if (failures != est.totalFailures()) {
        return "lifecycle reconciliation failed for " + name + ": " +
               std::to_string(failures) + " failure records vs " +
               std::to_string(est.totalFailures()) +
               " estimator failures";
    }
    return "";
}

} // namespace avf::obs
