#include "obs/coverage_probe.hh"

#include "cpu/pipeline.hh"
#include "obs/attribution.hh"
#include "util/logging.hh"

namespace avf::obs
{

using core::CampaignCounters;
using core::CounterKey;

namespace
{

core::SiteSource
sitesOf(const cpu::Pipeline &pipe, CoverageTarget target)
{
    constexpr cpu::InjectTarget targets[numCoverageTargets] = {
        cpu::InjectTarget::FetchBuf, cpu::InjectTarget::RenameMap,
        cpu::InjectTarget::BranchPred};
    auto t = static_cast<int>(target);
    avf_assert(t >= 0 && t < numCoverageTargets,
               "coverage probe bound to invalid target %d", t);
    return {pipe, targets[t]};
}

// A probe counts an injection when its window closes, so its
// lifetime_injections is the closed-window count.
constexpr CounterKey probeKeys[] = {
    {"injections", &CampaignCounters::injections},
    {"failures", &CampaignCounters::failures},
    {"lifetime_injections", &CampaignCounters::windowsClosed},
    {"lifetime_failures", &CampaignCounters::lifetimeFailures},
    {"killed", &CampaignCounters::killed},
};

} // namespace

std::string_view
coverageTargetName(CoverageTarget t)
{
    switch (t) {
      case CoverageTarget::FetchBuf: return "fetch_buf";
      case CoverageTarget::RenameMap: return "rename_map";
      case CoverageTarget::BranchPred: return "branch_pred";
      default: break;
    }
    panic("coverageTargetName(%d) out of range", static_cast<int>(t));
}

CoverageProbe::CoverageProbe(cpu::Pipeline &pipe,
                             core::InjectionPort &port,
                             AttributionTracker &tracker,
                             CoverageTarget target,
                             CoverageProbeConfig config)
    : core::InjectionCampaign(pipe, sitesOf(pipe, target),
                              {.m = config.m, .n = config.n, .lanes = 1},
                              port),
      attribution(tracker), probeTarget(target)
{
    unit = attribution.registerBlameUnit(
        std::string(coverageTargetName(target)));
}

std::string
CoverageProbe::name() const
{
    return "probe:" + std::string(coverageTargetName(probeTarget));
}

std::span<const CounterKey>
CoverageProbe::counterKeys() const
{
    return probeKeys;
}

void
CoverageProbe::onWindowClosed(const core::Outcome &outcome, Cycle)
{
    if (!outcome.failed && probeTarget == CoverageTarget::BranchPred &&
        (pipeline.branchPredKilledMask() & laneBit(outcome.lane))) {
        // Counter bits never reach the dataflow: the first update of
        // the injected counter kills them. Read the kill before the
        // boundary's lane sweep clears it.
        ++count.killed;
    }
    attribution.recordWindow(unit, outcome.openedAt, outcome.live,
                             outcome.failed, outcome.failPc,
                             outcome.failOp);
}

} // namespace avf::obs
