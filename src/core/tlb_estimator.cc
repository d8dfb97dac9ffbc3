#include "core/tlb_estimator.hh"

namespace avf::core
{

namespace
{

/** The lane the estimator's private port pins: clear of the four
 *  paper structures and FREG, which pin lanes 0..4. */
constexpr LaneId tlbLane = 6;

constexpr CounterKey tlbKeys[] = {
    {"injections", &CampaignCounters::injections},
    {"failures", &CampaignCounters::failures},
    {"lifetime_injections", &CampaignCounters::lifetimeInjections},
};

} // namespace

TlbAvfEstimator::TlbAvfEstimator(cpu::Pipeline &pipe,
                                 TlbEstimatorConfig config)
    : InjectionCampaign(pipe, SiteSource(pipe, cpu::InjectTarget::Dtlb),
                        {.m = config.m, .n = config.n, .lanes = 1},
                        nullptr, tlbLane)
{}

std::string
TlbAvfEstimator::name() const
{
    return "online:dtlb";
}

double
TlbAvfEstimator::meanEstimate() const
{
    if (estimates().empty())
        return 0.0;
    double sum = 0.0;
    for (double v : estimates())
        sum += v;
    return sum / static_cast<double>(estimates().size());
}

std::span<const CounterKey>
TlbAvfEstimator::counterKeys() const
{
    return tlbKeys;
}

} // namespace avf::core
