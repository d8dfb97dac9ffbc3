#include "core/tlb_estimator.hh"

namespace avf::core
{

namespace
{

constexpr CounterKey tlbKeys[] = {
    {"injections", &CampaignCounters::injections},
    {"failures", &CampaignCounters::failures},
    {"lifetime_injections", &CampaignCounters::lifetimeInjections},
};

} // namespace

TlbAvfEstimator::TlbAvfEstimator(cpu::Pipeline &pipe,
                                 InjectionPort &port,
                                 TlbEstimatorConfig config)
    : InjectionCampaign(pipe, SiteSource(pipe, cpu::InjectTarget::Dtlb),
                        {.m = config.m, .n = config.n, .lanes = 1},
                        port)
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
