#include "core/online_estimator.hh"

#include "util/logging.hh"

namespace avf::core
{

namespace
{

/** The port reference the campaign reserves from; never null. */
InjectionPort &
portOf(InjectionPort *port)
{
    avf_assert(port != nullptr,
               "online estimator needs an injection port");
    return *port;
}

/** Each structure draws randomized timing from its own stream. */
OnlineConfig
seededFor(OnlineConfig config, Structure structure)
{
    config.seed ^= static_cast<std::uint64_t>(channelOf(structure));
    return config;
}

constexpr CounterKey onlineKeys[] = {
    {"injections", &CampaignCounters::injections},
    {"failures", &CampaignCounters::failures},
    {"lifetime_injections", &CampaignCounters::lifetimeInjections},
    {"lifetime_failures", &CampaignCounters::lifetimeFailures},
    {"live_injections", &CampaignCounters::liveInjections},
    {"windows_closed", &CampaignCounters::windowsClosed},
    {"opened_this_interval", &CampaignCounters::openedThisInterval},
};

} // namespace

OnlineAvfEstimator::OnlineAvfEstimator(cpu::Pipeline &pipe,
                                       Structure structure,
                                       OnlineConfig config,
                                       InjectionPort *port)
    : InjectionCampaign(pipe,
                        SiteSource(pipe,
                                   injectTargetOf(
                                       structure,
                                       config.fieldGranularIq)),
                        seededFor(config, structure), portOf(port)),
      target(structure)
{}

std::string
OnlineAvfEstimator::name() const
{
    return "online:" + std::string(structureName(target));
}

std::span<const CounterKey>
OnlineAvfEstimator::counterKeys() const
{
    return onlineKeys;
}

void
OnlineAvfEstimator::onWindowOpened(LaneId lane, const Site &site,
                                   bool live, Cycle now)
{
    if (sink)
        sink->openRecord(target, lane, site.entry, site.field, live,
                         now);
}

void
OnlineAvfEstimator::onWindowClosed(const Outcome &outcome, Cycle now)
{
    if (sink)
        sink->closeRecord(target, outcome.lane, now, outcome);
}

} // namespace avf::core
