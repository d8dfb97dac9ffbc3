/**
 * @file
 * Library-level decomposition of one avf-serve campaign. The probe
 * drives a campaign through the same public serve calls the daemon
 * makes (prepareCampaign, runShardedSlices, FeedWriter::flushSync,
 * saveCheckpoint) with a span around each, times the task codec on
 * every slice, and repeats the campaign at 1 and P worker processes,
 * at the default checkpoint cadence and at cadence = slices. Its feed
 * must equal serve::runCampaignFresh's byte for byte.
 */

#ifndef AVF_BENCH_E2E_SERVE_PROBE_HH
#define AVF_BENCH_E2E_SERVE_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "spans.hh"

namespace avfbench
{

/** What the probe runs; its campaigns are serveCampaign()'s. */
struct ServeProbeSpec
{
    /** Campaigns per (procs, cadence) configuration. */
    int campaigns = 2;
    /** Worker processes of the parallel configurations. */
    int procs = 1;
    /** Campaign k's seed salt derives from this; must be nonzero. */
    std::uint64_t seedSalt = 1;
    /** Empty directory the probe may fill. */
    std::string stateDir;
};

/**
 * Run the probe, recording spans into @p spans; appends the serve.*
 * metrics to @p metrics and every failed check to @p errors.
 */
void runServeProbe(const ServeProbeSpec &spec, SpanLog &spans,
                   MetricList &metrics,
                   std::vector<std::string> &errors);

} // namespace avfbench

#endif // AVF_BENCH_E2E_SERVE_PROBE_HH
