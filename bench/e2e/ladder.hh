/**
 * @file
 * The layer ladder: the per-cycle cost of each simulator layer,
 * measured from outside by building the experiment roster one layer
 * at a time and running every rung for the same simulated cycles.
 *
 *   trace     SyntheticTraceGenerator::next alone
 *   cpu       bare Pipeline::run
 *   core      + InjectionPort, five online estimators, the counter
 *             baselines and the regression features
 *   softarch  + the AceAnalyzer reference (finalizeAll timed apart)
 *   obs       + lifecycle tracker, attribution tracker, coverage probes
 *   control   + control feed, budget arbiter and throttle controller
 *
 * Observers attach in harness::detail::runExperimentDirect's order.
 * Every rung but the last is passive, so the cpu..obs rungs must
 * report identical cycles and retired counts; a mismatch is an error.
 */

#ifndef AVF_BENCH_E2E_LADDER_HH
#define AVF_BENCH_E2E_LADDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "spans.hh"
#include "util/types.hh"

namespace avfbench
{

/**
 * What the ladder runs. It climbs every spec profile in turn; the
 * control rung runs against tightBudgetHours.
 */
struct LadderSpec
{
    /** Online-estimator window length M and injections per estimate
     *  N of the workload the ladder stands for. */
    avf::Cycle m = 1000;
    std::uint32_t n = 1000;
    /** Seeds derive from (seedSalt, profile index) as the engine
     *  derives them; must be nonzero. */
    std::uint64_t seedSalt = 1;
    /** Simulated cycles per profile per rung. */
    avf::Cycle cycles = 100'000;
    /** Directory the obs rung exports into. */
    std::string exportDir;
};

/**
 * Climb the ladder, recording spans into @p spans. Appends the
 * trace/mem/cpu/core/softarch/obs/control/harness.task_setup_us
 * metrics to @p metrics and every failed check to @p errors.
 */
void runLadder(const LadderSpec &spec, SpanLog &spans,
               MetricList &metrics, std::vector<std::string> &errors);

} // namespace avfbench

#endif // AVF_BENCH_E2E_LADDER_HH
