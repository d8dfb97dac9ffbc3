/**
 * @file
 * What the rep driver, the layer ladder and the serve probe share:
 * the fixed serve_stream campaign shape, the MTTF budget the control
 * layer runs against, and two small helpers.
 */

#ifndef AVF_BENCH_E2E_COMMON_HH
#define AVF_BENCH_E2E_COMMON_HH

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hh"
#include "trace/spec_profiles.hh"
#include "util/types.hh"

namespace avfbench
{

/** Named per-layer values, in report order. */
using MetricList = std::vector<std::pair<std::string, double>>;

/**
 * MTTF budget of fig3_observed and of the ladder's control rung:
 * far beyond what any profile sustains, so the arbiter is over budget
 * from the first interval and the controller actuates on every run.
 */
constexpr double tightBudgetHours = 1e12;

/** serve_stream campaign shape: 8 one-interval slices. */
constexpr int serveSlices = 8;
constexpr avf::Cycle serveM = 500;
constexpr std::uint32_t serveN = 1000;

/**
 * serve_stream campaign @p k of a run salted with @p salt, named
 * @p name and checkpointed every @p checkpointEvery slices. Campaigns
 * rotate through the spec profiles.
 */
inline avf::serve::CampaignSpec
serveCampaign(std::string name, int k, std::uint64_t salt,
              int checkpointEvery = 1)
{
    const auto &names = avf::trace::specBenchmarkNames();
    avf::serve::CampaignSpec spec;
    spec.name = std::move(name);
    spec.benchmark = names[static_cast<std::size_t>(k) % names.size()];
    spec.intervals = serveSlices;
    spec.sliceIntervals = 1;
    spec.m = serveM;
    spec.n = serveN;
    spec.seedSalt = salt + static_cast<std::uint64_t>(k);
    if (spec.seedSalt == 0)
        spec.seedSalt = 1;
    spec.checkpointEverySlices = checkpointEvery;
    return spec;
}

/** The whole file at @p path ("" when unreadable). */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** @p num / @p den, or 0 when @p den is 0. */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace avfbench

#endif // AVF_BENCH_E2E_COMMON_HH
