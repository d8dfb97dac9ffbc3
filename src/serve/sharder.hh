/**
 * @file
 * Process-level sharding for serve campaigns: slices fan out over
 * forked worker *processes* (not engine threads), and results merge
 * back in slice order, so many-tenant daemons isolate campaign
 * failures and byte-identity survives any worker count.
 *
 * Topology: worker w of W owns slices first+w, first+w+W, ... (static
 * round-robin — assignment depends only on the slice index, never on
 * scheduling). Each worker runs its slices sequentially with
 * harness::detail::runExperimentDirect (no thread pool in children),
 * encodes every result through harness/task_codec, and streams the
 * lines over its pipe. The parent reads the pipes in global slice
 * order, so the consumer sees exactly the submission-order stream the
 * in-process engine would deliver; pipe backpressure bounds how far
 * ahead a fast worker can run without any polling.
 *
 * Fork safety: this file owns the repo's only fork() call (enforced
 * by avflint's fork-safety check), and callers must be
 * single-threaded when they invoke it — the serve daemon is, by
 * design. Children never touch the listening socket or the feed;
 * they write their pipe and _exit.
 */

#ifndef AVF_SERVE_SHARDER_HH
#define AVF_SERVE_SHARDER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "harness/engine.hh"
#include "serve/protocol.hh"

namespace avf::serve
{

/**
 * Build slice @p index's experiment config: the campaign's machine
 * and estimator parameters (lanes as the spec gives them, 0 = the
 * default), the slice's interval count, and seeds derived from
 * (seedSalt, index) via harness::deriveTaskSeeds.
 */
harness::ExperimentConfig makeSliceConfig(const CampaignSpec &spec,
                                          std::uint64_t index);

/**
 * Slice-result consumer; called in slice order on the parent.
 * Return false (with @p errorOut set) to abort the fan-out.
 */
using SliceConsumer = std::function<bool(
    const harness::TaskResult &task, std::string &errorOut)>;

/**
 * Run slices [@p firstSlice, @p endSlice) of @p spec over
 * @p workers forked processes and hand each decoded result to
 * @p onSlice in slice order. The worker count is clamped to the
 * slice count (and to at least 1). Every result — even at one
 * worker — crosses the wire codec, so the consumer's view is
 * byte-identical at any shard count by construction.
 *
 * @return false with @p errorOut set when a worker dies, a wire
 *         line fails to decode, a slice reports an error, or the
 *         consumer aborts.
 */
bool runShardedSlices(const CampaignSpec &spec,
                      std::uint64_t firstSlice,
                      std::uint64_t endSlice, int workers,
                      const SliceConsumer &onSlice,
                      std::string &errorOut);

} // namespace avf::serve

#endif // AVF_SERVE_SHARDER_HH
