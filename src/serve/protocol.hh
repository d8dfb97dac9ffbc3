/**
 * @file
 * The avf-serve wire protocol: line-delimited JSON over a Unix-domain
 * socket, parsed by the strict util/json parser. One request per
 * line, one JSON response per line — a malformed line gets an error
 * response and never kills the daemon (specProfile() and friends
 * fatal() on bad input, so every field is validated here first).
 *
 * The same header also defines the campaign feed rows (the JSONL
 * stream `avf-report tail` follows) and the campaign rollup the
 * summary row and the checkpoint share. All doubles print as %.17g
 * (see harness/task_codec.hh), so a value that crossed the worker
 * pipe, the rollup, and a crash-resume cycle still renders to the
 * same bytes as one that never left the process.
 */

#ifndef AVF_SERVE_PROTOCOL_HH
#define AVF_SERVE_PROTOCOL_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/structures.hh"
#include "harness/engine.hh"
#include "obs/attribution.hh"
#include "util/types.hh"

namespace avf::serve
{

/** Request schema tag (the "v" member of every request line). */
inline constexpr std::string_view requestSchemaVersion =
    "avf-serve-v1";

/** Feed schema tag (the "v" member of the feed header row). */
inline constexpr std::string_view feedSchemaVersion = "avf-feed-v1";

/**
 * One campaign: a benchmark run for a total number of estimation
 * intervals, split into fixed-size slices. Each slice is an
 * independent ExperimentConfig whose seeds derive from
 * (seedSalt, slice index) via harness::deriveTaskSeeds — the unit of
 * process sharding AND of crash-resume recomputation, which is what
 * keeps the feed byte-identical at any worker count and across a
 * SIGKILL (see DESIGN.md §13).
 */
struct CampaignSpec
{
    /** Campaign name; becomes the feed/checkpoint file stem, so the
     *  charset is restricted to [a-z0-9_-]. */
    std::string name;
    /** Workload, one of trace::specBenchmarkNames(). */
    std::string benchmark;
    /** Total estimation intervals to stream. */
    int intervals = 12;
    /** Intervals per slice (the last slice takes the remainder). */
    int sliceIntervals = 3;
    /** Online-estimator window length M, in cycles. */
    Cycle m = 1000;
    /** Injections per estimate N. */
    std::uint32_t n = 100;
    /** Injection lanes per estimator (0 = the engine default). */
    int lanes = 0;
    /** Seed salt for per-slice seed derivation; must be nonzero. */
    std::uint64_t seedSalt = 1;
    /** Checkpoint cadence, in slices. */
    int checkpointEverySlices = 1;
    /** Collect and merge per-slice metrics snapshots. */
    bool metrics = false;
    /**
     * Collect and merge per-slice root-cause attribution tables
     * (obs/attribution.hh). Slices run with campaign-global phase
     * buckets (phaseBase = the slice's first global interval), so
     * the merged table — persisted in the checkpoint and streamed
     * as the feed's attribution row — is byte-identical at any
     * worker count and across crash/resume.
     */
    bool rootCause = false;

    /** Slice count: ceil(intervals / sliceIntervals). */
    std::uint64_t numSlices() const
    {
        return (static_cast<std::uint64_t>(intervals) +
                static_cast<std::uint64_t>(sliceIntervals) - 1) /
               static_cast<std::uint64_t>(sliceIntervals);
    }

    /** Intervals in slice @p index (the last takes the remainder). */
    int sliceLength(std::uint64_t index) const
    {
        auto first = static_cast<std::int64_t>(index) *
                     sliceIntervals;
        auto left = static_cast<std::int64_t>(intervals) - first;
        return static_cast<int>(
            left < sliceIntervals ? left : sliceIntervals);
    }
};

/** One parsed request line. */
struct Request
{
    enum class Op
    {
        /** Start a campaign (body in `campaign`). */
        Submit,
        /** Report every known campaign's progress. */
        Status,
        /** Finish the current connection, then exit the daemon. */
        Shutdown
    };

    Op op = Op::Status;
    CampaignSpec campaign;
};

/**
 * Parse and validate one request line. Every field is range- and
 * charset-checked here so a hostile line can produce at worst an
 * error response — never a fatal() inside the daemon.
 */
bool parseRequest(std::string_view line, Request &out,
                  std::string &errorOut);

/** Encode a request (the avf-serve client side). */
std::string encodeRequest(const Request &request);

/** {"ok":false,"error":...} — the uniform failure response. */
std::string errorResponse(std::string_view message);

// ------------------------------------------------------------------ //
// Feed rows                                                           //
// ------------------------------------------------------------------ //

/**
 * Campaign-wide aggregates, folded slice by slice in submission
 * order. The checkpoint persists it verbatim (%.17g), so a resumed
 * campaign's summary row equals the uninterrupted one's.
 */
struct CampaignRollup
{
    std::uint64_t intervals = 0;
    std::uint64_t slices = 0;
    std::array<double, core::numStructures> onlineSum{};
    std::array<double, core::numStructures> softarchSum{};
    std::array<double, 2> utilizationSum{};
    double occupancySum = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    /** Lifetime injections/failures summed over every slice's five
     *  online estimator states. */
    std::uint64_t injections = 0;
    std::uint64_t failures = 0;
};

/** First feed row: campaign identity and parameters. */
std::string feedHeaderLine(const CampaignSpec &spec);

/**
 * One per-interval row. @p globalInterval numbers intervals across
 * the whole campaign; @p slice is the producing slice.
 */
std::string feedIntervalLine(std::uint64_t globalInterval,
                             std::uint64_t slice,
                             const harness::IntervalResult &row);

/** Final feed row: means and totals from the rollup. */
std::string feedSummaryLine(const CampaignRollup &rollup);

/**
 * Attribution rollup row (written before the summary row when the
 * campaign ran with rootCause): the merged blame table, keyed by its
 * "attribution" member so feed readers can tell it from interval
 * rows.
 */
std::string feedAttributionLine(const obs::AttributionSnapshot &attr);

/**
 * Fold one finished slice into the rollup: interval sums, pipeline
 * totals, and the lifetime injection counters of the slice's
 * "online:*" estimator states (coverage-probe states are skipped).
 */
void foldSliceIntoRollup(CampaignRollup &rollup,
                         const harness::TaskResult &task);

} // namespace avf::serve

#endif // AVF_SERVE_PROTOCOL_HH
