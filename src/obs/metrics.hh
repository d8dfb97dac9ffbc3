/**
 * @file
 * The runtime metrics registry. One MetricsShard belongs to one
 * engine task (the unit of parallelism in harness::ExperimentEngine):
 * recording is single-threaded and index-addressed — a counter
 * increment is one array add — so the hot path costs nothing
 * measurable, and thread-awareness comes from the sharding itself:
 * each worker records into its own task's shard and the campaign
 * merges the resulting snapshots *in submission order* at collect
 * time, the same determinism rule the engine applies to results.
 * METRICS.json is therefore byte-identical at any worker count.
 *
 * Metric kinds:
 *   counter    monotonic uint64; saturates at 2^64-1 instead of
 *              wrapping (a wrapped counter silently lies; a pegged
 *              one is visibly saturated).
 *   gauge      last-written double (rates, ratios, point-in-time).
 *   histogram  fixed uniform buckets over [lo, hi), reusing
 *              stats::Histogram; under/overflow tracked.
 *   series     append-only labeled time-series, one value per
 *              estimation interval (per-interval AVF, IPC, ...).
 *
 * Naming discipline (enforced at registration and by the avflint
 * `metric-name-discipline` check): names are snake_case
 * (`[a-z][a-z0-9_]*`), registered once per shard, and registered at
 * setup time — never inside per-cycle hot paths.
 *
 * Determinism contract: everything recorded here lands in the
 * schema-versioned METRICS.json snapshot, so values must be a
 * function of (trace, seed, config) only. Wall-clock data belongs in
 * the trace_event export (obs/trace_export.hh), never here.
 */

#ifndef AVF_OBS_METRICS_HH
#define AVF_OBS_METRICS_HH

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/histogram.hh"
#include "util/json.hh"

namespace avf::obs
{

/** Exporter schema tag written into every METRICS.json. */
inline constexpr std::string_view metricsSchemaVersion =
    "avf-metrics-v1";

/** True when @p name is a valid snake_case metric name. */
bool validMetricName(std::string_view name);

/**
 * Plain-data copy of one shard's metrics: default-constructible,
 * copyable, and what actually travels on ExperimentResult. Entries
 * keep registration order, which is deterministic for a fixed code
 * path.
 */
struct MetricsSnapshot
{
    /** False when the producing run had metrics disabled. */
    bool enabled = false;

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, stats::HistogramSnapshot>>
        histograms;
    std::vector<std::pair<std::string, std::vector<double>>> series;

    /** Counter value by name; 0 when absent. */
    std::uint64_t counterValue(std::string_view name) const;

    /** Series by name; nullptr when absent. */
    const std::vector<double> *findSeries(std::string_view name) const;

    /**
     * Campaign-total fold: counters add (saturating) and histograms
     * add bin-wise (shapes must match; panic otherwise). Gauges and
     * series are per-task signals with no meaningful cross-task sum,
     * so totals skip them — read those from the per-task snapshots.
     * Unknown names append in @p other's order, keeping the merge
     * deterministic under submission-order folding.
     */
    void mergeTotals(const MetricsSnapshot &other);

    /**
     * Write as one line-broken JSON object with fixed key order
     * {"counters": {}, "gauges": {}, "histograms": {}, "series": {}}
     * and fixed number formatting (fixed(v, 6) for doubles), so equal
     * snapshots serialize to equal bytes. METRICS.json writes it with
     * a Spaced writer.
     */
    void writeJson(json::Writer &out) const;
};

/**
 * The per-task registry. Register every metric up front (handles are
 * dense indices), record through the handle, snapshot at the end of
 * the run. Not thread-safe by design — one shard per task, merged
 * deterministically by the campaign layer.
 */
class MetricsShard
{
  public:
    /** Dense handle; valid only against the shard that issued it. */
    using Id = std::uint32_t;

    /**
     * Register a monotonic counter. Names must be snake_case and
     * unique across every kind in this shard; violations panic
     * (programmer error, not input error).
     */
    Id registerCounter(std::string name);

    /** Register a last-write-wins gauge. */
    Id registerGauge(std::string name);

    /**
     * Register a fixed-bucket histogram over [lo, hi) with @p bins
     * uniform buckets (see stats::Histogram).
     */
    Id registerHistogram(std::string name, double lo, double hi,
                         std::size_t bins);

    /** Register an append-only time-series. */
    Id registerSeries(std::string name);

    /** Add @p delta to a counter; saturates at 2^64-1. */
    void inc(Id counter, std::uint64_t delta = 1);

    /** Set a gauge. */
    void set(Id gauge, double value);

    /** Fold a sample into a histogram. */
    void observe(Id histogram, double value);

    /** Append one point to a series. */
    void push(Id series, double value);

    /**
     * Live read of a series' contents (no snapshot copy). This is the
     * control loop's data path: a consumer that decides from the same
     * storage the exporter serializes can never disagree with the
     * telemetry (see obs/control_feed.hh).
     */
    const std::vector<double> &seriesValues(Id series) const;

    /** Current value of a counter (live read). */
    std::uint64_t counterValue(Id counter) const;

    /** Number of metrics registered, all kinds. */
    std::size_t size() const { return names.size(); }

    /** Copy the current state into a plain-data snapshot. */
    MetricsSnapshot snapshot() const;

  private:
    void claimName(const std::string &name);

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, stats::Histogram>> hists;
    std::vector<std::pair<std::string, std::vector<double>>>
        seriesData;
    std::set<std::string> names;
};

/** Saturating uint64 add (the counter overflow rule). */
constexpr std::uint64_t
saturatingAdd(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t sum = a + b;
    return sum < a ? ~std::uint64_t{0} : sum;
}

} // namespace avf::obs

#endif // AVF_OBS_METRICS_HH
