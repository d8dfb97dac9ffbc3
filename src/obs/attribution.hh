/**
 * @file
 * Root-cause attribution: per-instruction and per-phase failure
 * accountability. Every closed injection window is charged to a
 * *blame site* — (unit, workload phase bucket, trace PC, opcode
 * class) — where the instruction identity is the retiring
 * load/store/branch that carried the lane's bit out of the machine
 * (core::Outcome::failPc / failOp, latched by the InjectionPort).
 * Windows that close without a failure are charged to the unit and
 * phase alone (PC 0, op -1): they are the masked mass the failure
 * rows are read against.
 *
 * Units are registered by name (registerBlameUnit), snake_case and
 * once per tracker — the same naming discipline as the metrics
 * registry, enforced by the avflint metric-name-discipline check.
 * The five paper structures register automatically; the extended
 * coverage probes (fetch buffer, rename map, branch predictor —
 * obs/coverage_probe.hh) register their own units, so the table
 * spans the whole modeled machine.
 *
 * Determinism contract: the snapshot's rows are kept in canonical
 * (unit, phase, pc, op) order and merge submission-order like
 * MetricsSnapshot, so the campaign-level table — and everything
 * rendered from it, including `avf-report root-cause` — is
 * byte-identical at any worker count, any `avf-serve --procs`, and
 * across crash/resume. Phase buckets are campaign-global: serve
 * slices offset them with AttributionConfig::phaseBase.
 *
 * Provenance: the ROADMAP's CFA-style open item (inject every
 * component, attribute failures to the responsible instructions) and
 * FastFlip's instruction-level outcome composition (PAPERS.md).
 */

#ifndef AVF_OBS_ATTRIBUTION_HH
#define AVF_OBS_ATTRIBUTION_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/lifecycle_sink.hh"
#include "core/structures.hh"
#include "util/json.hh"
#include "util/types.hh"

namespace avf::obs
{

/** Exporter schema tag written into every ROOTCAUSE.json. */
inline constexpr std::string_view rootCauseSchemaVersion =
    "avf-rootcause-v1";

/** Attribution parameters (harness-wired; see ExperimentConfig). */
struct AttributionConfig
{
    /**
     * Master switch, consumed by the harness: when false no tracker
     * or coverage probe is constructed and nothing below changes any
     * output byte.
     */
    bool enabled = false;
    /**
     * Cycles per workload phase bucket. 0 means "inherit": the
     * harness fills it with the estimation interval length, so a
     * bucket is one AVF estimation interval.
     */
    Cycle phaseCycles = 0;
    /**
     * First phase bucket of this run. Serve slices set it to the
     * slice's first campaign interval so merged buckets are
     * campaign-global; batch runs leave it 0.
     */
    std::uint32_t phaseBase = 0;
    /**
     * Buckets this run may produce (relative to phaseBase); windows
     * closed in the drain tail past the last interval clamp into the
     * final bucket. 0 disables the clamp.
     */
    std::uint32_t phaseCount = 0;
};

/** One blame-site row of the attribution table. */
struct AttributionRow
{
    /** Index into AttributionSnapshot::units. */
    std::uint32_t unit = 0;
    /** Workload phase bucket (campaign-global). */
    std::uint32_t phase = 0;
    /** Blamed trace PC; 0 when the window closed without failure. */
    Addr pc = 0;
    /** trace::OpClass of the blamed instruction as int, -1 none. */
    int op = -1;
    /** Closed windows charged to this blame site. */
    std::uint64_t windows = 0;
    /** ... whose injection landed on an occupied/busy target. */
    std::uint64_t live = 0;
    /** ... that ended in a failure (rows with pc != 0: all). */
    std::uint64_t failures = 0;
};

/**
 * Plain-data attribution table: default-constructible, copyable,
 * and what travels on ExperimentResult / the serve checkpoint. Rows
 * are in canonical (unit, phase, pc, op) order; units keep
 * registration order, which is deterministic for a fixed code path.
 */
struct AttributionSnapshot
{
    /** False when the producing run had attribution disabled. */
    bool enabled = false;

    /** Blame-unit names, registration order. */
    std::vector<std::string> units;
    /** The table, canonical order. */
    std::vector<AttributionRow> rows;

    /** Campaign fold: counts add key-wise; unknown units append in
     *  @p other's registration order (submission-order merges give
     *  identical bytes at any worker count). */
    void mergeFrom(const AttributionSnapshot &other);

    /** Windows summed over every row. */
    std::uint64_t totalWindows() const;

    /** Failures summed over every row. */
    std::uint64_t totalFailures() const;

    /**
     * Write the ROOTCAUSE.json attribution object (line-broken, one
     * row per line): fixed key order, integer counts, ops and units
     * by name — equal snapshots serialize to equal bytes.
     */
    void writeJson(json::Writer &out) const;
};

/**
 * The attribution tracker. Implements core::LifecycleSink, so the
 * harness hands it to each online estimator (alone or teed with the
 * LifecycleTracker — obs::LifecycleTee); the extended coverage
 * probes feed it directly through recordWindow(). Single-threaded
 * like MetricsShard: one tracker per engine task, snapshots merged
 * in submission order by the campaign layer.
 */
class AttributionTracker : public core::LifecycleSink
{
  public:
    explicit AttributionTracker(AttributionConfig config);

    /**
     * Register a blame unit (setup time, never per cycle). Names
     * must be snake_case and unique in this tracker; violations
     * panic (programmer error). @return the unit's dense id.
     */
    std::uint32_t registerBlameUnit(std::string name);

    /** Unit id for a paper structure (pre-registered). */
    std::uint32_t unitOf(core::Structure s) const;

    // ---- core::LifecycleSink ----
    /** Nothing to record: a window is charged when it closes. */
    void openRecord(core::Structure, LaneId, int, int, bool,
                    Cycle) override
    {}
    /** Charge the window from the port's latched outcome (its
     *  openedAt and live are the values the open reported). */
    void closeRecord(core::Structure s, LaneId lane, Cycle now,
                     const core::Outcome &outcome) override;

    /**
     * Charge one closed window directly (the coverage probes'
     * entry point). @p pc / @p op are the blame identity, 0 / -1
     * for windows that closed without a failure.
     */
    void recordWindow(std::uint32_t unit, Cycle injectCycle,
                      bool live, bool failed, Addr pc, int op);

    /** Snapshot the table (canonical row order). */
    AttributionSnapshot snapshot() const;

    /** Tracker configuration. */
    const AttributionConfig &config() const { return conf; }

  private:
    /** Blame key: (unit, phase, pc, op). */
    using Key = std::tuple<std::uint32_t, std::uint32_t, Addr, int>;

    struct Counts
    {
        std::uint64_t windows = 0;
        std::uint64_t live = 0;
        std::uint64_t failures = 0;
    };

    /** Map @p cycle to its campaign-global phase bucket. */
    std::uint32_t phaseOf(Cycle cycle) const;

    AttributionConfig conf;
    std::vector<std::string> unitNames;
    std::array<std::uint32_t, core::numStructures> structureUnit{};
    /** Ordered blame table: std::map iteration IS the canonical
     *  (unit, phase, pc, op) row order. */
    std::map<Key, Counts> table;
};

/**
 * Fan-out LifecycleSink: forwards every open/close to two sinks.
 * Lets the lifecycle tracker and the attribution tracker both watch
 * the estimators through the single sink slot each estimator has.
 */
class LifecycleTee : public core::LifecycleSink
{
  public:
    LifecycleTee(core::LifecycleSink &first, core::LifecycleSink &second)
        : a(first), b(second)
    {}

    void
    openRecord(core::Structure s, LaneId lane, int entry, int field,
               bool live, Cycle now) override
    {
        a.openRecord(s, lane, entry, field, live, now);
        b.openRecord(s, lane, entry, field, live, now);
    }

    void
    closeRecord(core::Structure s, LaneId lane, Cycle now,
                const core::Outcome &outcome) override
    {
        a.closeRecord(s, lane, now, outcome);
        b.closeRecord(s, lane, now, outcome);
    }

  private:
    core::LifecycleSink &a;
    core::LifecycleSink &b;
};

} // namespace avf::obs

#endif // AVF_OBS_ATTRIBUTION_HH
