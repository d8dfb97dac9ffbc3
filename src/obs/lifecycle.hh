/**
 * @file
 * Injection-lifecycle observability: records *why* every online-
 * estimator injection counted the way it did. Each injection opens a
 * lifecycle record (structure, lane, entry/field, cycle, liveness);
 * pipeline error-hop events (read-carry, OR-merge, FU transit,
 * overwrite-kill) accumulate on the open record; the window close
 * stamps the outcome (failure at a store/load/branch, killed by
 * overwrite, or expired at M) and the latency from injection to
 * outcome.
 *
 * Open records are keyed by injection lane — the error-plane bit the
 * InjectionPort tagged the injection with — because lane-parallel
 * estimators keep up to 64 windows of one structure open at once.
 * Aggregates stay per structure: the lane is a transport tag, not a
 * population of its own (though the JSONL export and avf-report keep
 * it on every record so per-lane behavior can be audited).
 *
 * The tracker aggregates everything into per-structure outcome
 * counters and latency / hop-count histograms, retains a capped set of
 * detail records for JSONL export, and offers a reconciliation
 * self-check against the estimator's own counters: the two observe the
 * same retirement stream independently, so a mismatch means an
 * estimator (or tracker) bug — the harness treats it as fatal.
 *
 * Provenance of this design: the ACE-lifetime accounting of
 * SoftArch-style models and the per-error lifecycle tracking argued
 * for in "Memory Vulnerability: A Case for Delaying Error Reporting";
 * attributing outcomes to propagation paths follows FastFlip. The
 * injection-to-failure timing generalizes
 * core/propagation_probe.hh, which times failures only: here every
 * injection gets an outcome, hop trail, and latency.
 */

#ifndef AVF_OBS_LIFECYCLE_HH
#define AVF_OBS_LIFECYCLE_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/lifecycle_sink.hh"
#include "core/structures.hh"
#include "cpu/observer.hh"
#include "stats/histogram.hh"
#include "stats/running_stats.hh"
#include "util/types.hh"

namespace avf::core
{
class OnlineAvfEstimator;
}

namespace avf::obs
{

/**
 * Final outcome of one injection's lifecycle. Failure outcomes split
 * by the failure point that carried the error bit out (Section 3.2's
 * taxonomy); Killed means at least one overwrite-kill of the lane
 * bit was observed and no failure surfaced; Expired means the window
 * closed with neither observed.
 */
enum class Outcome : int
{
    FailureStore = 0,  ///< error retired through a store
    FailureLoad = 1,   ///< error retired through a load
    FailureBranch = 2, ///< error retired through a branch
    Killed = 3,        ///< overwrite killed the bit, no failure
    Expired = 4,       ///< window closed, bit never surfaced
    NumOutcomes
};

/** Number of distinct outcomes. */
inline constexpr int numOutcomes = static_cast<int>(Outcome::NumOutcomes);

/** Stable display name ("failure_store", "killed", ...). */
std::string_view outcomeName(Outcome o);

/** True for the three failure outcomes. */
constexpr bool
isFailureOutcome(Outcome o)
{
    return static_cast<int>(o) <= static_cast<int>(Outcome::FailureBranch);
}

/** Tracker parameters. */
struct LifecycleConfig
{
    /**
     * Master switch, consumed by the harness: when false no tracker
     * is constructed and the pipeline's hop events stay off.
     */
    bool enabled = false;
    /**
     * Detail records retained per structure for JSONL export; closes
     * beyond the cap still count in every aggregate but the record
     * itself is dropped (see StructureLifecycleSummary::dropped).
     */
    std::size_t maxRecordsPerStructure = 2048;
    /**
     * The estimator's window length M: upper edge of the
     * latency-to-outcome histogram (expiry latency equals M).
     */
    Cycle windowCycles = 1000;
    /** Bins of the latency histogram. */
    std::size_t latencyBins = 50;
    /** Bins (and upper edge) of the per-record hop-count histogram. */
    std::size_t hopCountBins = 32;
};

/** One injection's full lifecycle. */
struct LifecycleRecord
{
    /** Structure injected into. */
    core::Structure structure = core::Structure::IQ;
    /** Injection lane (error-plane bit) the window ran on. */
    LaneId lane = -1;
    /** Entry index (register / IQ entry / unit) targeted. */
    int entry = -1;
    /** Field within the entry (field-granular IQ), -1 whole-entry. */
    int field = -1;
    /** Target was occupied/busy at injection time. */
    bool live = false;
    /** Cycle the injection fired. */
    Cycle injectCycle = 0;
    /** Cycle the window closed (record finalized). */
    Cycle closeCycle = 0;
    /**
     * Cycle the outcome happened: failure retirement, first
     * overwrite-kill, or the window close for Expired.
     */
    Cycle outcomeCycle = 0;
    /** Final outcome. */
    Outcome outcome = Outcome::Expired;
    /**
     * Blame identity: trace PC and opcode class (trace::OpClass as
     * int) of the retiring instruction that carried the bit out.
     * Zero / -1 when the window closed without a failure.
     */
    Addr blamePc = 0;
    int blameOp = -1;
    /** Hop events observed on this record, by cpu::ErrorHop kind. */
    std::array<std::uint32_t, cpu::numErrorHops> hops{};

    /** All hops, summed over kinds. */
    std::uint32_t totalHops() const;

    /** Cycles from injection to outcome. */
    Cycle latency() const { return outcomeCycle - injectCycle; }
};

/** Aggregated lifecycle statistics for one structure. */
struct StructureLifecycleSummary
{
    /** Records closed (outcome stamped). */
    std::uint64_t closed = 0;
    /** Records still open when the run ended (one per open lane). */
    std::uint64_t openAtEnd = 0;
    /** Closed records whose injection hit a live target. */
    std::uint64_t live = 0;
    /** Closed records not retained (maxRecordsPerStructure). */
    std::uint64_t dropped = 0;
    /** Closed-record counts by Outcome. */
    std::array<std::uint64_t, numOutcomes> outcomes{};
    /** Hop events summed over closed records, by cpu::ErrorHop. */
    std::array<std::uint64_t, cpu::numErrorHops> hopTotals{};
    /** Latency-to-outcome moments over closed records. */
    double latencyMean = 0.0;
    double latencyStddev = 0.0;
    double latencyMin = 0.0;
    double latencyMax = 0.0;
    /** Latency-to-outcome histogram over [0, windowCycles + 1). */
    stats::HistogramSnapshot latencyHist;
    /** Per-record total-hop-count histogram. */
    stats::HistogramSnapshot hopCountHist;
    /** Retained detail records, oldest first. */
    std::vector<LifecycleRecord> records;

    /** Closed records with a failure outcome. */
    std::uint64_t failures() const;
};

/** Whole-run lifecycle summary, indexed by core::Structure. */
struct LifecycleSummary
{
    /** False when tracing was off (all content zero/empty). */
    bool enabled = false;
    std::array<StructureLifecycleSummary, core::numStructures>
        structures{};

    /** Totals across structures. */
    std::uint64_t totalClosed() const;
    std::uint64_t totalFailures() const;
    std::uint64_t totalWithOutcome(Outcome o) const;
};

/**
 * The lifecycle tracker. Attach to the pipeline as an observer
 * (pipe.addObserver), enable hop events
 * (pipe.setHopSink(&tracker)), and hand it to each online
 * estimator as its LifecycleSink (est.setLifecycleSink(&tracker)).
 * One tracker serves every estimator of one pipeline: open records
 * are keyed by injection lane (the one-window-at-a-time rule per
 * lane), aggregates by structure.
 */
class LifecycleTracker : public cpu::PipelineObserver,
                         public core::LifecycleSink
{
  public:
    explicit LifecycleTracker(LifecycleConfig config = LifecycleConfig{});

    // ---- core::LifecycleSink ----
    void openRecord(core::Structure s, LaneId lane, int entry,
                    int field, bool live, Cycle now) override;
    void closeRecord(core::Structure s, LaneId lane, Cycle now,
                     const core::Outcome &outcome) override;

    // ---- cpu::PipelineObserver ----
    unsigned hooks() const override { return cpu::hookRetire; }
    void onRetire(const cpu::DynInstr &instr,
                  const cpu::RetireInfo &info) override;
    void onErrorHop(const cpu::DynInstr &instr, cpu::ErrorMask bits,
                    cpu::ErrorHop hop) override;
    /** No per-cycle work: off the onCycle schedule. */
    Cycle nextWake(Cycle) const override { return cpu::neverWake; }

    /** Snapshot every aggregate (callable any time). */
    LifecycleSummary summary() const;

    /**
     * Reconcile this tracker against @p est, which must have been
     * feeding it: closed + open records must equal the estimator's
     * lifetime injections, and failure-outcome records must equal its
     * lifetime failures. @return empty string when consistent, else a
     * description of the first mismatch.
     */
    std::string reconcile(const core::OnlineAvfEstimator &est) const;

    /** Tracker configuration. */
    const LifecycleConfig &config() const { return conf; }

  private:
    /** One open injection window, keyed by its lane. */
    struct OpenWindow
    {
        bool failed = false;
        bool sawKill = false;
        Cycle failCycle = 0;
        Cycle killCycle = 0;
        Outcome failureKind = Outcome::Expired;
        /** Blame identity of the latched failure retirement. */
        Addr blamePc = 0;
        int blameOp = -1;
        LifecycleRecord rec;
    };

    /** Per-structure aggregates over closed records. */
    struct PerStructure
    {
        explicit PerStructure(const LifecycleConfig &conf);

        std::uint64_t closed = 0;
        std::uint64_t live = 0;
        std::uint64_t dropped = 0;
        std::array<std::uint64_t, numOutcomes> outcomes{};
        std::array<std::uint64_t, cpu::numErrorHops> hopTotals{};
        stats::RunningStats latency;
        stats::Histogram latencyHist;
        stats::Histogram hopCountHist;
        std::vector<LifecycleRecord> records;
    };

    OpenWindow &windowAt(LaneId lane);
    PerStructure &stateOf(core::Structure s);
    const PerStructure &stateOf(core::Structure s) const;
    /** Open lanes whose record belongs to @p s. */
    std::uint64_t openCountOf(core::Structure s) const;

    LifecycleConfig conf;
    std::array<OpenWindow, numErrorChannels> openWindows{};
    /** Bit set per lane with an open record (fast retire/hop skip). */
    ErrorMask openLaneMask = 0;
    std::vector<PerStructure> perStructure;
};

} // namespace avf::obs

#endif // AVF_OBS_LIFECYCLE_HH
