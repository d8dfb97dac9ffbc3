/**
 * @file
 * Extended-coverage injection probes: single-lane online estimators
 * for the structures the paper models but never estimates — the
 * fetch/instruction buffer, the rename map, and the branch predictor
 * counter table. Each probe is a core::InjectionCampaign — the same
 * M-cycle tagged-window loop as core::OnlineAvfEstimator — on one
 * reserved lane of the shared core::InjectionPort, so lane
 * accounting and the one-error-per-lane rule are identical.
 *
 * What distinguishes the three targets is how their bits leave the
 * machine:
 *  - fetch buffer: the error mask rides the buffered instruction into
 *    dispatch and from there behaves exactly like an IQ injection —
 *    it can fail at a retiring load/store/branch.
 *  - rename map: injecting a map slot corrupts the currently mapped
 *    physical register (always a live, occupied target), so failures
 *    surface through the ordinary register read-out path.
 *  - branch predictor: counter bits never enter the dataflow; the
 *    first counter update kills them (architecturally masked by
 *    construction). The probe observes the kill through the
 *    predictor's killed mask and reports AVF 0 — the point is the
 *    attribution row proving the mass is masked, not the estimate.
 *
 * Every closed window is charged to the AttributionTracker under the
 * probe's own blame unit ("fetch_buf", "rename_map", "branch_pred"),
 * giving `avf-report root-cause` visibility into the whole modeled
 * machine rather than just the five estimated structures.
 */

#ifndef AVF_OBS_COVERAGE_PROBE_HH
#define AVF_OBS_COVERAGE_PROBE_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/injection_campaign.hh"
#include "util/types.hh"

namespace avf::obs
{

class AttributionTracker;

/** Structures covered by probes (beyond core::Structure). */
enum class CoverageTarget : int
{
    FetchBuf = 0,   ///< fetch/instruction buffer entries
    RenameMap = 1,  ///< rename map (arch -> phys) slots
    BranchPred = 2, ///< branch predictor counter table
    NumTargets
};

/** Number of probe targets. */
inline constexpr int numCoverageTargets =
    static_cast<int>(CoverageTarget::NumTargets);

/** Blame-unit / display name ("fetch_buf", ...). */
std::string_view coverageTargetName(CoverageTarget t);

/** Probe parameters (one M/N pair shared by the probe set). */
struct CoverageProbeConfig
{
    /** Injection window length in cycles. */
    Cycle m = 1000;
    /** Windows per completed AVF estimate. */
    std::uint32_t n = 100;
};

/**
 * One probe: a core::InjectionCampaign over one CoverageTarget, one
 * lane of the shared injection port, feeding the attribution tracker
 * directly through recordWindow(). Attach with pipe.addObserver()
 * after the shared port, like any estimator.
 */
class CoverageProbe : public core::InjectionCampaign
{
  public:
    CoverageProbe(cpu::Pipeline &pipe, core::InjectionPort &port,
                  AttributionTracker &tracker, CoverageTarget target,
                  CoverageProbeConfig config);

    /** "probe:<target>", e.g. "probe:fetch_buf". */
    std::string name() const override;

    /** Probe target. */
    CoverageTarget target() const { return probeTarget; }

    /** Lane this probe injects on. */
    LaneId laneId() const { return firstLane(); }

    /** Windows whose bit the target killed (branch predictor only:
     *  the architecturally-masked-by-construction count). */
    std::uint64_t killedWindows() const { return count.killed; }

  protected:
    std::span<const core::CounterKey> counterKeys() const override;
    void onWindowClosed(const core::Outcome &outcome,
                        Cycle now) override;

  private:
    AttributionTracker &attribution;
    CoverageTarget probeTarget;
    std::uint32_t unit = 0;
};

} // namespace avf::obs

#endif // AVF_OBS_COVERAGE_PROBE_HH
