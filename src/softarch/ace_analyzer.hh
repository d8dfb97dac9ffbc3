/**
 * @file
 * Offline ACE-analysis reference in the role SoftArch plays in the
 * paper: the "detailed, complex, offline" AVF model the online
 * estimator is validated against.
 *
 * The analyzer logs one record per retired dynamic instruction (the
 * simulator is trace-driven, so retirement order equals program
 * order and sequence numbers index the log directly). Periodically it
 * runs an exact *backward* dataflow pass over the log: an instruction
 * is ACE iff it retires through a failure point (load/store/branch,
 * the same conservative definition of Section 3.2 the online method
 * uses) or any reader of its destination value is ACE. From the ACE
 * marks and the logged stage timestamps it integrates, per
 * estimation interval:
 *
 *  - REG AVF: cycles each integer physical register holds an ACE
 *    value (writeback to last ACE read), over 80 registers;
 *  - IQ AVF: cycles each issue-queue entry holds an ACE instruction
 *    (dispatch to issue), over all 68 entries;
 *  - FXU/FPU AVF: unit-cycles occupied by ACE operations.
 *
 * Because ACE-ness depends on *future* reads, interval k is finalized
 * only after the simulation has advanced a lookahead L past the
 * interval's end; values whose last read falls more than L cycles
 * after production are (rarely) misclassified — L defaults to 32k
 * cycles, far beyond observed value lifetimes.
 */

#ifndef AVF_SOFTARCH_ACE_ANALYZER_HH
#define AVF_SOFTARCH_ACE_ANALYZER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/structures.hh"
#include "cpu/observer.hh"
#include "cpu/pipeline.hh"
#include "util/types.hh"

namespace avf::softarch
{

/** Reference AVFs for one estimation interval. */
struct SoftArchAvf
{
    /** Indexed by core::Structure (IQ, REG, FXU, FPU, FREG). */
    std::array<double, core::numStructures> avf{};

    double &operator[](core::Structure s)
    {
        return avf[static_cast<std::size_t>(s)];
    }
    double operator[](core::Structure s) const
    {
        return avf[static_cast<std::size_t>(s)];
    }
};

/** Analyzer configuration. */
struct SoftArchConfig
{
    /** Estimation-interval length in cycles (M * N in the paper). */
    Cycle intervalCycles = 1'000'000;
    /** Cycles of lookahead before an interval is finalized. */
    Cycle lookahead = 32'768;
    /**
     * Compute the IQ AVF at field granularity (opcode + three
     * operand fields), matching the online estimator's
     * fieldGranularIq mode: an entry's residency counts weighted by
     * the fraction of its fields that are populated.
     */
    bool fieldGranularIq = false;
};

/** The offline reference model, attached as a pipeline observer. */
class AceAnalyzer : public cpu::PipelineObserver
{
  public:
    /**
     * @param pipe pipeline to watch (caller attaches).
     * @param config interval geometry.
     */
    AceAnalyzer(const cpu::Pipeline &pipe,
                SoftArchConfig config = SoftArchConfig{});

    void onRetire(const cpu::DynInstr &instr,
                  const cpu::RetireInfo &info) override;
    void onCycle(Cycle now) override;
    /** The cycle the next interval's lookahead runs out. */
    Cycle nextWake(Cycle now) const override;

    /**
     * Flush every remaining interval (call once simulation stops;
     * the tail interval gets whatever lookahead was available).
     *
     * @param throughInterval finalize buckets up to and including
     *        this interval index.
     */
    void finalizeAll(std::size_t throughInterval);

    /** Per-interval reference AVFs finalized so far. */
    const std::vector<SoftArchAvf> &results() const { return output; }

    /** Records currently buffered (diagnostic). */
    std::size_t bufferedRecords() const { return records.size(); }

  private:
    /** Compact per-retired-instruction log entry. */
    struct Record
    {
        Cycle dispatchCycle;
        Cycle issueCycle;
        Cycle completeCycle;
        Cycle retireCycle;
        std::array<InstrSeq, 3> srcProducer;
        std::int16_t destPhys;
        std::uint8_t op;
        std::uint8_t numSrcs; ///< populated source-operand fields
        bool inIq;
        bool failurePoint;
        std::uint8_t fuClass; ///< cpu::FuClass, NumClasses when none
    };

    /** Accumulated ACE cycles per structure per interval bucket. */
    struct Bucket
    {
        std::array<double, core::numStructures> aceCycles{};
    };

    /** Run the backward ACE pass and attribute one interval. */
    void finalizeInterval();

    /** Add span [lo, hi) of structure @p s to buckets, scaled by
     *  @p weight entry-fractions. */
    void addSpan(core::Structure s, Cycle lo, Cycle hi,
                 double weight = 1.0);

    /** Emit the AVFs of bucket @p idx into `output`. */
    void emitBucket(std::size_t idx);

    const cpu::Pipeline &pipeline;
    SoftArchConfig conf;

    std::vector<Record> records;
    /** Sequence number of records[0]. */
    InstrSeq baseSeq = 0;
    /** Next interval index to *finalize* (attribute + drop). */
    std::size_t nextFinalize = 0;
    /** Next interval index to emit (lags finalize by one). */
    std::size_t nextEmit = 0;

    std::vector<Bucket> buckets;
    std::vector<SoftArchAvf> output;

    // scratch for the backward pass (reused across finalizations)
    std::vector<std::uint8_t> aceFlag;
    std::vector<Cycle> lastAceRead;
};

} // namespace avf::softarch

#endif // AVF_SOFTARCH_ACE_ANALYZER_HH
