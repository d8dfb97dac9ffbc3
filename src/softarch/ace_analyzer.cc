#include "softarch/ace_analyzer.hh"

#include <algorithm>

#include "trace/instruction.hh"
#include "util/logging.hh"

namespace avf::softarch
{

using core::Structure;

AceAnalyzer::AceAnalyzer(const cpu::Pipeline &pipe,
                         SoftArchConfig config)
    : pipeline(pipe), conf(config)
{
    avf_assert(conf.intervalCycles > 0, "interval must be positive");
    avf_assert(conf.lookahead > 0, "lookahead must be positive");
}

void
AceAnalyzer::onRetire(const cpu::DynInstr &instr, const cpu::RetireInfo &)
{
    // Retirement is in program order in a trace-driven model, so the
    // sequence number indexes the log directly.
    avf_assert(instr.seq == baseSeq + records.size(),
               "retirement out of sequence order");

    Record rec;
    rec.dispatchCycle = instr.dispatchCycle;
    rec.issueCycle = instr.issueCycle;
    rec.completeCycle = instr.completeCycle;
    rec.retireCycle = instr.retireCycle;
    rec.srcProducer = instr.srcProducer;
    rec.destPhys = instr.destPhys;
    rec.op = static_cast<std::uint8_t>(instr.in.op);
    rec.numSrcs = static_cast<std::uint8_t>(instr.in.numSrcs());
    rec.inIq = instr.iqGlobalEntry >= 0;
    rec.failurePoint = instr.isFailurePoint();
    rec.fuClass = static_cast<std::uint8_t>(instr.fu);
    // Post-hoc ACE analysis buffers the retire window by design; the
    // front-erase in finalizeInterval() keeps capacity, so growth
    // stops after warm-up. avflint: allow(hot-path-alloc)
    records.push_back(rec);
}

void
AceAnalyzer::onCycle(Cycle now)
{
    while (now >= nextWake(now))
        finalizeInterval();
}

Cycle
AceAnalyzer::nextWake(Cycle) const
{
    return (static_cast<Cycle>(nextFinalize) + 1) * conf.intervalCycles +
           conf.lookahead;
}

void
AceAnalyzer::addSpan(Structure s, Cycle lo, Cycle hi, double weight)
{
    if (hi <= lo || weight <= 0.0)
        return;
    std::size_t first = static_cast<std::size_t>(
        lo / conf.intervalCycles);
    std::size_t last = static_cast<std::size_t>(
        (hi - 1) / conf.intervalCycles);
    if (last >= buckets.size())
        buckets.resize(last + 1);
    for (std::size_t b = first; b <= last; ++b) {
        Cycle bucket_lo = static_cast<Cycle>(b) * conf.intervalCycles;
        Cycle bucket_hi = bucket_lo + conf.intervalCycles;
        Cycle ov_lo = std::max(lo, bucket_lo);
        Cycle ov_hi = std::min(hi, bucket_hi);
        buckets[b].aceCycles[static_cast<std::size_t>(s)] +=
            static_cast<double>(ov_hi - ov_lo) * weight;
    }
}

void
AceAnalyzer::finalizeInterval()
{
    const Cycle end = (static_cast<Cycle>(nextFinalize) + 1) *
                      conf.intervalCycles;

    // ---- backward ACE dataflow pass over the whole buffer ----
    const std::size_t count = records.size();
    aceFlag.assign(count, 0);
    lastAceRead.assign(count, 0);

    for (std::size_t i = count; i-- > 0;) {
        const Record &rec = records[i];
        bool ace = rec.failurePoint || aceFlag[i];
        aceFlag[i] = ace ? 1 : 0;
        if (!ace)
            continue;
        for (InstrSeq producer : rec.srcProducer) {
            if (producer == invalidSeq || producer < baseSeq)
                continue;
            std::size_t idx =
                static_cast<std::size_t>(producer - baseSeq);
            avf_assert(idx < i, "producer does not precede consumer");
            aceFlag[idx] = 1;
            if (rec.issueCycle > lastAceRead[idx])
                lastAceRead[idx] = rec.issueCycle;
        }
    }

    // ---- attribute and drop the prefix that retired before `end` ----
    const int int_regs = pipeline.numIntPhysRegs();
    std::size_t drop = 0;
    while (drop < count && records[drop].retireCycle < end) {
        const Record &rec = records[drop];

        if (rec.inIq) {
            // An issue-queue entry is ACE while it holds an
            // instruction whose corruption would reach a failure
            // point: every load/store/branch (they retire as failure
            // points themselves) and any op with an ACE value. In
            // field-granular mode only the populated fields of the
            // entry are vulnerable.
            bool iq_ace = rec.failurePoint || aceFlag[drop];
            if (iq_ace) {
                double weight = 1.0;
                if (conf.fieldGranularIq) {
                    weight = (1.0 + static_cast<double>(rec.numSrcs)) /
                             static_cast<double>(
                                 cpu::Pipeline::iqFieldsPerEntry);
                }
                addSpan(Structure::IQ, rec.dispatchCycle,
                        rec.issueCycle, weight);
            }
        }

        if (rec.destPhys >= 0 &&
            lastAceRead[drop] > rec.completeCycle) {
            // The register holds an ACE value from writeback until
            // its last ACE read; integer and FP planes are separate
            // structures.
            addSpan(rec.destPhys < int_regs ? Structure::REG
                                            : Structure::FREG,
                    rec.completeCycle, lastAceRead[drop]);
        }

        if (aceFlag[drop] && !rec.failurePoint) {
            // Compute ops occupy their unit from issue to writeback;
            // unit-cycles holding ACE work are vulnerable.
            auto cls = static_cast<cpu::FuClass>(rec.fuClass);
            if (cls == cpu::FuClass::Fxu)
                addSpan(Structure::FXU, rec.issueCycle,
                        rec.completeCycle);
            else if (cls == cpu::FuClass::Fpu)
                addSpan(Structure::FPU, rec.issueCycle,
                        rec.completeCycle);
        }

        ++drop;
    }

    records.erase(records.begin(),
                  records.begin() + static_cast<std::ptrdiff_t>(drop));
    baseSeq += drop;

    // Bucket (nextFinalize - 1) can no longer receive spans: emit it.
    if (nextFinalize >= 1)
        emitBucket(nextFinalize - 1);
    ++nextFinalize;
}

void
AceAnalyzer::emitBucket(std::size_t idx)
{
    avf_assert(idx == output.size(),
               "buckets must be emitted in order (%zu vs %zu)",
               idx, output.size());
    if (idx >= buckets.size())
        buckets.resize(idx + 1);
    const Bucket &bucket = buckets[idx];

    auto interval = static_cast<double>(conf.intervalCycles);
    const auto &conf_cpu = pipeline.config();

    SoftArchAvf avf;
    avf[Structure::IQ] =
        bucket.aceCycles[static_cast<int>(Structure::IQ)] /
        (interval * static_cast<double>(conf_cpu.totalIqEntries()));
    avf[Structure::REG] =
        bucket.aceCycles[static_cast<int>(Structure::REG)] /
        (interval * static_cast<double>(pipeline.numIntPhysRegs()));
    avf[Structure::FXU] =
        bucket.aceCycles[static_cast<int>(Structure::FXU)] /
        (interval * static_cast<double>(conf_cpu.numFxu));
    avf[Structure::FPU] =
        bucket.aceCycles[static_cast<int>(Structure::FPU)] /
        (interval * static_cast<double>(conf_cpu.numFpu));
    avf[Structure::FREG] =
        bucket.aceCycles[static_cast<int>(Structure::FREG)] /
        (interval * static_cast<double>(conf_cpu.fpPhysRegs));
    // One row per finalized analysis interval.
    // avflint: allow(hot-path-alloc)
    output.push_back(avf);
}

void
AceAnalyzer::finalizeAll(std::size_t throughInterval)
{
    while (nextFinalize <= throughInterval + 1)
        finalizeInterval();
}

} // namespace avf::softarch
