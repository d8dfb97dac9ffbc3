#include "softarch/ace_analyzer.hh"

#include <algorithm>
#include <limits>

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
    avf_assert(instr.seq == baseSeq + count,
               "retirement out of sequence order");

    if (head + count == liveBlocks * blockRecords) {
        // Post-hoc ACE analysis buffers the retire window by design.
        // A new block comes only while the log first grows to its
        // longest interval plus lookahead; after that every block is
        // a recycled one.
        if (liveBlocks == blocks.size()) // avflint: allow(hot-path-alloc)
            blocks.push_back(std::make_unique<Block>());
        ++liveBlocks;
    }

    Link &link = linkAt(count);
    link.issueCycle = instr.issueCycle;
    for (std::size_t s = 0; s < link.producerDistance.size(); ++s) {
        InstrSeq producer = instr.srcProducer[s];
        std::uint32_t distance = 0;
        if (producer != invalidSeq && producer >= baseSeq) {
            // The producer is buffered, so the distance is at most
            // the record count.
            avf_assert(producer < instr.seq &&
                           instr.seq - producer <=
                               std::numeric_limits<std::uint32_t>::max(),
                       "producer does not precede consumer in the log");
            distance = static_cast<std::uint32_t>(instr.seq - producer);
        }
        link.producerDistance[s] = distance;
    }
    link.failurePoint = instr.isFailurePoint();

    Span &span = spanAt(count);
    avf_assert(instr.dispatchCycle <= instr.issueCycle &&
                   instr.issueCycle <= instr.completeCycle &&
                   instr.completeCycle <= instr.retireCycle &&
                   instr.retireCycle - instr.dispatchCycle <=
                       std::numeric_limits<std::uint32_t>::max(),
               "stage cycles out of order or in flight too long");
    span.dispatchLead =
        static_cast<std::uint32_t>(instr.issueCycle - instr.dispatchCycle);
    span.completeLag =
        static_cast<std::uint32_t>(instr.completeCycle - instr.issueCycle);
    span.retireLag =
        static_cast<std::uint32_t>(instr.retireCycle - instr.issueCycle);
    span.lastAceRead = 0;
    span.destPhys = instr.destPhys;
    span.numSrcs = static_cast<std::uint8_t>(instr.in.numSrcs());
    span.fuClass = static_cast<std::uint8_t>(instr.fu);
    span.inIq = instr.iqGlobalEntry >= 0;
    span.ace = false;
    ++count;
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
    // Records that survived the previous pass keep its marks. Those
    // marks are a lower bound of this pass's: a surviving record's
    // readers all survived with it and stay ACE, and new records only
    // add readers. So this pass needs no reset and yields the marks
    // a pass from zero would.
    for (std::size_t i = count; i-- > 0;) {
        const Link &rec = linkAt(i);
        Span &self = spanAt(i);
        bool ace = rec.failurePoint || self.ace;
        self.ace = ace;
        if (!ace)
            continue;
        for (std::uint32_t distance : rec.producerDistance) {
            // 0: no producer; beyond i: dropped since this retired.
            if (distance == 0 || distance > i)
                continue;
            Span &producer = spanAt(i - distance);
            producer.ace = true;
            if (rec.issueCycle > producer.lastAceRead)
                producer.lastAceRead = rec.issueCycle;
        }
    }

    // ---- attribute and drop the prefix that retired before `end` ----
    const int int_regs = pipeline.numIntPhysRegs();
    std::size_t drop = 0;
    for (; drop < count; ++drop) {
        const Link &link = linkAt(drop);
        const Span &rec = spanAt(drop);
        const Cycle issue = link.issueCycle;
        if (issue + rec.retireLag >= end)
            break;
        const Cycle complete = issue + rec.completeLag;

        if (rec.inIq) {
            // An issue-queue entry is ACE while it holds an
            // instruction whose corruption would reach a failure
            // point: every load/store/branch (they retire as failure
            // points themselves) and any op with an ACE value. In
            // field-granular mode only the populated fields of the
            // entry are vulnerable.
            if (rec.ace) {
                double weight = 1.0;
                if (conf.fieldGranularIq) {
                    weight = (1.0 + static_cast<double>(rec.numSrcs)) /
                             static_cast<double>(
                                 cpu::Pipeline::iqFieldsPerEntry);
                }
                addSpan(Structure::IQ, issue - rec.dispatchLead, issue,
                        weight);
            }
        }

        if (rec.destPhys >= 0 && rec.lastAceRead > complete) {
            // The register holds an ACE value from writeback until
            // its last ACE read; integer and FP planes are separate
            // structures.
            addSpan(rec.destPhys < int_regs ? Structure::REG
                                            : Structure::FREG,
                    complete, rec.lastAceRead);
        }

        if (rec.ace && !link.failurePoint) {
            // Compute ops occupy their unit from issue to writeback;
            // unit-cycles holding ACE work are vulnerable.
            auto cls = static_cast<cpu::FuClass>(rec.fuClass);
            if (cls == cpu::FuClass::Fxu)
                addSpan(Structure::FXU, issue, complete);
            else if (cls == cpu::FuClass::Fpu)
                addSpan(Structure::FPU, issue, complete);
        }
    }

    // Fully dropped blocks rotate behind the live ones, where the
    // next appends reuse them; no record moves.
    head += drop;
    count -= drop;
    baseSeq += drop;
    const std::size_t spent = head / blockRecords;
    std::rotate(blocks.begin(),
                blocks.begin() + static_cast<std::ptrdiff_t>(spent),
                blocks.begin() + static_cast<std::ptrdiff_t>(liveBlocks));
    liveBlocks -= spent;
    head -= spent * blockRecords;

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
