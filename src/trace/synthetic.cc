#include "trace/synthetic.hh"

#include <algorithm>

#include "util/logging.hh"

namespace avf::trace
{

SyntheticTraceGenerator::RegPool::RegPool(RegIndex first, RegIndex n)
{
    liveAt.fill(none);
    for (RegIndex r = first; r < first + n; ++r)
        write(r);
}

RegIndex
SyntheticTraceGenerator::RegPool::fromTop(std::size_t depth) const
{
    avf_assert(depth < live, "pool depth %zu of %zu", depth, live);
    std::size_t i = used;
    for (;;) {
        --i;
        if (liveAt[static_cast<std::size_t>(entry[i])] == i &&
            depth-- == 0)
            return entry[i];
    }
}

void
SyntheticTraceGenerator::RegPool::kill(RegIndex reg)
{
    std::uint8_t &at = liveAt[static_cast<std::size_t>(reg)];
    if (at != none) {
        at = none;
        --live;
    }
}

void
SyntheticTraceGenerator::RegPool::write(RegIndex reg)
{
    kill(reg);
    if (used == slots)
        compact();
    entry[used] = reg;
    liveAt[static_cast<std::size_t>(reg)] =
        static_cast<std::uint8_t>(used);
    ++used;
    ++live;
}

void
SyntheticTraceGenerator::RegPool::compact()
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < used; ++i) {
        RegIndex reg = entry[i];
        std::uint8_t &at = liveAt[static_cast<std::size_t>(reg)];
        if (at != i)
            continue;
        entry[kept] = reg;
        at = static_cast<std::uint8_t>(kept);
        ++kept;
    }
    used = kept;
}

SyntheticTraceGenerator::SyntheticTraceGenerator(WorkloadProfile profile)
    : prof(std::move(profile)),
      rng(prof.seed ? prof.seed : hashString(prof.name)),
      active(prof.base)
{
    if (!prof.phases.empty()) {
        active = prof.phases[0].params;
        phaseRemaining = prof.phases[0].lengthInstrs;
    }
    siteBias.resize(std::max(active.numBranchSites, 1));
    for (auto &bias : siteBias) {
        // Mixture of strongly-biased and wavering branch sites
        // (most static branches in real code are heavily biased).
        if (rng.chance(0.85))
            bias = rng.chance(0.55) ? 0.96 : 0.04;
        else
            bias = 0.3 + 0.4 * rng.uniform();
    }
    std::uint64_t code = std::max<std::uint64_t>(
        active.codeFootprint, 256);
    siteTarget.resize(siteBias.size());
    for (auto &target : siteTarget)
        target = 0x10000 + (rng.below(code) & ~Addr(3));

    streamPos.resize(std::max(active.numStreams, 1));
    for (std::size_t i = 0; i < streamPos.size(); ++i)
        streamPos[i] = dataBase + i * (active.footprint /
                                       streamPos.size());

    // Hot regions for the irregular accesses: bounded-size regions
    // spread over the footprint, relocated slowly.
    regionBytes = std::clamp<std::uint64_t>(active.footprint / 64,
                                            4096, 16384);
    std::uint64_t region_span = std::max<std::uint64_t>(
        active.footprint > regionBytes ? active.footprint - regionBytes
                                       : 1,
        1);
    hotRegion.resize(24);
    for (auto &base : hotRegion)
        base = dataBase + rng.below(region_span);
}

void
SyntheticTraceGenerator::updatePhase()
{
    if (prof.phases.empty())
        return;
    if (phaseRemaining > 0) {
        --phaseRemaining;
        return;
    }
    phaseIndex = (phaseIndex + 1) % prof.phases.size();
    active = prof.phases[phaseIndex].params;
    phaseRemaining = prof.phases[phaseIndex].lengthInstrs;
    if (phaseRemaining > 0)
        --phaseRemaining;
}

RegIndex
SyntheticTraceGenerator::pickSource(bool fp)
{
    RegIndex base = fp ? static_cast<RegIndex>(numArchIntRegs)
                       : static_cast<RegIndex>(0);
    // Real code constantly re-reads long-lived pointers and loop
    // counters; model that with a fixed share of reads hitting the
    // low registers of each class.
    if (rng.chance(0.10))
        return base + static_cast<RegIndex>(rng.below(4));
    const RegPool &pool = fp ? fpPool : intPool;
    if (pool.size() == 0)
        return base; // nothing readable: fall back to a stable reg
    std::uint64_t depth = rng.geometric(active.depRecency,
                                        pool.size() - 1);
    return pool.fromTop(static_cast<std::size_t>(depth));
}

RegIndex
SyntheticTraceGenerator::pickDest(bool fp)
{
    // Registers 0..3 of each class are long-lived (pointers, loop
    // counters) and are rarely overwritten; the rest are picked
    // uniformly, which yields geometric value lifetimes.
    bool longLived = rng.chance(0.02);
    RegIndex base = fp ? numArchIntRegs : 0;
    if (longLived)
        return base + static_cast<RegIndex>(rng.below(4));
    return base + 4 + static_cast<RegIndex>(
        rng.below(numArchIntRegs - 4));
}

void
SyntheticTraceGenerator::produce(RegIndex reg, bool fp)
{
    RegPool &pool = fp ? fpPool : intPool;
    // Dead values never enter the readable pool: no later instruction
    // will source them, so they are pure architectural masking. The
    // old value in this register is gone either way.
    if (rng.chance(active.deadFrac))
        pool.kill(reg);
    else
        pool.write(reg);
}

Addr
SyntheticTraceGenerator::dataAddress()
{
    std::uint64_t footprint = std::max<std::uint64_t>(
        active.footprint, 128);
    if (rng.chance(active.streamFrac)) {
        std::size_t which = rng.below(streamPos.size());
        Addr addr = streamPos[which];
        streamPos[which] += active.streamStride;
        if (streamPos[which] >= dataBase + footprint)
            streamPos[which] = dataBase + rng.below(footprint / 2);
        return addr & ~Addr(7);
    }
    // Irregular access clusters in a slowly-drifting working set of
    // hot regions (page-local, like real pointer-chasing code).
    std::size_t which = rng.below(hotRegion.size());
    if (rng.chance(0.0005)) {
        std::uint64_t region_span = footprint > regionBytes
            ? footprint - regionBytes
            : 1;
        hotRegion[which] = dataBase + rng.below(region_span);
    }
    return (hotRegion[which] + rng.below(regionBytes)) & ~Addr(7);
}

Addr
SyntheticTraceGenerator::nextPc(bool branchTaken, Addr target)
{
    if (branchTaken)
        pc = target;
    else
        pc += 4;
    return pc;
}

bool
SyntheticTraceGenerator::branchOutcome(int site)
{
    double bias = siteBias[static_cast<std::size_t>(site) %
                           siteBias.size()];
    bool outcome = rng.chance(bias);
    if (rng.chance(active.branchNoise))
        outcome = !outcome;
    return outcome;
}

bool
SyntheticTraceGenerator::next(TraceInstruction &out)
{
    updatePhase();
    ++instrCount;

    out = TraceInstruction{};
    out.pc = pc;

    double draw = rng.uniform();
    double acc = active.loadFrac;
    bool advance_taken = false;
    Addr advance_target = 0;

    if (draw < acc) {
        // ---- load ----
        bool fp_dest = rng.chance(active.fpLoadFrac);
        out.op = OpClass::Load;
        out.src[0] = pickSource(false); // address base register
        out.effAddr = dataAddress();
        out.dest = pickDest(fp_dest);
        produce(out.dest, fp_dest);
    } else if (draw < (acc += active.storeFrac)) {
        // ---- store ----
        out.op = OpClass::Store;
        bool fp_data = rng.chance(active.fpFrac);
        out.src[0] = pickSource(fp_data); // data
        out.src[1] = pickSource(false);   // address base
        out.effAddr = dataAddress();
    } else if (draw < (acc += active.branchFrac)) {
        // ---- branch ----
        int site = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(std::max(
                active.numBranchSites, 1))));
        bool uncond = rng.chance(active.uncondFrac);
        out.op = uncond ? OpClass::BranchUncond : OpClass::BranchCond;
        // Branch PC is the site address so the predictor sees stable
        // static branches.
        out.pc = 0x10000 + static_cast<Addr>(site) * 4;
        if (!uncond) {
            out.src[0] = pickSource(false);
            out.taken = branchOutcome(site);
        } else {
            out.taken = true;
        }
        // Branches jump to their site's fixed target (loops and
        // calls return to the same places), which keeps the I-cache
        // behaviour realistic.
        out.effAddr = siteTarget[static_cast<std::size_t>(site) %
                                 siteTarget.size()];
        advance_taken = out.taken;
        advance_target = out.effAddr;
    } else if (draw < (acc += active.nopFrac)) {
        out.op = OpClass::Nop;
    } else {
        // ---- compute ----
        bool fp = rng.chance(active.fpFrac);
        if (fp) {
            out.op = rng.chance(active.fpDivFrac) ? OpClass::FpDiv
                                                  : OpClass::FpAlu;
            out.src[0] = pickSource(true);
            out.src[1] = pickSource(true);
        } else {
            double sub = rng.uniform();
            if (sub < active.intDivFrac)
                out.op = OpClass::IntDiv;
            else if (sub < active.intDivFrac + active.intMulFrac)
                out.op = OpClass::IntMul;
            else
                out.op = OpClass::IntAlu;
            out.src[0] = pickSource(false);
            out.src[1] = pickSource(false);
        }
        out.dest = pickDest(fp);
        produce(out.dest, fp);
    }

    nextPc(advance_taken, advance_target);
    return true;
}

} // namespace avf::trace
