#include "mem/tlb.hh"

#include <bit>

#include "util/logging.hh"

namespace avf::mem
{

Tlb::Tlb(TlbConfig config) : conf(std::move(config))
{
    if (!std::has_single_bit(conf.pageBytes))
        fatal("tlb '%s': page size must be a power of two",
              conf.name.c_str());
    if (conf.entries == 0)
        fatal("tlb '%s': entry count must be positive",
              conf.name.c_str());
    pageShift = static_cast<std::uint32_t>(
        std::countr_zero(conf.pageBytes));
    entries.resize(conf.entries);
    errors.resize(conf.entries);
    index.reserve(conf.entries * 2);
}

std::uint32_t
Tlb::access(Addr addr, Cycle now, ErrorMask *errorOut)
{
    ++statsData.accesses;
    ++tick;
    Addr page = addr >> pageShift;

    auto it = index.find(page);
    if (it != index.end()) {
        Entry &entry = entries[static_cast<std::size_t>(it->second)];
        entry.lruStamp = tick;
        if (errorOut)
            *errorOut = errors.get(static_cast<std::size_t>(it->second));
        // The span since the previous use was vulnerable: corrupting
        // the entry anywhere in it would have corrupted this use.
        if (now > entry.lastTouch) {
            statsData.aceCycles += now - entry.lastTouch;
            entry.lastTouch = now;
        }
        return 0;
    }

    ++statsData.misses;
    if (errorOut)
        *errorOut = 0; // fresh page walk: clean translation

    // Pick a victim: an invalid slot if any, else true LRU.
    int victim = 0;
    std::uint64_t oldest = UINT64_MAX;
    for (int s = 0; s < numSlots(); ++s) {
        const Entry &entry = entries[static_cast<std::size_t>(s)];
        if (!entry.valid) {
            victim = s;
            oldest = 0;
            break;
        }
        if (entry.lruStamp < oldest) {
            oldest = entry.lruStamp;
            victim = s;
        }
    }

    Entry &slot = entries[static_cast<std::size_t>(victim)];
    if (slot.valid)
        index.erase(slot.page);
    slot.page = page;
    slot.valid = true;
    slot.lruStamp = tick;
    slot.lastTouch = now;
    // Refill overwrites any injected error: this is the TLB's kill
    // discipline, analogous to pipeline.cc's destination-overwrite
    // kill.
    errors.setMask(static_cast<std::size_t>(victim), 0);
    index[page] = victim;
    return conf.missPenalty;
}

void
Tlb::flush()
{
    for (auto &entry : entries)
        entry.valid = false;
    index.clear();
}

InjectOutcome
Tlb::injectError(int slot, ErrorMask mask)
{
    if (slot < 0 || slot >= numSlots())
        return InjectOutcome::Rejected;
    Entry &entry = entries[static_cast<std::size_t>(slot)];
    if (!entry.valid)
        return InjectOutcome::Opened;
    // The TLB's injection (carry) helper — the sanctioned entry
    // point Pipeline::injectError routes dTLB sites to.
    errors.orMask(static_cast<std::size_t>(slot), mask);
    return InjectOutcome::Occupied;
}

void
Tlb::clearErrors(ErrorMask mask)
{
    errors.clearChannels(mask);
}

double
Tlb::referenceAvf(Cycle now) const
{
    if (now == 0)
        return 0.0;
    return static_cast<double>(statsData.aceCycles) /
           (static_cast<double>(now) *
            static_cast<double>(numSlots()));
}

} // namespace avf::mem
