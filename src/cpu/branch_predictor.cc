#include "cpu/branch_predictor.hh"

#include "util/logging.hh"

namespace avf::cpu
{

BranchPredictor::BranchPredictor(int tableBits, int historyBits)
{
    avf_assert(tableBits > 0 && tableBits <= 24,
               "predictor table bits out of range");
    avf_assert(historyBits >= 0 && historyBits <= tableBits,
               "history longer than index");
    table.assign(std::size_t(1) << tableBits, 1); // weakly not-taken
    tableError.assign(table.size(), 0);
    indexMask = (std::uint32_t(1) << tableBits) - 1;
    historyMask = historyBits
        ? (std::uint32_t(1) << historyBits) - 1
        : 0;
}

bool
BranchPredictor::predictAndUpdate(Addr pc, bool taken)
{
    ++statsData.lookups;
    std::uint32_t idx =
        (static_cast<std::uint32_t>(pc >> 2) ^ history) & indexMask;
    std::uint8_t &ctr = table[idx];
    bool predicted = ctr >= 2;

    // The update rewrites this entry, killing any resident injected
    // bits (correct state overwrites the flip). One summary-mask test
    // keeps the unarmed common case free.
    if (errAny != 0 && tableError[idx] != 0) {
        killedBits |= tableError[idx];
        errAny &= ~tableError[idx];
        tableError[idx] = 0;
    }

    if (taken && ctr < 3)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;

    history = ((history << 1) | (taken ? 1 : 0)) & historyMask;

    if (predicted != taken) {
        ++statsData.mispredicts;
        return false;
    }
    return true;
}

InjectOutcome
BranchPredictor::injectError(int slot, ErrorMask mask)
{
    if (slot < 0 || slot >= numSlots())
        return InjectOutcome::Rejected;
    tableError[static_cast<std::size_t>(slot)] |= mask;
    errAny |= mask;
    return InjectOutcome::Occupied;
}

void
BranchPredictor::clearErrors(ErrorMask mask)
{
    killedBits &= ~mask;
    if ((errAny & mask) == 0)
        return;
    for (ErrorMask &bits : tableError)
        bits &= ~mask;
    errAny &= ~mask;
}

} // namespace avf::cpu
