/**
 * @file
 * Fundamental typedefs shared across the simulator and the AVF estimators.
 */

#ifndef AVF_UTIL_TYPES_HH
#define AVF_UTIL_TYPES_HH

#include <cstdint>
#include <limits>

namespace avf
{

/** Simulated clock cycle count. */
using Cycle = std::uint64_t;

/** Dynamic-instruction sequence number (monotonic over a run). */
using InstrSeq = std::uint64_t;

/** Simulated byte address. */
using Addr = std::uint64_t;

/** Architectural or physical register index. */
using RegIndex = std::int16_t;

/** Sentinel for "no register". */
inline constexpr RegIndex invalidReg = -1;

/** Sentinel for "no sequence number yet". */
inline constexpr InstrSeq invalidSeq =
    std::numeric_limits<InstrSeq>::max();

/** Sentinel cycle meaning "never happened / not yet". */
inline constexpr Cycle neverCycle = std::numeric_limits<Cycle>::max();

/**
 * Error-bit channels. One bit per concurrently-tracked injection
 * lane: every lane is an independent one-error-at-a-time estimation
 * riding the same word-level propagation (OR at issue, overwrite at
 * complete, failure-point test at retire), so 64 tagged campaigns
 * advance per plane word. Lives here rather than in cpu/ because the
 * memory hierarchy (TLB error plane) speaks the same mask type.
 */
using ErrorMask = std::uint64_t;

/** Maximum number of concurrent estimation channels (bit lanes). */
inline constexpr int numErrorChannels = 64;

/** Lane index into an ErrorMask, 0..numErrorChannels-1. */
using LaneId = int;

/** The bit a lane occupies in every ErrorMask word. */
constexpr ErrorMask
laneBit(LaneId lane)
{
    return ErrorMask{1} << lane;
}

/**
 * Typed result of an injection request. Replaces the bare bool whose
 * `false` conflated "slot out of range" with "slot empty": callers
 * that used to drop the distinction now have to spell out which
 * rejection they tolerate.
 */
enum class InjectOutcome
{
    Rejected, ///< invalid target (out of range): nothing was written
    Occupied, ///< bit landed on a live/occupied target
    Opened,   ///< bit landed on an empty target (trivially maskable)
};

} // namespace avf

#endif // AVF_UTIL_TYPES_HH
