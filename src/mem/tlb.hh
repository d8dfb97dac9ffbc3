/**
 * @file
 * Fully-associative LRU TLB (128 entries per Table 1). Misses add a
 * fixed page-walk penalty.
 *
 * Beyond timing, the TLB carries the error-bit machinery needed for
 * the paper's footnote 1 experiment (TLB AVF estimation needs M near
 * one million cycles): per-entry error bits that corrupt the next
 * translation that uses the entry, plus exact ACE accounting — an
 * entry is ACE between consecutive uses (corrupting it in that span
 * corrupts the later use), and un-ACE from its last use to eviction.
 */

#ifndef AVF_MEM_TLB_HH
#define AVF_MEM_TLB_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error_plane.hh"
#include "util/types.hh"

namespace avf::mem
{

/** TLB configuration. */
struct TlbConfig
{
    /** Name for stats. */
    std::string name = "tlb";
    /** Number of entries. */
    std::uint32_t entries = 128;
    /** Page size in bytes. */
    std::uint32_t pageBytes = 4096;
    /** Page-walk penalty charged on a miss, in cycles. */
    std::uint32_t missPenalty = 50;
};

/** Hit/miss counters. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    /** Accumulated ACE cycles across all entries (see file doc). */
    std::uint64_t aceCycles = 0;
};

/** Fully-associative LRU translation buffer with error bits. */
class Tlb
{
  public:
    /** Build from @p config. */
    explicit Tlb(TlbConfig config);

    /**
     * Translate the page of @p addr.
     *
     * @param addr access address.
     * @param now current cycle (0 for callers that do not track
     *        time; ACE accounting is skipped then).
     * @param errorOut when non-null, receives the error bits riding
     *        on the translation used by this access.
     * @return extra latency in cycles (0 on hit).
     */
    std::uint32_t access(Addr addr, Cycle now = 0,
                         ErrorMask *errorOut = nullptr);

    /** Accumulated statistics. */
    const TlbStats &stats() const { return statsData; }

    /** Invalidate all entries. */
    void flush();

    /** Geometry in use. */
    const TlbConfig &config() const { return conf; }

    // ---- error-bit plane (extension experiment) ----

    /**
     * Inject error bits into entry slot @p slot, which must be in
     * [0, numSlots()).
     *
     * @return InjectOutcome::Opened when the slot holds no valid
     *         translation (the injection is trivially masked),
     *         Occupied when the bits landed on a live translation.
     */
    InjectOutcome injectError(int slot, ErrorMask mask);

    /** Clear the given channels from every entry. */
    void clearErrors(ErrorMask mask);

    /** Number of entry slots (valid or not). */
    int numSlots() const { return static_cast<int>(entries.size()); }

    /**
     * Exact reference AVF over [0, now): the fraction of entry-cycles
     * that were ACE (an injected corruption then would have corrupted
     * a later translation).
     */
    double referenceAvf(Cycle now) const;

  private:
    struct Entry
    {
        Addr page = 0;
        std::uint64_t lruStamp = 0;
        Cycle lastTouch = 0;
        bool valid = false;
    };

    TlbConfig conf;
    std::uint32_t pageShift;
    std::vector<Entry> entries;
    /**
     * Per-slot error masks, parallel to `entries`. A separate
     * word-backed plane (rather than a mask in Entry) so the
     * channel-wide clearErrors() sweep runs one AND-NOT per slot
     * over a dense array instead of strided structs, and skips
     * entirely while no channel is live — the steady state between
     * TLB-AVF experiments.
     */
    ErrorPlane errors;
    /** page number -> slot, for O(1) hits. */
    std::unordered_map<Addr, int> index;
    std::uint64_t tick = 0;
    TlbStats statsData;
};

} // namespace avf::mem

#endif // AVF_MEM_TLB_HH
