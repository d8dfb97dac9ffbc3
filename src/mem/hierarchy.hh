/**
 * @file
 * The full memory hierarchy of Table 1: split L1 (32KB 2-way D, 64KB
 * direct-mapped I, 128-byte lines), unified 1MB 4-way L2, and the
 * contentionless latencies 1 / 20 / 165 cycles, plus 128-entry
 * iTLB/dTLB.
 */

#ifndef AVF_MEM_HIERARCHY_HH
#define AVF_MEM_HIERARCHY_HH

#include <cstdint>

#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "util/types.hh"

namespace avf::mem
{

/** Hierarchy-wide configuration (defaults = Table 1). */
struct MemConfig
{
    CacheConfig l1d{"L1D", 32 * 1024, 2, 128};
    CacheConfig l1i{"L1I", 64 * 1024, 1, 128};
    CacheConfig l2{"L2", 1024 * 1024, 4, 128};
    TlbConfig dtlb{"dTLB", 128, 4096, 50};
    TlbConfig itlb{"iTLB", 128, 4096, 50};
    /** L1 hit latency (cycles). */
    std::uint32_t l1Latency = 1;
    /** L2 hit latency (cycles). */
    std::uint32_t l2Latency = 20;
    /** Main-memory latency (cycles). */
    std::uint32_t memLatency = 165;
};

/** Per-side access counters beyond the cache-internal stats. */
struct HierarchyStats
{
    std::uint64_t dataAccesses = 0;
    std::uint64_t instrAccesses = 0;
};

/** Two-level hierarchy with TLBs; returns total access latency. */
class MemoryHierarchy
{
  public:
    /** Build from @p config (defaults reproduce Table 1). */
    explicit MemoryHierarchy(MemConfig config = MemConfig{});

    /**
     * Data-side access (load or store probe).
     *
     * @param addr access address.
     * @param now current cycle (for dTLB ACE accounting; 0 skips it).
     * @param tlbError when non-null, receives the error bits carried
     *        by the dTLB entry that translated this access.
     * @return total latency in cycles, including any TLB penalty.
     */
    std::uint32_t dataAccess(Addr addr, Cycle now = 0,
                             ErrorMask *tlbError = nullptr);

    /**
     * Instruction-side access (one fetch line).
     * @param now current cycle (for iTLB ACE accounting; 0 skips it).
     * @return total latency in cycles.
     */
    std::uint32_t instrAccess(Addr addr, Cycle now = 0);

    /** Mutable dTLB access for the error-injection extension. */
    Tlb &dtlbMutable() { return dataTlb; }

    const Cache &l1d() const { return l1dCache; }
    const Cache &l1i() const { return l1iCache; }
    const Cache &l2() const { return l2Cache; }
    const Tlb &dtlb() const { return dataTlb; }
    const Tlb &itlb() const { return instrTlb; }
    const HierarchyStats &stats() const { return statsData; }
    const MemConfig &config() const { return conf; }

  private:
    MemConfig conf;
    Cache l1dCache;
    Cache l1iCache;
    Cache l2Cache;
    Tlb dataTlb;
    Tlb instrTlb;
    HierarchyStats statsData;
};

} // namespace avf::mem

#endif // AVF_MEM_HIERARCHY_HH
