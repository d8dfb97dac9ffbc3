#include "mem/hierarchy.hh"

namespace avf::mem
{

MemoryHierarchy::MemoryHierarchy(MemConfig config)
    : conf(config), l1dCache(conf.l1d), l1iCache(conf.l1i),
      l2Cache(conf.l2), dataTlb(conf.dtlb), instrTlb(conf.itlb)
{}

std::uint32_t
MemoryHierarchy::dataAccess(Addr addr, Cycle now,
                            ErrorMask *tlbError)
{
    ++statsData.dataAccesses;
    std::uint32_t latency = dataTlb.access(addr, now, tlbError);
    if (l1dCache.access(addr))
        return latency + conf.l1Latency;
    if (l2Cache.access(addr))
        return latency + conf.l2Latency;
    return latency + conf.memLatency;
}

std::uint32_t
MemoryHierarchy::instrAccess(Addr addr, Cycle now)
{
    ++statsData.instrAccesses;
    std::uint32_t latency = instrTlb.access(addr, now);
    if (l1iCache.access(addr))
        return latency + conf.l1Latency;
    if (l2Cache.access(addr))
        return latency + conf.l2Latency;
    return latency + conf.memLatency;
}

} // namespace avf::mem
