/**
 * @file
 * Synthetic dynamic-instruction generator. Stands in for the SPEC
 * CPU2000 Aria traces used by the paper: it produces an unbounded,
 * deterministic instruction stream whose dataflow (dependency
 * distances, dead-value fraction), control flow (branch bias/noise),
 * and memory behaviour (footprint, streaming) follow a WorkloadProfile
 * and its phase schedule.
 */

#ifndef AVF_TRACE_SYNTHETIC_HH
#define AVF_TRACE_SYNTHETIC_HH

#include <array>
#include <cstdint>
#include <vector>

#include "trace/trace_source.hh"
#include "trace/workload_profile.hh"
#include "util/random.hh"

namespace avf::trace
{

/** Deterministic synthetic workload; an infinite TraceSource. */
class SyntheticTraceGenerator : public TraceSource
{
  public:
    /** Build a generator for @p profile. */
    explicit SyntheticTraceGenerator(WorkloadProfile profile);

    /** Always succeeds: the stream is infinite. */
    bool next(TraceInstruction &out) override;

    /** Dynamic instructions generated so far. */
    std::uint64_t generated() const { return instrCount; }

    /** Parameters currently in force (for tests and inspection). */
    const PhaseParams &currentParams() const { return active; }

    /** Index of the phase currently in force (0 if no phases). */
    std::size_t currentPhase() const { return phaseIndex; }

    /** The profile this generator was built from. */
    const WorkloadProfile &profile() const { return prof; }

  private:
    /** Advance the phase schedule if the current phase expired. */
    void updatePhase();

    /** Pick a source register of the given class with recency bias. */
    RegIndex pickSource(bool fp);

    /** Pick a destination register of the given class. */
    RegIndex pickDest(bool fp);

    /** Record that @p reg now holds a fresh value; handles deadness. */
    void produce(RegIndex reg, bool fp);

    /** Produce a data address according to the memory behaviour. */
    Addr dataAddress();

    /** Produce the next instruction PC (models code footprint). */
    Addr nextPc(bool branchTaken, Addr target);

    /** Generate a branch outcome for branch-site @p site. */
    bool branchOutcome(int site);

    WorkloadProfile prof;
    Rng rng;
    PhaseParams active;
    std::size_t phaseIndex = 0;
    std::uint64_t phaseRemaining = 0;
    std::uint64_t instrCount = 0;

    /**
     * The readable values of one register class in write order, most
     * recent last. A register holds one value, so a pool never has
     * more than the class's 32 registers. A write appends an entry and
     * leaves the register's older entry stale rather than erasing it;
     * only live entries count, and stale ones are squeezed out when
     * the entry array fills.
     */
    class RegPool
    {
      public:
        /** Seed the pool with registers [first, first + n). */
        RegPool(RegIndex first, RegIndex n);

        /** Live entries. */
        std::size_t size() const { return live; }

        /** The live value @p depth entries below the most recent. */
        RegIndex fromTop(std::size_t depth) const;

        /** Drop @p reg's value, if it is readable. */
        void kill(RegIndex reg);

        /** Make @p reg's new value the most recent. */
        void write(RegIndex reg);

      private:
        static constexpr std::size_t slots = 128;
        static constexpr std::uint8_t none = 0xff;

        /** Keep only the live entries, in order, at the front. */
        void compact();

        std::array<RegIndex, slots> entry{};
        /** Index of each register's live entry, `none` if it has none. */
        std::array<std::uint8_t, numArchRegs> liveAt;
        std::size_t used = 0;
        std::size_t live = 0;
    };

    // Seeded so the first instructions have sources to read: low
    // registers model long-lived pointers and loop counters.
    RegPool intPool{0, 6};
    RegPool fpPool{numArchIntRegs, 6};

    /** Per-branch-site taken bias in [0,1]. */
    std::vector<double> siteBias;
    /** Per-branch-site fixed target (loops jump to fixed places). */
    std::vector<Addr> siteTarget;

    /** Stream contexts for the address engine. */
    std::vector<Addr> streamPos;
    /**
     * Hot-region bases for the non-streaming accesses: irregular
     * access in real programs still clusters in pages; a working set
     * of bounded regions keeps dTLB behaviour realistic while still
     * stressing the caches.
     */
    std::vector<Addr> hotRegion;
    /** Bytes per hot region. */
    std::uint64_t regionBytes = 8192;

    Addr pc = 0x10000;
    Addr dataBase = 0x10000000;
};

} // namespace avf::trace

#endif // AVF_TRACE_SYNTHETIC_HH
