/**
 * @file
 * Trace-driven out-of-order superscalar timing model in the style of
 * Turandot: fetch through an instruction buffer with a gshare
 * predictor (mispredictions stall fetch until resolve + redirect),
 * register renaming onto physical register files, dispatch groups,
 * three issue queues, fully-pipelined functional units with Table 1
 * latencies, a store queue with store-to-load forwarding, and
 * in-order group retirement from a reorder buffer.
 *
 * The pipeline carries the paper's error-bit plane: every physical
 * register, issue-queue entry (via the occupying instruction), and
 * functional unit can be "injected" with a per-channel error bit that
 * then propagates with execution exactly as Section 3 describes —
 * reads OR source bits into the consumer, overwrites kill bits, idle
 * structures mask injections, and retiring loads/stores/branches are
 * the failure points.
 */

#ifndef AVF_CPU_PIPELINE_HH
#define AVF_CPU_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/config.hh"
#include "cpu/dyn_instr.hh"
#include "cpu/observer.hh"
#include "cpu/rename.hh"
#include "mem/hierarchy.hh"
#include "trace/trace_source.hh"
#include "util/error_plane.hh"
#include "util/types.hh"

namespace avf::cpu
{

/**
 * Where Pipeline::injectError can set an error bit: the structures
 * the paper estimates (registers, issue queue, functional units),
 * the dTLB, and the structures it models but never estimates (fetch
 * buffer, rename map, branch predictor; see obs::CoverageProbe).
 */
enum class InjectTarget : int
{
    IntReg,    ///< integer physical register
    FpReg,     ///< floating-point physical register
    IqEntry,   ///< whole issue-queue entry (global index)
    IqField,   ///< one field of an issue-queue entry (Section 3.6)
    Fxu,       ///< fixed-point functional unit
    Fpu,       ///< floating-point functional unit
    Dtlb,      ///< data-TLB entry slot
    FetchBuf,  ///< fetch-buffer slot
    RenameMap, ///< rename-map slot (architectural register)
    BranchPred ///< branch-predictor counter slot
};

/** Aggregate pipeline counters. */
struct PipelineStats
{
    std::uint64_t cycles = 0;
    std::uint64_t fetched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;
    std::uint64_t retired = 0;
    std::uint64_t fetchStallCycles = 0;
    /** Branch mispredictions resolved (fetch redirects issued). */
    std::uint64_t redirects = 0;
    /** Cycles each unit class had at least one op in flight, summed
     *  over the units of the class (unit-cycles). */
    std::uint64_t busyUnitCycles[static_cast<int>(
        FuClass::NumClasses)] = {0, 0, 0, 0};
    /** Sum over cycles of occupied issue-queue entries (all queues). */
    std::uint64_t iqOccupancySum = 0;
    /** Sum over cycles of occupied ROB entries. */
    std::uint64_t robOccupancySum = 0;

    /** Retired instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(retired) /
                        static_cast<double>(cycles)
                      : 0.0;
    }
};

/** The out-of-order core. */
class Pipeline
{
  public:
    /**
     * @param config machine parameters (validated here).
     * @param source dynamic instruction stream; must outlive this.
     */
    Pipeline(const CpuConfig &config, trace::TraceSource &source);

    /**
     * Attach an observer (not owned); order of attach = call order.
     * Its instruction hooks are the ones its hooks() names when
     * attached. Its first onCycle comes at the end of the current
     * cycle; after that, only on the cycles its nextWake() names.
     */
    void addObserver(PipelineObserver *observer);

    /**
     * Advance one cycle.
     * @return false once the trace is exhausted and the core drained.
     */
    bool step();

    /** Run for at most @p cycles cycles (stops early when drained). */
    void run(Cycle cycles);

    /** True when no work remains anywhere in the machine. */
    bool done() const;

    /** Current cycle. */
    Cycle now() const { return currentCycle; }

    // ---- error-bit plane (Section 3.5 hardware support) ----

    /** Fields per issue-queue entry in field-granular mode: the
     *  opcode/control field plus three source-operand fields. */
    static constexpr int iqFieldsPerEntry = 4;

    /**
     * Inject an error by OR-ing @p mask into the error bits of entry
     * @p entry of @p target (0 .. numSites(target)-1; for IqField the
     * global IQ entry, 0 .. totalIqEntries()-1). @p field is the IQ
     * field for IqField (0 = opcode/control, 1..3 = source operand
     * slots) and -1 for every other target. Out-of-range arguments
     * are fatal. What each target corrupts:
     *
     *  - IntReg / FpReg: the register (FpReg entries count from the
     *    first FP physical register).
     *  - IqEntry / IqField: the occupying instruction's value; an
     *    unused operand field masks the injection. Any bit error in
     *    a populated field makes the whole value wrong (value
     *    granularity, conservative, as in the paper).
     *  - Fxu / Fpu: every operation resident in the unit this cycle.
     *  - Dtlb: the slot's translation (mem::Tlb::injectError).
     *  - FetchBuf: the buffered instruction (0 = oldest), which then
     *    dispatches erroneous exactly like an IQ-entry injection.
     *  - RenameMap: the physical register the slot currently names
     *    (a flipped map bit steers every consumer to the wrong
     *    register, modelled at value granularity, conservatively).
     *  - BranchPred: the counter. Predictor state is architecturally
     *    masked (a flip can change timing, never a retired value), so
     *    the bit either dies when an update overwrites its entry —
     *    query branchPredKilledMask() — or sits until swept.
     *
     * @return Occupied when the bit landed on live state, Opened when
     *         it landed on an empty entry, unused field or idle unit
     *         (trivially masked). Registers, rename-map slots and
     *         predictor counters are always Occupied: register
     *         liveness is not observable at inject time, and the
     *         paper counts every register injection as live.
     */
    InjectOutcome injectError(InjectTarget target, int entry, int field,
                              ErrorMask mask);

    /** Injection sites of @p target: its entries, times
     *  iqFieldsPerEntry for IqField. */
    int numSites(InjectTarget target) const;

    /** Clear the given channels everywhere (between injections). */
    void clearErrorChannels(ErrorMask mask);

    /**
     * Route PipelineObserver::onErrorHop events to @p sink; nullptr
     * (the default) disables them. Hop events go to one dedicated
     * sink rather than the whole observer list because the emission
     * checks sit on the issue/writeback hot paths — fanning every
     * hop out through N virtual no-ops would tax runs that do not
     * trace.
     */
    void setHopSink(PipelineObserver *sink) { hopSink = sink; }

    /** Lanes whose predictor bits were overwritten by updates. */
    ErrorMask branchPredKilledMask() const;

    // ---- dynamic adaptation knobs ----

    /**
     * Throttle dispatch to at most @p width instructions per cycle
     * (a classic vulnerability-reduction mechanism: fewer
     * instructions in flight means lower occupancy and lower AVF at
     * an IPC cost). Pass 0 to restore the configured width.
     */
    void setDispatchThrottle(int width);

    /** Current effective dispatch width. */
    int effectiveDispatchWidth() const;

    /** Error bits currently on physical register @p physReg. */
    ErrorMask regErrorAt(int physReg) const;

    /** True if issue-queue global entry @p globalEntry is occupied. */
    bool iqEntryOccupied(int globalEntry) const;

    // ---- introspection ----

    const CpuConfig &config() const { return conf; }
    const PipelineStats &stats() const { return statsData; }
    const mem::MemoryHierarchy &memory() const { return hierarchy; }
    const BranchPredictor &branchPredictor() const { return predictor; }
    const RenameUnit &renameUnit() const { return rename; }

    /** Physical registers in the integer plane (the REG structure). */
    int numIntPhysRegs() const { return rename.intPhysRegs(); }

    /** Total issue-queue entries (the IQ structure). */
    int totalIqEntries() const { return conf.totalIqEntries(); }

  private:
    /** One slot-array issue queue. */
    struct IssueQueue
    {
        std::vector<int> slots; ///< robIdx or -1
        std::vector<int> freeSlots; ///< stack of empty slot indices
        int globalBase = 0; ///< first global entry index of this queue
    };

    /** Issue candidate gathered by issueStage. */
    struct IssueCandidate
    {
        InstrSeq seq;
        int robIdx;
        FuClass cls;
    };

    /** Store-queue entry (circular, program order). */
    struct SqEntry
    {
        bool valid = false;
        bool addrReady = false;
        Addr addr = 0;
        std::uint8_t size = 8;
        ErrorMask error = 0;
        InstrSeq seq = invalidSeq;
    };

    /** Instruction waiting between fetch and dispatch. */
    struct FetchedInstr
    {
        trace::TraceInstruction in;
        Cycle fetchCycle;
        bool mispredicted;
        /** Error bits injected into this buffer slot. */
        ErrorMask error;
    };

    // pipeline stages, called in reverse order each cycle
    void retireStage();
    void completeStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();
    void accountCycle();
    /** Run onCycle for every observer due now, then reschedule. */
    void wakeDueObservers();

    // helpers
    static IqId iqFor(trace::OpClass op);
    static FuClass fuFor(trace::OpClass op);
    int latencyFor(const DynInstr &instr, bool forwarded) const;
    void issueOne(int robIdx, FuClass cls);
    void notifyErrorHop(const DynInstr &instr, ErrorMask bits,
                        ErrorHop hop);
    bool tryDispatchOne(const FetchedInstr &fetched);
    /** Entries of injection target @p target (fields not counted). */
    int entriesOf(InjectTarget target) const;
    /** ROB index occupying global IQ entry @p globalEntry, or -1. */
    int iqRobIndex(int globalEntry) const;
    /** Fetch-buffer ring index @p offset entries after the head. */
    int fetchSlot(int offset) const
    {
        int idx = fetchHead + offset;
        return idx >= conf.fetchBufferEntries
                   ? idx - conf.fetchBufferEntries
                   : idx;
    }
    void scheduleCompletion(int robIdx, Cycle when);
    /** Search the store queue for a forwardable older store. */
    int findForwardingStore(const DynInstr &load) const;

    DynInstr &robAt(int idx) { return rob[static_cast<std::size_t>(idx)]; }

    CpuConfig conf;
    trace::TraceSource &source;
    mem::MemoryHierarchy hierarchy;
    BranchPredictor predictor;
    RenameUnit rename;
    /** An attached observer and the next cycle its onCycle runs. */
    struct Attached
    {
        PipelineObserver *observer;
        Cycle wake;
    };
    std::vector<Attached> observers;
    /** Instruction-hook subscribers, each in attach order. */
    std::vector<PipelineObserver *> dispatchSubs;
    std::vector<PipelineObserver *> issueSubs;
    std::vector<PipelineObserver *> completeSubs;
    std::vector<PipelineObserver *> retireSubs;
    /** Minimum wake over observers: step()'s one per-cycle compare. */
    Cycle earliestWake = neverWake;

    Cycle currentCycle = 0;
    InstrSeq nextSeq = 0;
    /** 0 = no throttle; otherwise a dispatch-width cap. */
    int dispatchThrottle = 0;
    /** Receiver of onErrorHop events; nullptr = disabled. */
    PipelineObserver *hopSink = nullptr;

    // ROB (circular)
    std::vector<DynInstr> rob;
    int robHead = 0;
    int robTail = 0;
    int robCount = 0;

    // issue queues
    IssueQueue queues[static_cast<int>(IqId::NumQueues)];
    /** Occupied entries over all issue queues. */
    int iqOccupied = 0;

    // physical register state
    std::vector<std::uint8_t> regReady;
    ErrorPlane regError;
    std::vector<InstrSeq> regProducer;
    /**
     * Conservative superset of the error channels present in any ROB
     * errorMask or store-queue entry. Lets clearErrorChannels() skip
     * the ROB and SQ sweeps when the swept channels never reached
     * them — with one channel per estimator and one error at a time,
     * the common case by far. Only ever overcounts: cleared solely by
     * clearErrorChannels() after it swept the channels out.
     */
    ErrorMask errInRobSq = 0;
    /** Same conservative summary for the fetch buffer's slots. */
    ErrorMask errInFetchBuf = 0;

    // store queue (circular)
    std::vector<SqEntry> storeQueue;
    int sqHead = 0;
    int sqTail = 0;
    int sqCount = 0;

    // completion events: ring of robIdx lists
    static constexpr std::size_t ringSize = 1024;
    std::vector<std::vector<int>> completionRing;

    // functional units: in-flight counters for busy accounting plus
    // lazily-pruned (robIdx, completeCycle) lists for error injection
    struct Unit
    {
        std::vector<std::pair<int, Cycle>> resident;
        int inFlight = 0;
    };
    std::vector<Unit> units[static_cast<int>(FuClass::NumClasses)];
    /** Units of each class with inFlight > 0. */
    int busyUnits[static_cast<int>(FuClass::NumClasses)] = {0, 0, 0, 0};
    /**
     * Event-driven wakeup: instructions whose operands are all ready
     * wait here (sorted at issue time); per-register waiter lists
     * move instructions in as their producers write back. This keeps
     * the issue stage O(ready work) instead of O(queue occupancy).
     */
    std::vector<IssueCandidate> readyList;
    /** Scratch for the not-issued leftovers each cycle. */
    std::vector<IssueCandidate> leftoverScratch;
    /** Per-physical-register waiters: (seq, robIdx) pairs. */
    std::vector<std::vector<std::pair<InstrSeq, int>>> regWaiters;
    int unitRoundRobin[static_cast<int>(FuClass::NumClasses)] = {0, 0,
                                                                 0, 0};

    // fetch state: a ring of fetchBufferEntries slots, oldest at
    // fetchHead. The trace source writes straight into the slot past
    // the newest; fetchPending marks an instruction held there across
    // an instruction-cache miss.
    std::vector<FetchedInstr> fetchBuffer;
    int fetchHead = 0;
    int fetchCount = 0;
    bool fetchPending = false;
    bool traceDone = false;
    Cycle fetchResumeCycle = 0;
    bool fetchBlockedOnBranch = false;
    Addr lastFetchLine = ~Addr(0);

    PipelineStats statsData;
};

} // namespace avf::cpu

#endif // AVF_CPU_PIPELINE_HH
