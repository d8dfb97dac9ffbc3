#include "cpu/pipeline.hh"

#include <algorithm>

#include "util/logging.hh"

namespace avf::cpu
{

using trace::OpClass;

Pipeline::Pipeline(const CpuConfig &config, trace::TraceSource &src)
    : conf(config), source(src), hierarchy(config.mem),
      predictor(config.predictorBits, config.historyBits), rename(config)
{
    conf.validate();
    rob.resize(static_cast<std::size_t>(conf.robEntries));

    auto init_queue = [](IssueQueue &q, int entries, int base) {
        q.slots.assign(static_cast<std::size_t>(entries), -1);
        q.freeSlots.reserve(static_cast<std::size_t>(entries));
        for (int s = entries; s-- > 0;)
            q.freeSlots.push_back(s);
        q.globalBase = base;
    };
    init_queue(queues[static_cast<int>(IqId::IntLs)],
               conf.intLsIqEntries, 0);
    init_queue(queues[static_cast<int>(IqId::Fp)], conf.fpIqEntries,
               conf.intLsIqEntries);
    init_queue(queues[static_cast<int>(IqId::Br)], conf.brIqEntries,
               conf.intLsIqEntries + conf.fpIqEntries);

    int total_regs = rename.totalPhysRegs();
    regReady.assign(static_cast<std::size_t>(total_regs), 1);
    regError.resize(static_cast<std::size_t>(total_regs));
    regProducer.assign(static_cast<std::size_t>(total_regs),
                       invalidSeq);
    regWaiters.resize(static_cast<std::size_t>(total_regs));

    // Steady-state issue traffic never exceeds the ROB; size the
    // scheduling scratch once so the per-cycle loops do not grow it.
    readyList.reserve(static_cast<std::size_t>(conf.robEntries));
    leftoverScratch.reserve(static_cast<std::size_t>(conf.robEntries));

    storeQueue.assign(static_cast<std::size_t>(conf.storeQueueEntries),
                      SqEntry{});
    completionRing.resize(ringSize);
    fetchBuffer.assign(static_cast<std::size_t>(conf.fetchBufferEntries),
                       FetchedInstr{});

    for (int cls = 0; cls < static_cast<int>(FuClass::NumClasses);
         ++cls) {
        units[cls].resize(static_cast<std::size_t>(
            conf.unitsIn(static_cast<FuClass>(cls))));
        // Residency lists are bounded by the ROB; size them once so
        // issueOne never grows them per cycle.
        for (auto &unit : units[cls])
            unit.resident.reserve(
                static_cast<std::size_t>(conf.robEntries));
    }
}

void
Pipeline::addObserver(PipelineObserver *observer)
{
    observers.push_back({observer, currentCycle});
    earliestWake = std::min(earliestWake, currentCycle);
    const unsigned hooks = observer->hooks();
    if (hooks & hookDispatch)
        dispatchSubs.push_back(observer);
    if (hooks & hookIssue)
        issueSubs.push_back(observer);
    if (hooks & hookComplete)
        completeSubs.push_back(observer);
    if (hooks & hookRetire)
        retireSubs.push_back(observer);
}

bool
Pipeline::done() const
{
    return traceDone && !fetchPending && fetchCount == 0 &&
           robCount == 0;
}

bool
Pipeline::step()
{
    if (done())
        return false;

    retireStage();
    completeStage();
    issueStage();
    dispatchStage();
    fetchStage();
    accountCycle();

    if (currentCycle >= earliestWake)
        wakeDueObservers();

    ++currentCycle;
    ++statsData.cycles;
    return !done();
}

void
Pipeline::wakeDueObservers()
{
    // Call every due observer first, in attach order, and only then
    // ask for wakes: an observer's nextWake may read the state that
    // observers attached before it changed this cycle (ControlFeed
    // reads its sources' schedules).
    for (const Attached &a : observers)
        if (a.wake <= currentCycle)
            a.observer->onCycle(currentCycle);
    earliestWake = neverWake;
    for (Attached &a : observers) {
        if (a.wake <= currentCycle)
            a.wake = a.observer->nextWake(currentCycle);
        earliestWake = std::min(earliestWake, a.wake);
    }
}

void
Pipeline::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i)
        if (!step())
            break;
}

// ---------------------------------------------------------------------
// Stage: retirement (in order, up to one dispatch group per cycle)
// ---------------------------------------------------------------------

void
Pipeline::retireStage()
{
    for (int n = 0; n < conf.retireWidth && robCount > 0; ++n) {
        DynInstr &instr = robAt(robHead);
        if (!instr.completed)
            break;

        instr.retireCycle = currentCycle;

        if (instr.in.op == OpClass::Store) {
            // The committing store uses a dTLB translation; a
            // corrupted entry corrupts the store.
            ErrorMask tlb_error = 0;
            hierarchy.dataAccess(instr.in.effAddr, currentCycle,
                                 &tlb_error);
            instr.errorMask |= tlb_error;
            errInRobSq |= tlb_error;
        }

        RetireInfo info;
        if (instr.isFailurePoint())
            info.failureMask = instr.errorMask;

        if (instr.in.op == OpClass::Store) {
            // Free the store-queue slot. Stores retire in program
            // order, so the slot is always the SQ head.
            avf_assert(sqCount > 0, "store retiring with empty SQ");
            avf_assert(storeQueue[static_cast<std::size_t>(
                           sqHead)].seq == instr.seq,
                       "store retire out of SQ order");
            storeQueue[static_cast<std::size_t>(sqHead)] = SqEntry{};
            if (++sqHead == conf.storeQueueEntries)
                sqHead = 0;
            --sqCount;
        }

        if (instr.oldDestPhys >= 0)
            rename.release(instr.oldDestPhys);

        for (PipelineObserver *o : retireSubs)
            o->onRetire(instr, info);

        if (++robHead == conf.robEntries)
            robHead = 0;
        --robCount;
        ++statsData.retired;
    }
}

// ---------------------------------------------------------------------
// Stage: completion / writeback
// ---------------------------------------------------------------------

void
Pipeline::scheduleCompletion(int robIdx, Cycle when)
{
    avf_assert(when > currentCycle && when - currentCycle < ringSize,
               "completion out of ring range (delta %llu)",
               static_cast<unsigned long long>(when - currentCycle));
    // Ring slots keep their capacity across wrap-around clears, so
    // growth stops once the in-flight high-water mark is reached.
    // avflint: allow(hot-path-alloc)
    completionRing[when % ringSize].push_back(robIdx);
}

void
Pipeline::completeStage()
{
    auto &bucket = completionRing[currentCycle % ringSize];
    for (int rob_idx : bucket) {
        DynInstr &instr = robAt(rob_idx);
        avf_assert(instr.issued && !instr.completed,
                   "completion of non-issued instruction");
        avf_assert(instr.completeCycle == currentCycle,
                   "completion ring slot mismatch");
        instr.completed = true;

        if (instr.destPhys >= 0) {
            auto dest = static_cast<std::size_t>(instr.destPhys);
            regReady[dest] = 1;
            if (hopSink) {
                ErrorMask killed = regError.get(dest) &
                    static_cast<ErrorMask>(~instr.errorMask);
                if (killed)
                    notifyErrorHop(instr, killed,
                                   ErrorHop::OverwriteKill);
            }
            // Overwrite, not OR: writing a value replaces whatever
            // error state the register carried (dead-error kill).
            regError.setMask(dest, instr.errorMask);

            // Wake consumers blocked on this register.
            auto &waiters = regWaiters[dest];
            for (auto [seq, waiter_rob] : waiters) {
                DynInstr &waiter = robAt(waiter_rob);
                if (waiter.seq != seq || waiter.issued)
                    continue;
                avf_assert(waiter.pendingSrcs > 0,
                           "waiter with no pending sources");
                if (--waiter.pendingSrcs == 0)
                    readyList.push_back({waiter.seq, waiter_rob,
                                         waiter.fu});
            }
            waiters.clear();
        }

        if (instr.fuUnit >= 0) {
            const int cls = static_cast<int>(instr.fu);
            if (--units[cls][static_cast<std::size_t>(instr.fuUnit)]
                      .inFlight == 0)
                --busyUnits[cls];
        }

        if (instr.in.op == OpClass::Store) {
            auto &entry = storeQueue[static_cast<std::size_t>(
                instr.sqIndex)];
            avf_assert(entry.valid && entry.seq == instr.seq,
                       "store completion against stale SQ entry");
            entry.addr = instr.in.effAddr;
            entry.size = instr.in.memSize;
            entry.addrReady = true;
            entry.error = instr.errorMask;
        }

        if (instr.mispredicted) {
            // Branch resolved: release fetch after the redirect
            // penalty.
            avf_assert(fetchBlockedOnBranch,
                       "mispredicted branch resolved but fetch not "
                       "blocked");
            fetchBlockedOnBranch = false;
            fetchResumeCycle = currentCycle +
                static_cast<Cycle>(conf.redirectPenalty);
            ++statsData.redirects;
        }

        for (PipelineObserver *o : completeSubs)
            o->onComplete(instr);
    }
    bucket.clear();
}

// ---------------------------------------------------------------------
// Stage: issue (oldest-ready-first per queue, bounded by unit counts)
// ---------------------------------------------------------------------

int
Pipeline::latencyFor(const DynInstr &instr, bool forwarded) const
{
    switch (instr.in.op) {
      case OpClass::IntAlu: return conf.intAluLatency;
      case OpClass::IntMul: return conf.intMulLatency;
      case OpClass::IntDiv: return conf.intDivLatency;
      case OpClass::FpAlu: return conf.fpAluLatency;
      case OpClass::FpDiv: return conf.fpDivLatency;
      case OpClass::Store: return conf.storeLatency;
      case OpClass::BranchCond:
      case OpClass::BranchUncond: return conf.branchLatency;
      case OpClass::Load:
        avf_assert(forwarded,
                   "non-forwarded loads resolve latency in issueOne");
        return conf.agenLatency + conf.forwardLatency;
      default:
        panic("latencyFor called for op %d",
              static_cast<int>(instr.in.op));
    }
}

int
Pipeline::findForwardingStore(const DynInstr &load) const
{
    // Scan the store queue youngest-first for an older store with a
    // resolved, matching (8-byte-granular) address.
    Addr dword = load.in.effAddr >> 3;
    int idx = sqTail;
    for (int n = 0; n < sqCount; ++n) {
        idx = (idx == 0 ? conf.storeQueueEntries : idx) - 1;
        const auto &entry = storeQueue[static_cast<std::size_t>(idx)];
        if (entry.valid && entry.seq < load.seq && entry.addrReady &&
            (entry.addr >> 3) == dword) {
            return idx;
        }
    }
    return -1;
}

void
Pipeline::issueOne(int robIdx, FuClass cls)
{
    DynInstr &instr = robAt(robIdx);

    // Read the source registers: error bits travel with the values
    // ("or" gates merge multi-input errors).
    // Hop accounting. hop_carried: bits acquired by reads this issue.
    // hop_once/hop_twice: per-channel origin tracking — a channel bit
    // contributed by two or more origins (prior mask, each erroneous
    // source, forwarded store, dTLB entry) is an OR-merge.
    ErrorMask hop_carried = 0;
    ErrorMask hop_once = hopSink ? instr.errorMask : 0;
    ErrorMask hop_twice = 0;
    for (auto phys : instr.srcPhys) {
        if (phys >= 0) {
            ErrorMask src_bits =
                regError.get(static_cast<std::size_t>(phys));
            instr.errorMask |= src_bits;
            if (hopSink && src_bits) {
                hop_carried |= src_bits;
                hop_twice |= hop_once & src_bits;
                hop_once |= src_bits;
            }
        }
    }

    bool forwarded = false;
    if (instr.in.op == OpClass::Load) {
        int fwd = findForwardingStore(instr);
        if (fwd >= 0) {
            forwarded = true;
            // The loaded value inherits the forwarded store's error.
            ErrorMask fwd_bits =
                storeQueue[static_cast<std::size_t>(fwd)].error;
            instr.errorMask |= fwd_bits;
            if (hopSink && fwd_bits) {
                hop_carried |= fwd_bits;
                hop_twice |= hop_once & fwd_bits;
                hop_once |= fwd_bits;
            }
        }
    }

    // Free the issue-queue entry.
    auto &queue = queues[static_cast<int>(instr.iq)];
    avf_assert(instr.iqEntry >= 0 &&
               queue.slots[static_cast<std::size_t>(instr.iqEntry)] ==
                   robIdx,
               "issue-queue slot inconsistency");
    queue.slots[static_cast<std::size_t>(instr.iqEntry)] = -1;
    queue.freeSlots.push_back(instr.iqEntry);
    --iqOccupied;
    instr.iqEntry = -1;

    // Bind a unit (fully pipelined; round-robin across the class).
    auto &class_units = units[static_cast<int>(cls)];
    int unit = unitRoundRobin[static_cast<int>(cls)];
    unitRoundRobin[static_cast<int>(cls)] =
        unit + 1 == static_cast<int>(class_units.size()) ? 0 : unit + 1;
    instr.fuUnit = static_cast<std::int8_t>(unit);

    int latency;
    if (instr.in.op == OpClass::Load && !forwarded) {
        // The cache access happens at issue; the dTLB entry that
        // translates the access carries its own error bits, which
        // ride into the loaded value.
        ErrorMask tlb_error = 0;
        latency = conf.agenLatency + static_cast<int>(
            hierarchy.dataAccess(instr.in.effAddr, currentCycle,
                                 &tlb_error));
        instr.errorMask |= tlb_error;
        if (hopSink && tlb_error) {
            hop_carried |= tlb_error;
            hop_twice |= hop_once & tlb_error;
            hop_once |= tlb_error;
        }
    } else {
        latency = latencyFor(instr, forwarded);
    }
    if (hopSink) {
        if (hop_carried)
            notifyErrorHop(instr, hop_carried, ErrorHop::ReadCarry);
        if (hop_twice)
            notifyErrorHop(instr, hop_twice, ErrorHop::OrMerge);
        if (instr.errorMask)
            notifyErrorHop(instr, instr.errorMask, ErrorHop::FuTransit);
    }
    // The instruction now carries every channel it will hold while in
    // the ROB (later additions — FU injections, retire-time dTLB
    // reads — maintain the mask at their own sites).
    errInRobSq |= instr.errorMask;
    instr.issued = true;
    instr.issueCycle = currentCycle;
    instr.completeCycle = currentCycle + static_cast<Cycle>(latency);
    scheduleCompletion(robIdx, instr.completeCycle);

    auto &unit_state = class_units[static_cast<std::size_t>(unit)];
    if (unit_state.inFlight++ == 0)
        ++busyUnits[static_cast<int>(cls)];
    // The resident list exists for error injection; prune stale
    // entries lazily once it clearly exceeds the true in-flight set.
    if (unit_state.resident.size() >
        static_cast<std::size_t>(unit_state.inFlight) + 8) {
        auto &res = unit_state.resident;
        res.erase(std::remove_if(res.begin(), res.end(),
                                 [this](const auto &p) {
                                     return p.second <= currentCycle;
                                 }),
                  res.end());
    }
    unit_state.resident.emplace_back(robIdx, instr.completeCycle);

    ++statsData.issued;
    for (PipelineObserver *o : issueSubs)
        o->onIssue(instr);
}

void
Pipeline::notifyErrorHop(const DynInstr &instr, ErrorMask bits,
                         ErrorHop hop)
{
    hopSink->onErrorHop(instr, bits, hop);
}

void
Pipeline::issueStage()
{
    if (readyList.empty())
        return;

    int avail[static_cast<int>(FuClass::NumClasses)];
    for (int cls = 0; cls < static_cast<int>(FuClass::NumClasses);
         ++cls)
        avail[cls] = conf.unitsIn(static_cast<FuClass>(cls));

    std::sort(readyList.begin(), readyList.end(),
              [](const IssueCandidate &a, const IssueCandidate &b) {
                  return a.seq < b.seq;
              });

    leftoverScratch.clear();
    for (const auto &cand : readyList) {
        int cls = static_cast<int>(cand.cls);
        if (avail[cls] <= 0) {
            leftoverScratch.push_back(cand);
            continue;
        }
        --avail[cls];
        issueOne(cand.robIdx, cand.cls);
    }
    readyList.swap(leftoverScratch);
}

// ---------------------------------------------------------------------
// Stage: dispatch (rename + ROB + issue-queue + SQ allocation)
// ---------------------------------------------------------------------

IqId
Pipeline::iqFor(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
      case OpClass::Load:
      case OpClass::Store: return IqId::IntLs;
      case OpClass::FpAlu:
      case OpClass::FpDiv: return IqId::Fp;
      case OpClass::BranchCond:
      case OpClass::BranchUncond: return IqId::Br;
      default: return IqId::NumQueues;
    }
}

FuClass
Pipeline::fuFor(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv: return FuClass::Fxu;
      case OpClass::FpAlu:
      case OpClass::FpDiv: return FuClass::Fpu;
      case OpClass::Load:
      case OpClass::Store: return FuClass::Lsu;
      case OpClass::BranchCond:
      case OpClass::BranchUncond: return FuClass::Bru;
      default: return FuClass::NumClasses;
    }
}

bool
Pipeline::tryDispatchOne(const FetchedInstr &fetched)
{
    if (robCount >= conf.robEntries)
        return false;

    const auto &in = fetched.in;
    IqId iq = iqFor(in.op);
    bool needs_queue = iq != IqId::NumQueues;
    int iq_slot = -1;

    if (needs_queue) {
        auto &queue = queues[static_cast<int>(iq)];
        if (queue.freeSlots.empty())
            return false;
        iq_slot = queue.freeSlots.back();
    }

    if (in.dest != invalidReg && !rename.canAllocate(in.dest))
        return false;

    if (in.op == OpClass::Store && sqCount >= conf.storeQueueEntries)
        return false;

    // All resources available: commit the dispatch.
    int rob_idx = robTail;
    if (++robTail == conf.robEntries)
        robTail = 0;
    ++robCount;

    DynInstr &instr = robAt(rob_idx);
    instr = DynInstr{};
    instr.in = in;
    instr.seq = nextSeq++;
    instr.fetchCycle = fetched.fetchCycle;
    instr.dispatchCycle = currentCycle;
    instr.mispredicted = fetched.mispredicted;
    // Fetch-buffer corruption rides into the machine on the
    // instruction itself; from here the bits propagate exactly like
    // an IQ-entry injection (and must be swept from the ROB).
    instr.errorMask = fetched.error;
    errInRobSq |= fetched.error;
    instr.iq = iq;
    instr.fu = fuFor(in.op);

    // Rename sources and register wakeup waiters for the not-yet-
    // ready ones.
    bool needs_wakeup = iq != IqId::NumQueues;
    for (int s = 0; s < 3; ++s) {
        if (in.src[static_cast<std::size_t>(s)] == invalidReg)
            continue;
        int phys = rename.mapOf(in.src[static_cast<std::size_t>(s)]);
        instr.srcPhys[static_cast<std::size_t>(s)] =
            static_cast<std::int16_t>(phys);
        instr.srcProducer[static_cast<std::size_t>(s)] =
            regProducer[static_cast<std::size_t>(phys)];
        if (needs_wakeup && !regReady[static_cast<std::size_t>(phys)]) {
            ++instr.pendingSrcs;
            // Waiter lists keep capacity across clears; growth stops
            // at each register's consumer high-water mark.
            // avflint: allow(hot-path-alloc)
            regWaiters[static_cast<std::size_t>(phys)].emplace_back(
                instr.seq, rob_idx);
        }
    }
    if (needs_wakeup && instr.pendingSrcs == 0)
        readyList.push_back({instr.seq, rob_idx, instr.fu});

    // Rename destination.
    if (in.dest != invalidReg) {
        int old_phys = -1;
        int phys = rename.allocate(in.dest, old_phys);
        instr.destPhys = static_cast<std::int16_t>(phys);
        instr.oldDestPhys = static_cast<std::int16_t>(old_phys);
        regReady[static_cast<std::size_t>(phys)] = 0;
        regProducer[static_cast<std::size_t>(phys)] = instr.seq;
    }

    if (needs_queue) {
        auto &queue = queues[static_cast<int>(iq)];
        queue.freeSlots.pop_back();
        queue.slots[static_cast<std::size_t>(iq_slot)] = rob_idx;
        ++iqOccupied;
        instr.iqEntry = static_cast<std::int16_t>(iq_slot);
        instr.iqGlobalEntry =
            static_cast<std::int16_t>(queue.globalBase + iq_slot);
    }

    if (in.op == OpClass::Store) {
        auto &entry = storeQueue[static_cast<std::size_t>(sqTail)];
        entry = SqEntry{};
        entry.valid = true;
        entry.seq = instr.seq;
        instr.sqIndex = static_cast<std::int16_t>(sqTail);
        if (++sqTail == conf.storeQueueEntries)
            sqTail = 0;
        ++sqCount;
    }

    if (in.op == OpClass::Nop) {
        // Nops occupy only a ROB slot and complete instantly.
        instr.issued = true;
        instr.completed = true;
        instr.issueCycle = currentCycle;
        instr.completeCycle = currentCycle;
    }

    ++statsData.dispatched;
    for (PipelineObserver *o : dispatchSubs)
        o->onDispatch(instr);
    if (in.op == OpClass::Nop) {
        for (PipelineObserver *o : completeSubs)
            o->onComplete(instr);
    }
    return true;
}

void
Pipeline::dispatchStage()
{
    int width = effectiveDispatchWidth();
    for (int n = 0; n < width && fetchCount > 0; ++n) {
        if (!tryDispatchOne(
                fetchBuffer[static_cast<std::size_t>(fetchHead)]))
            break;
        fetchHead = fetchSlot(1);
        --fetchCount;
    }
}

void
Pipeline::setDispatchThrottle(int width)
{
    avf_assert(width >= 0, "throttle width must be non-negative");
    dispatchThrottle = width;
}

int
Pipeline::effectiveDispatchWidth() const
{
    if (dispatchThrottle > 0 && dispatchThrottle < conf.dispatchWidth)
        return dispatchThrottle;
    return conf.dispatchWidth;
}

// ---------------------------------------------------------------------
// Stage: fetch
// ---------------------------------------------------------------------

void
Pipeline::fetchStage()
{
    if (fetchBlockedOnBranch || currentCycle < fetchResumeCycle) {
        ++statsData.fetchStallCycles;
        return;
    }

    const Addr line_mask = ~static_cast<Addr>(
        conf.mem.l1i.lineBytes - 1);

    for (int n = 0; n < conf.fetchWidth; ++n) {
        if (fetchCount >= conf.fetchBufferEntries)
            break;

        // The slot past the newest: it holds the pending instruction
        // across a miss, since dispatch moves the head, not the tail.
        FetchedInstr &fetched =
            fetchBuffer[static_cast<std::size_t>(fetchSlot(fetchCount))];
        if (!fetchPending) {
            if (traceDone || !source.next(fetched.in)) {
                traceDone = true;
                break;
            }
            fetchPending = true;
        }

        // Instruction-cache access at line granularity.
        Addr line = fetched.in.pc & line_mask;
        if (line != lastFetchLine) {
            std::uint32_t latency = hierarchy.instrAccess(
                fetched.in.pc, currentCycle);
            lastFetchLine = line;
            if (latency > conf.mem.l1Latency) {
                // Miss: the line arrives after `latency` cycles.
                fetchResumeCycle = currentCycle + latency;
                break;
            }
        }

        fetched.fetchCycle = currentCycle;
        fetched.mispredicted = false;
        fetched.error = 0;
        fetchPending = false;

        bool ends_fetch = false;
        if (fetched.in.op == OpClass::BranchCond) {
            bool correct = predictor.predictAndUpdate(
                fetched.in.pc, fetched.in.taken);
            if (!correct) {
                fetched.mispredicted = true;
                fetchBlockedOnBranch = true;
                ends_fetch = true;
            } else if (fetched.in.taken) {
                ends_fetch = true; // taken branch breaks the group
            }
        } else if (fetched.in.op == OpClass::BranchUncond) {
            ends_fetch = true;
        }

        ++fetchCount;
        ++statsData.fetched;

        if (ends_fetch)
            break;
    }
}

// ---------------------------------------------------------------------
// End-of-cycle accounting
// ---------------------------------------------------------------------

void
Pipeline::accountCycle()
{
    for (int cls = 0; cls < static_cast<int>(FuClass::NumClasses);
         ++cls)
        statsData.busyUnitCycles[cls] +=
            static_cast<std::uint64_t>(busyUnits[cls]);
    statsData.iqOccupancySum += static_cast<std::uint64_t>(iqOccupied);
    statsData.robOccupancySum += static_cast<std::uint64_t>(robCount);
}

// ---------------------------------------------------------------------
// Error-bit plane
// ---------------------------------------------------------------------

void
Pipeline::injectRegError(int physReg, ErrorMask mask)
{
    avf_assert(physReg >= 0 && physReg < rename.totalPhysRegs(),
               "injectRegError target %d out of range", physReg);
    regError.orMask(static_cast<std::size_t>(physReg), mask);
}

bool
Pipeline::injectIqEntryError(int globalEntry, ErrorMask mask)
{
    avf_assert(globalEntry >= 0 && globalEntry < conf.totalIqEntries(),
               "injectIqEntryError target %d out of range",
               globalEntry);
    for (auto &queue : queues) {
        int local = globalEntry - queue.globalBase;
        if (local < 0 || local >= static_cast<int>(queue.slots.size()))
            continue;
        int rob_idx = queue.slots[static_cast<std::size_t>(local)];
        if (rob_idx < 0)
            return false; // empty entry: injection masked
        robAt(rob_idx).errorMask |= mask;
        errInRobSq |= mask;
        return true;
    }
    panic("global IQ entry %d not covered by any queue", globalEntry);
}

Pipeline::IqFieldInjection
Pipeline::injectIqFieldError(int globalEntry, int field,
                             ErrorMask mask)
{
    avf_assert(field >= 0 && field < iqFieldsPerEntry,
               "IQ field %d out of range", field);
    avf_assert(globalEntry >= 0 && globalEntry < conf.totalIqEntries(),
               "injectIqFieldError target %d out of range",
               globalEntry);
    for (auto &queue : queues) {
        int local = globalEntry - queue.globalBase;
        if (local < 0 || local >= static_cast<int>(queue.slots.size()))
            continue;
        int rob_idx = queue.slots[static_cast<std::size_t>(local)];
        if (rob_idx < 0)
            return IqFieldInjection::EmptyEntry;
        DynInstr &instr = robAt(rob_idx);
        if (field > 0 &&
            instr.in.src[static_cast<std::size_t>(field - 1)] ==
                invalidReg) {
            return IqFieldInjection::UnusedField;
        }
        // A corrupted populated field corrupts the instruction's
        // outcome at value granularity (conservative, as in the
        // paper: any bit error makes the whole value wrong).
        instr.errorMask |= mask;
        errInRobSq |= mask;
        return IqFieldInjection::Corrupted;
    }
    panic("global IQ entry %d not covered by any queue", globalEntry);
}

int
Pipeline::injectFuError(FuClass cls, int unit, ErrorMask mask)
{
    auto &class_units = units[static_cast<int>(cls)];
    avf_assert(unit >= 0 &&
               unit < static_cast<int>(class_units.size()),
               "injectFuError unit %d out of range", unit);
    int corrupted = 0;
    for (auto &[rob_idx, complete] :
         class_units[static_cast<std::size_t>(unit)].resident) {
        if (complete > currentCycle) {
            robAt(rob_idx).errorMask |= mask;
            ++corrupted;
        }
    }
    if (corrupted > 0)
        errInRobSq |= mask;
    return corrupted;
}

void
Pipeline::clearErrorChannels(ErrorMask mask)
{
    // Register plane: word-level broadcast clear, skipped outright
    // when the plane's live summary proves the channels clean.
    regError.clearChannels(mask);

    // ROB / store queue: per-entry masks live inside wide structs, so
    // the sweep is strided — gate it on the conservative channel
    // summary instead. Sweeping is idempotent and the summary only
    // overcounts, so skipping exactly when no entry holds the
    // channels preserves behaviour bit for bit.
    if (errInRobSq & mask) {
        ErrorMask keep = static_cast<ErrorMask>(~mask);
        for (auto &instr : rob)
            instr.errorMask &= keep;
        for (auto &entry : storeQueue)
            entry.error &= keep;
        errInRobSq &= keep;
    }

    // Fetch buffer: same summary-gated strided sweep, over every
    // ring slot (a free slot's bits are reset when it is refilled).
    if (errInFetchBuf & mask) {
        ErrorMask keep = static_cast<ErrorMask>(~mask);
        for (auto &fetched : fetchBuffer)
            fetched.error &= keep;
        errInFetchBuf &= keep;
    }

    predictor.clearErrors(mask);
    hierarchy.dtlbMutable().clearErrors(mask);
}

bool
Pipeline::injectFetchBufError(int slot, ErrorMask mask)
{
    avf_assert(slot >= 0 && slot < conf.fetchBufferEntries,
               "injectFetchBufError target %d out of range", slot);
    if (slot >= fetchCount)
        return false; // empty slot: injection masked
    fetchBuffer[static_cast<std::size_t>(fetchSlot(slot))].error |= mask;
    errInFetchBuf |= mask;
    return true;
}

InjectOutcome
Pipeline::injectRenameMapError(int archReg, ErrorMask mask)
{
    if (archReg < 0 || archReg >= trace::numArchRegs)
        return InjectOutcome::Rejected;
    // A map slot always names a live architectural value, so the
    // injection is never trivially masked.
    int phys = rename.mapOf(static_cast<RegIndex>(archReg));
    regError.orMask(static_cast<std::size_t>(phys), mask);
    return InjectOutcome::Occupied;
}

int
Pipeline::numRenameMapSlots() const
{
    return trace::numArchRegs;
}

InjectOutcome
Pipeline::injectBranchPredError(int slot, ErrorMask mask)
{
    return predictor.injectError(slot, mask);
}

int
Pipeline::numBranchPredSlots() const
{
    return predictor.numSlots();
}

ErrorMask
Pipeline::branchPredKilledMask() const
{
    return predictor.killedMask();
}

InjectOutcome
Pipeline::injectDtlbError(int slot, ErrorMask mask)
{
    return hierarchy.dtlbMutable().injectError(slot, mask);
}

int
Pipeline::numDtlbSlots() const
{
    return hierarchy.dtlb().numSlots();
}

ErrorMask
Pipeline::regErrorAt(int physReg) const
{
    avf_assert(physReg >= 0 && physReg < rename.totalPhysRegs(),
               "regErrorAt %d out of range", physReg);
    return regError.get(static_cast<std::size_t>(physReg));
}

bool
Pipeline::iqEntryOccupied(int globalEntry) const
{
    for (const auto &queue : queues) {
        int local = globalEntry - queue.globalBase;
        if (local < 0 || local >= static_cast<int>(queue.slots.size()))
            continue;
        return queue.slots[static_cast<std::size_t>(local)] >= 0;
    }
    return false;
}

} // namespace avf::cpu
