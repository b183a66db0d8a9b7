#include "pipeline/cpu.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"
#include "common/profile.hh"
#include "common/stat_registry.hh"

namespace smthill
{

namespace
{

/** Functional-unit pool indices for issue-stage accounting. */
enum FuPool : int
{
    FuIntAdd = 0,
    FuIntMul,
    FuMemPort,
    FuFpAdd,
    FuFpMul,
    FuPoolCount
};

int
fuPoolOf(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:
      case OpClass::Branch:
        return FuIntAdd;
      case OpClass::IntMul:
        return FuIntMul;
      case OpClass::Load:
      case OpClass::Store:
        return FuMemPort;
      case OpClass::FpAlu:
        return FuFpAdd;
      case OpClass::FpMul:
        return FuFpMul;
    }
    return FuIntAdd;
}

/** @return true if the op allocates an integer rename register. */
bool
writesIntReg(OpClass op)
{
    return op == OpClass::IntAlu || op == OpClass::IntMul ||
           op == OpClass::Load;
}

/** @return true if the op allocates a floating-point rename reg. */
bool
writesFpReg(OpClass op)
{
    return op == OpClass::FpAlu || op == OpClass::FpMul;
}

/** @return true if the op dispatches into the integer issue queue. */
bool
usesIntIq(OpClass op)
{
    return !isFpOp(op);
}

std::uint64_t
nextPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

std::uint64_t
CpuStats::committedTotal() const
{
    std::uint64_t sum = 0;
    for (auto v : committed)
        sum += v;
    return sum;
}

SmtCpu::SmtCpu(const SmtConfig &config, std::vector<StreamGenerator> programs)
    : cfg(config),
      mem(config.mem),
      btb(config.btbEntries, config.btbWays)
{
    cfg.validate();
    if (static_cast<int>(programs.size()) != cfg.numThreads)
        fatal(msg("SmtCpu: expected ", cfg.numThreads,
                  " programs, got ", programs.size()));

    std::uint64_t ring_size = nextPow2(
        static_cast<std::uint64_t>(cfg.robSize) + cfg.ifqSize +
        cfg.fetchWidth + 8);
    ringMask = ring_size - 1;

    threads.reserve(programs.size());
    for (auto &prog : programs) {
        ThreadState t(std::move(prog));
        t.ring.resize(ring_size);
        threads.push_back(std::move(t));
    }
    predictors.reserve(cfg.numThreads);
    for (int i = 0; i < cfg.numThreads; ++i)
        predictors.emplace_back(cfg.metaEntries, cfg.gshareEntries,
                                cfg.bimodalEntries);

    curPartition = Partition::equal(cfg.numThreads, cfg.intRegs);
    limits = deriveLimits(curPartition, cfg);
}

void
SmtCpu::restoreFrom(const SmtCpu &checkpoint)
{
    // Plain member-wise assignment is the whole restore: vector
    // assignment writes into existing storage when capacity suffices,
    // so a warm machine of the same shape takes zero allocations.
    // EventTraceRef's assignment drops both trace links by design.
    *this = checkpoint;
    branchObserver = nullptr;
    branchObserverCtx = nullptr;
    loadObserver = nullptr;
    loadObserverCtx = nullptr;
}

void
SmtCpu::adoptState(SmtCpu &other)
{
    // Member-wise moves: vectors trade buffers, nothing is copied.
    std::swap(*this, other);
    // Hand the attachments back to the machines they were made on.
    std::swap(branchObserver, other.branchObserver);
    std::swap(branchObserverCtx, other.branchObserverCtx);
    std::swap(loadObserver, other.loadObserver);
    std::swap(loadObserverCtx, other.loadObserverCtx);
    std::swap(evtRef, other.evtRef);
    std::swap(instRef, other.instRef);
}

void
SmtCpu::setPartition(const Partition &partition)
{
    if (partition.numThreads != cfg.numThreads)
        fatal("setPartition: thread-count mismatch");
    for (int i = 0; i < partition.numThreads; ++i) {
        if (partition.share[i] < 0)
            fatal(msg("setPartition: thread ", i, " share ",
                      partition.share[i], " is negative (",
                      partition.str(), ")"));
    }
    if (partition.total() > cfg.intRegs)
        fatal(msg("setPartition: shares sum to ", partition.total(),
                  " > ", cfg.intRegs, " registers"));
    curPartition = partition;
    limits = deriveLimits(partition, cfg);
    partitionOn = true;
    if (evtRef.trace) {
        // One counter track per hardware thread: the share timeline
        // renders as stacked counters in Perfetto.
        for (int i = 0; i < partition.numThreads; ++i) {
            evtRef.trace->counter(curCycle, evtRef.pid, i,
                                  "share.t" + std::to_string(i),
                                  partition.share[i]);
        }
    }
}

void
SmtCpu::clearPartition()
{
    partitionOn = false;
    if (evtRef.trace) {
        evtRef.trace->instant(curCycle, evtRef.pid, kControlTid,
                              "machine", "partition.clear");
    }
}

void
SmtCpu::setFetchLocked(ThreadId tid, bool locked)
{
    threads.at(tid).policyLocked = locked;
}

bool
SmtCpu::fetchLocked(ThreadId tid) const
{
    return threads.at(tid).policyLocked;
}

void
SmtCpu::setThreadEnabled(ThreadId tid, bool enabled)
{
    threads.at(tid).enabled = enabled;
    if (evtRef.trace) {
        Json args = Json::object();
        args.set("enabled", enabled);
        evtRef.trace->instant(curCycle, evtRef.pid,
                              static_cast<int>(tid), "machine",
                              "thread.enabled", std::move(args));
    }
}

bool
SmtCpu::threadEnabled(ThreadId tid) const
{
    return threads.at(tid).enabled;
}

void
SmtCpu::stallUntil(Cycle until)
{
    stalledUntil = std::max(stalledUntil, until);
    if (evtRef.trace && until > curCycle) {
        evtRef.trace->complete(curCycle,
                               static_cast<std::int64_t>(until - curCycle),
                               evtRef.pid, kControlTid, "machine",
                               "stall");
    }
}

void
SmtCpu::recordInst(InstEvent stage, ThreadId tid, const Slot &slot)
{
    EventTrace &trace = *instRef.trace;
    int track = static_cast<int>(tid);
    Json args = Json::object();
    args.set("seq", slot.seq);
    args.set("pc", slot.si.pc);
    args.set("op", opClassName(slot.si.op));
    switch (stage) {
      case InstEvent::Fetch:
        trace.instant(curCycle, instRef.pid, track, "inst", "inst.fetch",
                      std::move(args));
        return;
      case InstEvent::Dispatch:
        trace.instant(curCycle, instRef.pid, track, "inst",
                      "inst.dispatch", std::move(args));
        return;
      case InstEvent::Issue:
        trace.instant(curCycle, instRef.pid, track, "inst", "inst.issue",
                      std::move(args));
        return;
      case InstEvent::Complete:
        trace.instant(curCycle, instRef.pid, track, "inst",
                      "inst.complete", std::move(args));
        return;
      case InstEvent::Commit:
        trace.instant(curCycle, instRef.pid, track, "inst", "inst.commit",
                      std::move(args));
        return;
      case InstEvent::Squash:
        trace.instant(curCycle, instRef.pid, track, "inst", "inst.squash",
                      std::move(args));
        return;
    }
}

void
SmtCpu::setBranchObserver(BranchObserver fn, void *ctx)
{
    branchObserver = fn;
    branchObserverCtx = ctx;
}

void
SmtCpu::setLoadObserver(LoadObserver fn, void *ctx)
{
    loadObserver = fn;
    loadObserverCtx = ctx;
}

int
SmtCpu::frontEndCount(ThreadId tid) const
{
    return occ.ifq[tid] + occ.intIq[tid] + occ.fpIq[tid];
}

void
SmtCpu::step()
{
    if (curCycle < stalledUntil) {
        // The machine is frozen (hill-climbing software cost), but
        // operations already in flight keep draining.
        ++statCounters.stalledCycles;
        doCompletions();
        ++curCycle;
        return;
    }
    doCommit();
    doCompletions();
    doIssue();
    doDispatch();
    doFetch();
    ++curCycle;
}

void
SmtCpu::run(Cycle n)
{
    // One span per batch, never per cycle: step() stays scope-free so
    // the profiler costs nothing measurable on the core loop.
    SMTHILL_PROF_SCOPE("cpu.run");
    static StatCounter &skipped_stat =
        globalStats().counter("smthill.cpu.skipped_cycles");
    const Cycle end = curCycle + n;
    Cycle skipped = 0;
    while (curCycle < end) {
        std::uint32_t locked = 0;
        const Cycle wake = quietUntil(end, locked);
        if (wake == curCycle) {
            step();
            continue;
        }
        skipped += wake - curCycle;
        skipQuiet(wake, locked);
    }
    if (skipped != 0)
        skipped_stat.add(skipped);
}

Cycle
SmtCpu::quietUntil(Cycle end, std::uint32_t &locked) const
{
    const bool stalled = curCycle < stalledUntil;
    // Cheapest disqualifier first: on a busy machine the ready list
    // is almost never empty. A stall never issues, so there only the
    // completions below count.
    if (!stalled && !readyList.empty())
        return curCycle;
    Cycle wake = end;
    if (!events.empty()) {
        if (events.top().at <= curCycle)
            return curCycle;
        wake = std::min(wake, events.top().at);
    }
    if (stalled)
        return std::min(wake, stalledUntil); // a stall only drains

    const int nt = cfg.numThreads;
    for (int i = 0; i < nt; ++i) {
        const ThreadState &t = threads[i];
        if (t.commitSeq < t.dispatchSeq &&
            t.ring[t.commitSeq & ringMask].state == SlotCompleted)
            return curCycle;
        if (t.dispatchSeq < t.fetchSeq &&
            dispatchFits(static_cast<ThreadId>(i),
                         t.ring[t.dispatchSeq & ringMask].si.op))
            return curCycle;
    }

    // doFetch's ICOUNT walk with nothing fetched yet: a thread that
    // passes every gate would reach the I-cache, so the cycle is live.
    std::array<ThreadId, kMaxThreads> order;
    fetchOrder(order);
    for (int oi = 0; oi < nt; ++oi) {
        ThreadId tid = order[oi];
        if (!canFetch(threads[tid]))
            continue;
        if (partitionBlocked(tid)) {
            locked |= 1u << tid;
            continue;
        }
        if (ifqFull())
            break;
        return curCycle;
    }

    // Occupancy cannot change until a completion, so the only other
    // wake-up is an eligible thread's fetch gate reopening.
    for (const ThreadState &t : threads) {
        if (fetchEligible(t) && t.fetchReadyAt > curCycle)
            wake = std::min(wake, t.fetchReadyAt);
    }
    return wake;
}

void
SmtCpu::skipQuiet(Cycle wake, std::uint32_t locked)
{
    const Cycle k = wake - curCycle;
    if (curCycle < stalledUntil) {
        statCounters.stalledCycles += k;
    } else {
        const auto nt = static_cast<std::uint32_t>(cfg.numThreads);
        const auto turn = static_cast<std::uint32_t>(k % nt);
        rrCommit = (rrCommit + turn) % nt;
        rrDispatch = (rrDispatch + turn) % nt;
        for (std::uint32_t tid = 0; tid < nt; ++tid) {
            if (locked & (1u << tid))
                statCounters.partitionLockCycles[tid] += k;
        }
    }
    curCycle = wake;
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

void
SmtCpu::doCommit()
{
    int budget = cfg.commitWidth;
    int nt = cfg.numThreads;
    std::uint32_t next_tid = rrCommit;
    for (int i = 0; i < nt && budget > 0; ++i) {
        ThreadId tid = static_cast<ThreadId>(next_tid);
        if (++next_tid == static_cast<std::uint32_t>(nt))
            next_tid = 0;
        ThreadState &t = threads[tid];
        while (budget > 0 && t.commitSeq < t.dispatchSeq) {
            Slot &s = slotOf(t, t.commitSeq);
            if (s.state != SlotCompleted)
                break;
            if (s.si.isStore()) {
                // Stores drain from the store buffer at commit; the
                // access updates tags so future loads see the line.
                mem.dataAccess(tid, s.si.effAddr, true);
            }
            if (s.si.isBranch() && branchObserver) {
                const auto &blocks = t.gen.profile().blocks;
                CommittedBranch cb{tid, s.si.blockId,
                                   blocks[s.si.blockId].length};
                branchObserver(branchObserverCtx, cb);
            }
            if (instRef.trace)
                recordInst(InstEvent::Commit, tid, s);
            releaseResources(tid, s);
            s.state = SlotFree;
            ++statCounters.committed[tid];
            ++t.commitSeq;
            --budget;
        }
    }
    rrCommit = (rrCommit + 1) % nt;
}

void
SmtCpu::releaseResources(ThreadId tid, Slot &slot)
{
    if (slot.holdsIntIq) {
        --occ.intIq[tid];
        --occT.intIq;
        slot.holdsIntIq = false;
    }
    if (slot.holdsFpIq) {
        --occ.fpIq[tid];
        --occT.fpIq;
        slot.holdsFpIq = false;
    }
    if (slot.holdsIntReg) {
        --occ.intRegs[tid];
        --occT.intRegs;
        slot.holdsIntReg = false;
    }
    if (slot.holdsFpReg) {
        --occ.fpRegs[tid];
        --occT.fpRegs;
        slot.holdsFpReg = false;
    }
    if (slot.holdsLsq) {
        --occ.lsq[tid];
        --occT.lsq;
        slot.holdsLsq = false;
    }
    if (slot.holdsRob) {
        --occ.rob[tid];
        --occT.rob;
        slot.holdsRob = false;
    }
}

// --------------------------------------------------------------------
// Completion / wakeup
// --------------------------------------------------------------------

void
SmtCpu::doCompletions()
{
    while (!events.empty() && events.top().at <= curCycle) {
        CompletionEvent ev = events.top();
        events.pop();
        Slot &s = threads[ev.tid].ring[ev.slot];
        if (s.genId != ev.genId || s.state != SlotIssued)
            continue; // squashed incarnation
        complete(ev.tid, ev.slot);
    }
}

void
SmtCpu::complete(ThreadId tid, std::uint32_t slot_idx)
{
    ThreadState &t = threads[tid];
    Slot &s = t.ring[slot_idx];
    s.state = SlotCompleted;
    if (instRef.trace)
        recordInst(InstEvent::Complete, tid, s);

    // Wake register-dependent instructions.
    for (const DepRef &dep : s.dependents) {
        Slot &d = t.ring[dep.slot];
        if (d.genId != dep.genId || d.state != SlotDispatched)
            continue;
        if (d.pendingSrcs == 0)
            continue;
        if (--d.pendingSrcs == 0) {
            // Completions run before issue within a cycle, so a
            // dependent can issue back-to-back with its producer.
            // readyList capacity is retained across cycles, so growth
            // stops once the window's high-water mark is reached.
            readyList.push_back(ReadyEntry{curCycle, d.fetchCycle, tid, // smthill-lint: allow(hot-path-allocation)
                                           dep.slot, d.genId});
            readySorted = false;
        }
    }
    s.dependents.clear();

    if (s.si.isLoad()) {
        // Retire the outstanding-miss record, if any.
        bool missed = false;
        bool to_memory = false;
        auto &misses = t.misses;
        for (std::size_t i = 0; i < misses.size(); ++i) {
            if (misses[i].seq == s.seq) {
                missed = true;
                to_memory = misses[i].toMemory;
                misses.erase(misses.begin() + static_cast<long>(i));
                break;
            }
        }
        if (loadObserver) {
            loadObserver(loadObserverCtx,
                         LoadEvent{tid, s.seq, s.si.pc, true, missed,
                                   to_memory});
        }
    }

    if (s.si.isBranch()) {
        predictors[tid].update(s.si.pc, s.bp, s.si.taken);
        if (s.si.taken)
            btb.update(s.si.pc, s.si.target);
        if (s.mispredicted) {
            predictors[tid].repairHistory(s.bp, s.si.taken);
            if (t.blockingBranch == s.seq) {
                t.blockingBranch = kNoSeq;
                t.fetchReadyAt = std::max(
                    t.fetchReadyAt, curCycle + cfg.mispredictRedirect);
            }
        }
    }
}

// --------------------------------------------------------------------
// Issue
// --------------------------------------------------------------------

void
SmtCpu::doIssue()
{
    if (readyList.empty())
        return;

    // Oldest-first issue across all threads. (age, tid, slot) is a
    // strict total order, so re-sorting an already-sorted list cannot
    // change it — skip the sort unless a wakeup appended entries.
    if (!readySorted) {
        std::sort(readyList.begin(), readyList.end(),
                  [](const ReadyEntry &a, const ReadyEntry &b) {
                      if (a.age != b.age)
                          return a.age < b.age;
                      if (a.tid != b.tid)
                          return a.tid < b.tid;
                      return a.slot < b.slot;
                  });
        readySorted = true;
    }

    int fu[FuPoolCount] = {cfg.intAddUnits, cfg.intMulUnits, cfg.memPorts,
                           cfg.fpAddUnits, cfg.fpMulUnits};
    int budget = cfg.issueWidth;

    std::vector<ReadyEntry> &remaining = issueScratch;
    remaining.clear();
    // The scratch keeps its capacity across cycles; this reserve is a
    // no-op in steady state and the push_backs below never reallocate.
    remaining.reserve(readyList.size()); // smthill-lint: allow(hot-path-allocation)

    for (const ReadyEntry &e : readyList) {
        Slot &s = threads[e.tid].ring[e.slot];
        if (s.genId != e.genId || s.state != SlotDispatched)
            continue; // squashed or already handled
        if (e.readyAt > curCycle || budget == 0) {
            remaining.push_back(e); // smthill-lint: allow(hot-path-allocation)
            continue;
        }
        int pool = fuPoolOf(s.si.op);
        if (fu[pool] == 0) {
            remaining.push_back(e); // smthill-lint: allow(hot-path-allocation)
            continue;
        }
        --fu[pool];
        --budget;

        // Leave the issue queue.
        ThreadId tid = e.tid;
        if (s.holdsIntIq) {
            --occ.intIq[tid];
            --occT.intIq;
            s.holdsIntIq = false;
        }
        if (s.holdsFpIq) {
            --occ.fpIq[tid];
            --occT.fpIq;
            s.holdsFpIq = false;
        }

        Cycle lat = 1;
        switch (s.si.op) {
          case OpClass::IntAlu:
            lat = cfg.intAluLatency;
            break;
          case OpClass::Branch:
            lat = cfg.branchLatency;
            break;
          case OpClass::IntMul:
            lat = cfg.intMulLatency;
            break;
          case OpClass::FpAlu:
            lat = cfg.fpAluLatency;
            break;
          case OpClass::FpMul:
            lat = cfg.fpMulLatency;
            break;
          case OpClass::Store:
            lat = cfg.storeLatency;
            break;
          case OpClass::Load: {
            MemAccessResult res =
                mem.dataAccess(tid, s.si.effAddr, false);
            lat = res.latency;
            ++statCounters.loads[tid];
            if (res.level != MemLevel::L1) {
                // Outstanding-miss list is bounded by in-flight loads
                // and keeps its capacity once warmed up.
                threads[tid].misses.push_back(OutstandingMiss{ // smthill-lint: allow(hot-path-allocation)
                    s.seq, curCycle, curCycle + lat,
                    res.level == MemLevel::Memory});
            }
            break;
          }
        }

        s.state = SlotIssued;
        if (instRef.trace)
            recordInst(InstEvent::Issue, tid, s);
        s.completeCycle = curCycle + std::max<Cycle>(1, lat);
        // The completion heap is bounded by issued-but-uncompleted
        // instructions; its backing storage stabilizes after warm-up.
        events.push(CompletionEvent{s.completeCycle, tid, e.slot, s.genId}); // smthill-lint: allow(hot-path-allocation)
    }
    readyList.swap(remaining);
    // Keep the scratch (old readyList storage) empty so machine
    // checkpoints don't copy stale entries; capacity is retained.
    issueScratch.clear();
}

// --------------------------------------------------------------------
// Dispatch (rename)
// --------------------------------------------------------------------

void
SmtCpu::doDispatch()
{
    int nt = cfg.numThreads;
    // When the shared ROB is full no thread can dispatch anything —
    // skip the per-thread attempts entirely (commit drains it first
    // within the cycle, so this still fires on truly full cycles).
    if (occT.rob < cfg.robSize) {
        int budget = cfg.issueWidth;
        std::uint32_t next_tid = rrDispatch;
        for (int i = 0; i < nt && budget > 0; ++i) {
            ThreadId tid = static_cast<ThreadId>(next_tid);
            if (++next_tid == static_cast<std::uint32_t>(nt))
                next_tid = 0;
            ThreadState &t = threads[tid];
            while (budget > 0 && t.dispatchSeq < t.fetchSeq) {
                if (!dispatchOne(tid))
                    break;
                --budget;
            }
        }
    }
    rrDispatch = (rrDispatch + 1) % nt;
}

bool
SmtCpu::dispatchFits(ThreadId tid, OpClass op) const
{
    // Shared-capacity checks, against the running totals.
    if (occT.rob >= cfg.robSize)
        return false;
    bool int_iq = usesIntIq(op);
    if (int_iq && occT.intIq >= cfg.intIqSize)
        return false;
    if (!int_iq && occT.fpIq >= cfg.fpIqSize)
        return false;
    bool int_reg = writesIntReg(op);
    if (int_reg && occT.intRegs >= cfg.intRegs)
        return false;
    if (writesFpReg(op) && occT.fpRegs >= cfg.fpRegs)
        return false;
    if (isMemOp(op) && occT.lsq >= cfg.lsqSize)
        return false;

    // Partition-limit checks (Section 3.2: a thread may not consume
    // beyond its allotment in any partitioned resource).
    if (partitionOn) {
        if (occ.rob[tid] >= limits.rob[tid])
            return false;
        if (int_iq && occ.intIq[tid] >= limits.intIq[tid])
            return false;
        if (int_reg && occ.intRegs[tid] >= limits.intRegs[tid])
            return false;
    }
    return true;
}

bool
SmtCpu::dispatchOne(ThreadId tid)
{
    ThreadState &t = threads[tid];
    InstSeq seq = t.dispatchSeq;
    Slot &s = slotOf(t, seq);
    const OpClass op = s.si.op;
    if (!dispatchFits(tid, op))
        return false;
    const bool int_iq = usesIntIq(op);
    const bool int_reg = writesIntReg(op);
    const bool fp_reg = writesFpReg(op);

    // Allocate.
    occ.ifq[tid] -= 1;
    --occT.ifq;
    s.holdsRob = true;
    ++occ.rob[tid];
    ++occT.rob;
    if (int_iq) {
        s.holdsIntIq = true;
        ++occ.intIq[tid];
        ++occT.intIq;
    } else {
        s.holdsFpIq = true;
        ++occ.fpIq[tid];
        ++occT.fpIq;
    }
    if (int_reg) {
        s.holdsIntReg = true;
        ++occ.intRegs[tid];
        ++occT.intRegs;
    }
    if (fp_reg) {
        s.holdsFpReg = true;
        ++occ.fpRegs[tid];
        ++occT.fpRegs;
    }
    if (isMemOp(op)) {
        s.holdsLsq = true;
        ++occ.lsq[tid];
        ++occT.lsq;
    }

    s.state = SlotDispatched;
    if (instRef.trace)
        recordInst(InstEvent::Dispatch, tid, s);
    linkDependences(tid, seq, s);
    ++t.dispatchSeq;
    if (loadObserver && op == OpClass::Load) {
        loadObserver(loadObserverCtx,
                     LoadEvent{tid, seq, s.si.pc, false, false, false});
    }
    return true;
}

void
SmtCpu::linkDependences(ThreadId tid, InstSeq seq, Slot &slot)
{
    ThreadState &t = threads[tid];
    int pending = 0;
    std::uint32_t my_idx = slotIndex(seq);
    for (int k = 0; k < 2; ++k) {
        std::int32_t dist = slot.si.srcDist[k];
        if (dist <= 0)
            continue;
        if (static_cast<InstSeq>(dist) > seq)
            continue; // produced before the program began
        InstSeq prod = seq - static_cast<InstSeq>(dist);
        if (prod < t.commitSeq)
            continue; // producer already committed
        Slot &p = slotOf(t, prod);
        if (p.state == SlotCompleted || p.state == SlotFree)
            continue;
        // Dependent lists live in ring slots that are recycled, so
        // their capacity amortizes to zero growth per dispatch.
        p.dependents.push_back(DepRef{my_idx, slot.genId}); // smthill-lint: allow(hot-path-allocation)
        ++pending;
    }
    slot.pendingSrcs = static_cast<std::uint8_t>(pending);
    if (pending == 0) {
        // Same retained-capacity story as the completion-side push.
        readyList.push_back( // smthill-lint: allow(hot-path-allocation)
            ReadyEntry{curCycle + 1, slot.fetchCycle, tid, my_idx,
                       slot.genId});
        readySorted = false;
    }
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

void
SmtCpu::fetchOrder(std::array<ThreadId, kMaxThreads> &order) const
{
    int nt = cfg.numThreads;
    for (int i = 0; i < nt; ++i)
        order[i] = static_cast<ThreadId>(i);
    // Insertion sort by ascending front-end instruction count
    // (ICOUNT); stable so ties break by thread id.
    for (int i = 1; i < nt; ++i) {
        ThreadId v = order[i];
        int key = frontEndCount(v);
        int j = i - 1;
        while (j >= 0 && frontEndCount(order[j]) > key) {
            order[j + 1] = order[j];
            --j;
        }
        order[j + 1] = v;
    }
}

bool
SmtCpu::fetchEligible(const ThreadState &t) const
{
    return t.enabled && !t.policyLocked && t.blockingBranch == kNoSeq;
}

bool
SmtCpu::canFetch(const ThreadState &t) const
{
    return fetchEligible(t) && t.fetchReadyAt <= curCycle;
}

bool
SmtCpu::partitionBlocked(ThreadId tid) const
{
    if (!partitionOn)
        return false;
    return occ.intRegs[tid] >= limits.intRegs[tid] ||
           occ.intIq[tid] >= limits.intIq[tid] ||
           occ.rob[tid] >= limits.rob[tid];
}

void
SmtCpu::ensureGenerated(ThreadState &t, InstSeq seq)
{
    while (t.genSeq <= seq) {
        if (t.genSeq - t.commitSeq > ringMask)
            panic("instruction ring overflow");
        Slot &s = slotOf(t, t.genSeq);
        s.si = t.gen.next();
        s.seq = t.genSeq;
        s.state = SlotFree;
        ++t.genSeq;
    }
}

void
SmtCpu::doFetch()
{
    std::array<ThreadId, kMaxThreads> order;
    fetchOrder(order);

    int fetched = 0;
    int threads_used = 0;
    int nt = cfg.numThreads;

    for (int oi = 0; oi < nt; ++oi) {
        if (threads_used >= cfg.fetchThreadsPerCycle ||
            fetched >= cfg.fetchWidth)
            break;
        ThreadId tid = order[oi];
        ThreadState &t = threads[tid];
        if (!canFetch(t))
            continue;
        if (partitionBlocked(tid)) {
            ++statCounters.partitionLockCycles[tid];
            continue;
        }
        if (ifqFull())
            break;

        // One I-cache access per fetch group.
        ensureGenerated(t, t.fetchSeq);
        Addr group_pc = slotOf(t, t.fetchSeq).si.pc;
        MemAccessResult il1 = mem.instAccess(tid, group_pc);
        if (il1.level != MemLevel::L1) {
            t.fetchReadyAt = curCycle + il1.latency;
            continue;
        }
        ++threads_used;

        while (fetched < cfg.fetchWidth) {
            if (ifqFull())
                break;
            if (partitionBlocked(tid))
                break;
            ensureGenerated(t, t.fetchSeq);
            Slot &s = slotOf(t, t.fetchSeq);
            InstSeq seq = t.fetchSeq;

            s.fetchCycle = curCycle;
            s.state = SlotFetched;
            s.dependents.clear();
            s.pendingSrcs = 0;
            s.mispredicted = false;

            ++occ.ifq[tid];
            ++occT.ifq;
            ++statCounters.fetched[tid];
            if (instRef.trace)
                recordInst(InstEvent::Fetch, tid, s);
            ++t.fetchSeq;
            ++fetched;

            if (!s.si.isBranch())
                continue;

            ++statCounters.branches[tid];
            s.bp = predictors[tid].predict(s.si.pc);
            Addr btb_target = 0;
            bool btb_hit = btb.lookup(s.si.pc, btb_target);
            bool target_ok = btb_hit && btb_target == s.si.target;
            bool correct = (s.bp.prediction == s.si.taken) &&
                           (!s.si.taken || target_ok);
            if (!correct) {
                // Wrong-path fetch is not modeled: the thread stops
                // fetching until the branch resolves and the
                // front end refills (cfg.mispredictRedirect).
                s.mispredicted = true;
                ++statCounters.mispredicts[tid];
                t.blockingBranch = seq;
                break;
            }
            if (s.si.taken)
                break; // fetch group ends at a taken branch
        }
    }
}

// --------------------------------------------------------------------
// Squash (FLUSH policy support)
// --------------------------------------------------------------------

int
SmtCpu::squashFrom(ThreadId tid, InstSeq start)
{
    ThreadState &t = threads.at(tid);
    int squashed = 0;
    for (InstSeq i = start; i < t.fetchSeq; ++i) {
        Slot &s = slotOf(t, i);
        if (s.state == SlotFree)
            continue;
        if (s.state == SlotFetched) {
            --occ.ifq[tid];
            --occT.ifq;
        }
        if (instRef.trace)
            recordInst(InstEvent::Squash, tid, s);
        releaseResources(tid, s);
        s.state = SlotFree;
        ++s.genId;
        s.dependents.clear();
        ++squashed;
        // Every squash counts as flushed, whatever triggered it —
        // the fetched == committed + flushed + in-flight identity
        // must survive context resets and parks, not just policy
        // flushes.
        ++statCounters.flushed[tid];
    }

    t.fetchSeq = start;
    t.dispatchSeq = std::min(t.dispatchSeq, start);
    if (t.blockingBranch != kNoSeq && t.blockingBranch >= start)
        t.blockingBranch = kNoSeq;
    std::erase_if(t.misses, [start](const OutstandingMiss &m) {
        return m.seq >= start;
    });
    return squashed;
}

int
SmtCpu::flushThreadAfter(ThreadId tid, InstSeq seq)
{
    ThreadState &t = threads.at(tid);
    InstSeq start = std::max(seq + 1, t.commitSeq);
    if (start >= t.fetchSeq)
        return 0;

    int squashed = squashFrom(tid, start);
    if (evtRef.trace && squashed > 0) {
        Json args = Json::object();
        args.set("after_seq", seq);
        args.set("squashed", squashed);
        evtRef.trace->instant(curCycle, evtRef.pid,
                              static_cast<int>(tid), "machine", "flush",
                              std::move(args));
    }
    return squashed;
}

int
SmtCpu::idleContext(ThreadId tid)
{
    ThreadState &t = threads.at(tid);
    int squashed = squashFrom(tid, t.commitSeq);
    t.genSeq = t.commitSeq;
    t.blockingBranch = kNoSeq;
    t.policyLocked = false;
    t.enabled = false;
    t.misses.clear();
    if (evtRef.trace) {
        Json args = Json::object();
        args.set("squashed", squashed);
        evtRef.trace->instant(curCycle, evtRef.pid,
                              static_cast<int>(tid), "machine",
                              "context.idle", std::move(args));
    }
    return squashed;
}

int
SmtCpu::resetContext(ThreadId tid, StreamGenerator gen)
{
    ThreadState &t = threads.at(tid);
    int squashed = squashFrom(tid, t.commitSeq);
    t.gen = std::move(gen);
    // Pull the generation cursor back so the first fetch after the
    // reset synthesizes from the new stream; slots pre-generated from
    // the old occupant's generator are overwritten before use.
    t.genSeq = t.commitSeq;
    t.fetchReadyAt = curCycle;
    t.blockingBranch = kNoSeq;
    t.policyLocked = false;
    t.enabled = true;
    t.misses.clear();
    predictors[tid] = HybridPredictor(cfg.metaEntries, cfg.gshareEntries,
                                      cfg.bimodalEntries);
    if (evtRef.trace) {
        Json args = Json::object();
        args.set("squashed", squashed);
        evtRef.trace->instant(curCycle, evtRef.pid,
                              static_cast<int>(tid), "machine",
                              "context.reset", std::move(args));
    }
    return squashed;
}

} // namespace smthill
