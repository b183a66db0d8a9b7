/**
 * @file
 * The out-of-order SMT processor model (Figure 3).
 *
 * The core models the pipeline the paper simulates: ICOUNT-driven
 * fetch of up to 8 instructions from up to 2 threads per cycle into a
 * shared 32-entry IFQ; rename/dispatch into the integer/fp issue
 * queues, rename register files, shared ROB, and LSQ; event-driven
 * wakeup and 8-wide issue constrained by the Table 1 functional-unit
 * pools; cache-accurate load latencies; and 8-wide in-order
 * per-thread commit. Per-thread occupancy counters and partition
 * registers implement the fetch-lock partition enforcement of
 * Section 3.2; flushThreadAfter() implements the FLUSH policy's
 * squash; setThreadEnabled() implements SingleIPC sampling epochs;
 * and stallUntil() charges the hill-climber's software cost.
 *
 * SmtCpu has value semantics: copying it checkpoints the entire
 * machine (pipeline, caches, predictors, instruction generators, and
 * statistics), which is how OFF-LINE exhaustive learning, RAND-HILL,
 * and the synchronized comparisons of Figures 5, 11, and 12 work.
 */

#ifndef SMTHILL_PIPELINE_CPU_HH
#define SMTHILL_PIPELINE_CPU_HH

#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "branch/predictors.hh"
#include "common/event_trace.hh"
#include "common/types.hh"
#include "memory/hierarchy.hh"
#include "pipeline/resources.hh"
#include "pipeline/smt_config.hh"
#include "trace/instruction.hh"
#include "trace/stream_generator.hh"

namespace smthill
{

/** Cumulative per-machine statistics; read-diff across an interval. */
struct CpuStats
{
    std::array<std::uint64_t, kMaxThreads> committed{};
    std::array<std::uint64_t, kMaxThreads> fetched{};
    std::array<std::uint64_t, kMaxThreads> flushed{};
    std::array<std::uint64_t, kMaxThreads> branches{};
    std::array<std::uint64_t, kMaxThreads> mispredicts{};
    std::array<std::uint64_t, kMaxThreads> loads{};
    std::array<std::uint64_t, kMaxThreads> partitionLockCycles{};
    std::uint64_t stalledCycles = 0; ///< cycles frozen by stallUntil()
    std::uint64_t committedTotal() const;

    bool operator==(const CpuStats &) const = default;
};

/** An in-flight load that missed the DL1 (policy monitors). */
struct OutstandingMiss
{
    InstSeq seq = 0;
    Cycle issuedAt = 0;
    Cycle completesAt = 0;
    bool toMemory = false;   ///< missed the L2 as well
};

/** Per-committed-branch record handed to phase-tracking observers. */
struct CommittedBranch
{
    ThreadId tid;
    std::uint32_t blockId;
    std::uint32_t blockLength;
};

/**
 * Load lifecycle event for policy observers (e.g., PDG's cache-miss
 * predictor): fired once when a load dispatches (completed == false;
 * miss outcome unknown) and once when it completes (completed ==
 * true; missedDl1/toMemory valid).
 */
struct LoadEvent
{
    ThreadId tid;
    InstSeq seq;
    Addr pc;
    bool completed;
    bool missedDl1;
    bool toMemory;
};

/** The SMT processor. */
class SmtCpu
{
  public:
    /**
     * @param config machine parameters (validated)
     * @param programs one stream generator per hardware context;
     *        size must equal config.numThreads
     */
    SmtCpu(const SmtConfig &config, std::vector<StreamGenerator> programs);

    /**
     * Restore this machine to @p checkpoint's exact simulated state,
     * reusing this machine's existing allocations (instruction rings,
     * dependence vectors, cache arrays) instead of making fresh ones —
     * the cheap path trial sweeps restore through instead of
     * copy-constructing an SmtCpu per trial. The restored machine
     * runs unobserved: branch/load observers and both event-trace
     * links (setEventTrace, setInstTrace) are dropped, because trials
     * replay concurrently and observation belongs to the committing
     * machine (same semantics as runFixedPartitionEpoch's trial path).
     */
    void restoreFrom(const SmtCpu &checkpoint);

    /**
     * Swap simulated state with @p other: this machine continues
     * exactly as @p other would have, and @p other now holds this
     * machine's previous state (its storage stays warm for a later
     * restoreFrom). Attachments are not state: each machine keeps its
     * own branch/load observers and both event-trace links. This is
     * how a trial sweep adopts its winning trial machine as the
     * committed one without re-simulating the epoch.
     */
    void adoptState(SmtCpu &other);

    /**
     * Advance the machine by one cycle. The one-cycle reference:
     * run() must leave the machine exactly as n step() calls would.
     */
    void step();

    /**
     * Advance the machine by @p n cycles; afterwards now() has grown
     * by exactly @p n and every piece of simulated state — pipeline,
     * caches, predictors, generators, CpuStats, occupancy — equals
     * what n step() calls produce. Cycles in which no stage can act
     * (empty ready list, no completion due, no completed ROB head, no
     * dispatchable IFQ head, and an ICOUNT fetch walk that reaches no
     * I-cache access) are skipped in one jump to the earliest wake-up
     * (next completion, a fetch gate reopening, the end of a stall,
     * or the end of the window); the counters those quiet cycles
     * still move (round-robin pointers, partitionLockCycles,
     * stalledCycles) are bulk-updated. The skipped cycles add to the
     * global `smthill.cpu.skipped_cycles` counter once per call.
     */
    void run(Cycle n);

    /** @return current simulated cycle. */
    Cycle now() const { return curCycle; }

    /** @return number of hardware contexts. */
    int numThreads() const { return cfg.numThreads; }

    const SmtConfig &config() const { return cfg; }
    const CpuStats &stats() const { return statCounters; }
    const Occupancy &occupancy() const { return occ; }
    const OccupancyTotals &occupancyTotals() const { return occT; }
    const MemoryHierarchy &memory() const { return mem; }

    // --- Partition control (Section 3.1.2 / 3.2) -------------------

    /** Enable partition enforcement and install the given shares. */
    void setPartition(const Partition &partition);

    /** Disable partition enforcement (full sharing). */
    void clearPartition();

    /** @return true when partition limits are being enforced. */
    bool partitioningEnabled() const { return partitionOn; }

    /** @return the active partition (meaningful when enabled). */
    const Partition &partition() const { return curPartition; }

    // --- Policy hooks ----------------------------------------------

    /** Fetch-lock or unlock a thread (FLUSH/STALL/DCRA control). */
    void setFetchLocked(ThreadId tid, bool locked);

    /** @return true if the policy has fetch-locked @p tid. */
    bool fetchLocked(ThreadId tid) const;

    /**
     * Squash every in-flight instruction of @p tid younger than
     * @p seq, releasing their resources; fetch resumes at seq + 1.
     * Implements FLUSH's recovery. @return instructions squashed.
     */
    int flushThreadAfter(ThreadId tid, InstSeq seq);

    /** Enable or disable a thread (SingleIPC sampling epochs). */
    void setThreadEnabled(ThreadId tid, bool enabled);

    /**
     * Rebind hardware context @p tid to a fresh instruction stream
     * (open-system job arrival on a possibly-reused context). Every
     * in-flight instruction of the old occupant is squashed, counted
     * into the flushed stats (it was fetched and discarded, and the
     * fetched == committed + flushed + in-flight flow identity must
     * survive a reset), and its resources released; the per-thread
     * branch predictor is reset so the new job
     * does not inherit the departed job's history. Cache contents
     * stay warm (a real context switch does not flash-invalidate the
     * caches). The context comes back fetch-unlocked and enabled;
     * cumulative per-thread counters keep counting, so per-job
     * accounting must snapshot deltas around the job's residency.
     * @return in-flight instructions squashed.
     */
    int resetContext(ThreadId tid, StreamGenerator gen);

    /**
     * Park hardware context @p tid after its job departed: squash any
     * in-flight instructions past the job's bound (counted as flushed,
     * like any other squash) so the idle context holds no shared
     * resources, then disable it. A later resetContext() brings it
     * back for the next job. @return in-flight instructions squashed.
     */
    int idleContext(ThreadId tid);

    /** @return true if the thread is fetching/dispatching. */
    bool threadEnabled(ThreadId tid) const;

    /** Freeze all pipeline stages until cycle @p until. */
    void stallUntil(Cycle until);

    /** In-flight DL1 misses of @p tid, oldest first. */
    const std::vector<OutstandingMiss> &
    outstandingMisses(ThreadId tid) const
    {
        return threads[tid].misses;
    }

    /** @return count of in-flight DL1 misses of @p tid. */
    int dl1MissesInFlight(ThreadId tid) const
    {
        return static_cast<int>(threads[tid].misses.size());
    }

    /** @return instructions in pre-issue stages (ICOUNT's counter). */
    int frontEndCount(ThreadId tid) const;

    /**
     * Register an observer invoked once per committed branch (phase
     * detection BBVs). Pass nullptr to detach. The observer is NOT
     * part of the checkpointed machine state.
     */
    using BranchObserver = void (*)(void *ctx, const CommittedBranch &);
    void setBranchObserver(BranchObserver fn, void *ctx);

    /**
     * Register an observer invoked at load dispatch and completion
     * (PDG-style miss predictors). Pass nullptr to detach. Not part
     * of the checkpointed machine state.
     */
    using LoadObserver = void (*)(void *ctx, const LoadEvent &);
    void setLoadObserver(LoadObserver fn, void *ctx);

    /**
     * Attach a per-instruction event trace (nullptr detaches): every
     * stage an instruction passes records an `inst.fetch|dispatch|
     * issue|complete|commit|squash` event (category `inst`) on its
     * hardware thread's track, with args {seq, pc, op}. A debugging
     * aid: the stream is dense, so give the trace a small ring. Like
     * setEventTrace the link is not checkpointed: a copy, restoreFrom
     * and MachineArena::acquire all drop it.
     */
    void
    setInstTrace(EventTrace *t, int pid)
    {
        instRef.trace = t;
        instRef.pid = t ? pid : 0;
    }

    /**
     * Attach a cycle-level event trace (nullptr detaches). Owned by
     * the caller and deliberately NOT checkpointed: copying the
     * machine drops the link (EventTraceRef semantics), so offline
     * trial sweeps and synchronized-comparison clones never
     * interleave events into the committing run's stream.
     * @param pid trace-event process id the machine's events file
     *        under (one per workload/technique)
     */
    void
    setEventTrace(EventTrace *t, int pid)
    {
        evtRef.trace = t;
        evtRef.pid = t ? pid : 0;
    }

    /** @return the attached event trace, or nullptr. */
    EventTrace *eventTrace() const { return evtRef.trace; }

    /** @return the trace-event process id of the attached trace. */
    int eventTracePid() const { return evtRef.pid; }

  private:
    static constexpr InstSeq kNoSeq = ~InstSeq{0};

    /** Reference to a dependent instruction's slot incarnation. */
    struct DepRef
    {
        std::uint32_t slot;
        std::uint32_t genId;
    };

    /** Dynamic state of one in-flight (or replay-buffered) inst. */
    struct Slot
    {
        SynthInst si;
        InstSeq seq = 0;
        Cycle fetchCycle = 0;
        Cycle completeCycle = 0;
        HybridPredictor::Lookup bp;
        std::vector<DepRef> dependents;
        std::uint32_t genId = 0;
        std::uint8_t pendingSrcs = 0;
        std::uint8_t state = 0;       ///< SlotState
        bool mispredicted = false;
        bool holdsIntIq = false;
        bool holdsFpIq = false;
        bool holdsIntReg = false;
        bool holdsFpReg = false;
        bool holdsLsq = false;
        bool holdsRob = false;
    };

    enum SlotState : std::uint8_t
    {
        SlotFree = 0,
        SlotFetched,     ///< in the IFQ
        SlotDispatched,  ///< waiting in an issue queue
        SlotIssued,      ///< executing
        SlotCompleted    ///< awaiting commit
    };

    /** Architectural + microarchitectural state of one context. */
    struct ThreadState
    {
        explicit ThreadState(StreamGenerator g) : gen(std::move(g)) {}

        StreamGenerator gen;
        std::vector<Slot> ring;   ///< indexed by seq & ringMask

        InstSeq genSeq = 0;      ///< next seq to synthesize
        InstSeq fetchSeq = 0;    ///< next seq to fetch
        InstSeq dispatchSeq = 0; ///< next seq to dispatch
        InstSeq commitSeq = 0;   ///< next seq to commit

        Cycle fetchReadyAt = 0;   ///< IL1 miss / redirect gate
        InstSeq blockingBranch = kNoSeq; ///< unresolved mispredict
        bool policyLocked = false;
        bool enabled = true;

        std::vector<OutstandingMiss> misses; ///< in-flight DL1 misses
    };

    struct ReadyEntry
    {
        Cycle readyAt;
        Cycle age;        ///< fetch cycle (older issues first)
        ThreadId tid;
        std::uint32_t slot;
        std::uint32_t genId;
    };

    struct CompletionEvent
    {
        Cycle at;
        ThreadId tid;
        std::uint32_t slot;
        std::uint32_t genId;
        bool operator>(const CompletionEvent &o) const { return at > o.at; }
    };

    Slot &slotOf(ThreadState &t, InstSeq seq)
    {
        return t.ring[seq & ringMask];
    }
    std::uint32_t slotIndex(InstSeq seq) const
    {
        return static_cast<std::uint32_t>(seq & ringMask);
    }

    // Pipeline stages, in reverse order within step().
    void doCommit();
    void doCompletions();
    void doIssue();
    void doDispatch();
    void doFetch();

    /** Order threads by ascending front-end count (ICOUNT). */
    void fetchOrder(std::array<ThreadId, kMaxThreads> &order) const;

    /**
     * @return true if @p t is enabled, not policy-locked, and not
     * waiting on a mispredicted branch: it fetches once its
     * fetchReadyAt gate opens.
     */
    bool fetchEligible(const ThreadState &t) const;

    /** @return true if @p t may fetch this cycle. */
    bool canFetch(const ThreadState &t) const;

    /** @return true if @p tid is at a partition limit (fetch gate). */
    bool partitionBlocked(ThreadId tid) const;

    /** @return true if the shared IFQ is full (fetch walk stops). */
    bool ifqFull() const { return occT.ifq >= cfg.ifqSize; }

    /**
     * @return true if an instruction of class @p op from @p tid fits
     * every shared capacity and partition limit dispatch checks.
     */
    bool dispatchFits(ThreadId tid, OpClass op) const;

    /**
     * Quiescence test run() makes before each step().
     * @param end the cycle the current run() window ends at
     * @param locked set to the threads whose fetch the ICOUNT walk
     *        counts as partition-locked each quiet cycle (bit tid)
     * @return now() if some stage can act this cycle; otherwise the
     *         earliest cycle in (now(), end] at which one might
     */
    Cycle quietUntil(Cycle end, std::uint32_t &locked) const;

    /**
     * Jump from now() to @p wake over quiet cycles, applying what
     * they would have changed: round-robin pointers (outside a stall),
     * @p locked threads' partitionLockCycles, or stalledCycles.
     */
    void skipQuiet(Cycle wake, std::uint32_t locked);

    /** Ensure the instruction at @p seq exists in the replay window. */
    void ensureGenerated(ThreadState &t, InstSeq seq);

    /** Try to dispatch the next instruction of @p tid; @return ok. */
    bool dispatchOne(ThreadId tid);

    /** Hook up the dependences of a newly dispatched instruction. */
    void linkDependences(ThreadId tid, InstSeq seq, Slot &slot);

    /** Mark a slot completed and wake its dependents. */
    void complete(ThreadId tid, std::uint32_t slot_idx);

    /** Release whatever resources a slot still holds. */
    void releaseResources(ThreadId tid, Slot &slot);

    /**
     * Squash every in-flight instruction of @p tid at or after
     * @p start, releasing resources and bumping slot generations so
     * queued wakeup/completion events go stale. Every squashed
     * instruction counts into the flushed stats, whether a policy
     * flush or a context reset/park discarded it: the
     * fetched == committed + flushed + in-flight flow identity must
     * hold across job lifetimes.
     */
    int squashFrom(ThreadId tid, InstSeq start);

    SmtConfig cfg;
    MemoryHierarchy mem;
    std::vector<ThreadState> threads;
    std::vector<HybridPredictor> predictors;
    Btb btb;

    Occupancy occ;
    OccupancyTotals occT; ///< running sums of occ, kept in lockstep
    Partition curPartition;
    DerivedLimits limits;
    bool partitionOn = false;

    Cycle curCycle = 0;
    Cycle stalledUntil = 0;
    std::uint64_t ringMask = 0;
    std::uint32_t rrDispatch = 0; ///< round-robin dispatch start
    std::uint32_t rrCommit = 0;   ///< round-robin commit start

    std::vector<ReadyEntry> readyList;
    /**
     * True when readyList is in issue order. Issue filters the sorted
     * list (order-preserving), so only wakeups dirty it; sorting the
     * same strict total order (age, tid, slot) again would reproduce
     * the identical sequence, making the skip bit-exact.
     */
    bool readySorted = true;
    /** Scratch for doIssue's retained entries; cleared after use. */
    std::vector<ReadyEntry> issueScratch;
    std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                        std::greater<CompletionEvent>>
        events;

    CpuStats statCounters;

    BranchObserver branchObserver = nullptr;
    void *branchObserverCtx = nullptr;
    LoadObserver loadObserver = nullptr;
    void *loadObserverCtx = nullptr;
    EventTraceRef evtRef;   ///< cycle-level event trace; drops on copy
    EventTraceRef instRef;  ///< per-instruction event trace; drops on copy

    /** The pipeline stages an `inst.*` event reports. */
    enum class InstEvent : std::uint8_t
    {
        Fetch,
        Dispatch,
        Issue,
        Complete,
        Commit,
        Squash
    };

    /**
     * Record @p slot's `inst.*` event for @p stage; instRef must be
     * attached. Cold and out of line so the stage loops keep only
     * the pointer test.
     */
    [[gnu::cold, gnu::noinline]] void recordInst(InstEvent stage,
                                                  ThreadId tid,
                                                  const Slot &slot);
};

} // namespace smthill

#endif // SMTHILL_PIPELINE_CPU_HH
