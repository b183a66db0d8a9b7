/**
 * @file
 * Resource-distribution policy interface.
 *
 * A policy observes the machine and controls fetch locks and resource
 * partitions. The experiment runner drives each epoch in one of two
 * ways: cycle by cycle, invoking cycle() before every SmtCpu::step(),
 * when perCycle() is true; or as one SmtCpu::run(epoch_size), which
 * may skip quiet cycles, when it is false. It invokes epoch() at
 * every epoch boundary either way. All policies rely on the ICOUNT
 * fetch priority that is built into the core's fetch stage (Section
 * 3.1.2: fetch bandwidth itself is always distributed by ICOUNT).
 */

#ifndef SMTHILL_POLICY_POLICY_HH
#define SMTHILL_POLICY_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/event_trace.hh"
#include "pipeline/cpu.hh"

namespace smthill
{

/** Abstract base for all resource-distribution mechanisms. */
class ResourcePolicy
{
  public:
    virtual ~ResourcePolicy() = default;

    /** @return a short display name ("ICOUNT", "FLUSH", ...). */
    virtual std::string name() const = 0;

    /** Called once before simulation begins (install initial state). */
    virtual void attach(SmtCpu &cpu);

    /**
     * Called every cycle before the machine steps, when perCycle()
     * is true; never called by the runner otherwise.
     */
    virtual void cycle(SmtCpu &cpu);

    /**
     * @return true if the policy needs cycle() before every step().
     * Default true, so a subclass that overrides cycle() is safe
     * without knowing about this hook. A policy whose cycle() does
     * nothing returns false, and the runner then advances each epoch
     * with SmtCpu::run(), which jumps over cycles where no pipeline
     * stage can act (bit-identical to stepping them).
     */
    virtual bool perCycle() const;

    /**
     * Called at every epoch boundary.
     * @param cpu the machine, stopped at the boundary
     * @param epoch_id index of the epoch that just ended (0-based)
     */
    virtual void epoch(SmtCpu &cpu, std::uint64_t epoch_id);

    /**
     * Open-system churn hook: a job was attached to context @p tid
     * (its stream was just rebound via SmtCpu::resetContext). The
     * machine is stopped at the attach cycle. Default: no-op —
     * monitor-only policies recompute from machine state anyway.
     */
    virtual void threadAttached(SmtCpu &cpu, ThreadId tid);

    /**
     * Open-system churn hook: the job on context @p tid departed and
     * the context is now idle (disabled until the next arrival).
     * Default: no-op.
     */
    virtual void threadDetached(SmtCpu &cpu, ThreadId tid);

    /** @return a deep copy (for synchronized comparison runs). */
    virtual std::unique_ptr<ResourcePolicy> clone() const = 0;

    /**
     * Attach a cycle-level event trace (nullptr detaches). Owned by
     * the caller; zero-cost when absent. Learners (EpochLearner)
     * record one `epoch` slice per epoch() call, carrying that
     * epoch's EpochTraceRecord, plus their decision events. The
     * link is dropped on copy (EventTraceRef semantics): the trace
     * follows the committing run, never its clones, so synchronized
     * comparisons and trial copies cannot interleave events.
     * @param pid the trace-event process id this policy's events
     *        (and its machine's, once the runner mirrors the link)
     *        are filed under
     */
    void
    setEventTrace(EventTrace *t, int pid)
    {
        eventTraceRef.trace = t;
        eventTraceRef.pid = t ? pid : 0;
    }

    /** @return the attached event trace, or nullptr. */
    EventTrace *eventTrace() const { return eventTraceRef.trace; }

    /** @return the trace-event process id of the attached trace. */
    int eventTracePid() const { return eventTraceRef.pid; }

  protected:
    EventTraceRef eventTraceRef;
};

} // namespace smthill

#endif // SMTHILL_POLICY_POLICY_HH
