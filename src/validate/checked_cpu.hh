/**
 * @file
 * CheckedCpu: an SmtCpu driven through the invariant layer. Every
 * step (or every Nth step, for cheaper spot checking) the full set of
 * accounting identities is verified — occupancy capacities, partition
 * shape, transient-tolerant per-thread partition caps, flow-counter
 * identities, and cache reconciliation. Violations accumulate in the
 * embedded InvariantChecker (or panic immediately with failFast).
 *
 * The default check cadence follows the SMTHILL_VALIDATE build
 * option: every cycle when the validation layer is compiled in
 * (Debug builds default it ON), disabled otherwise — so release
 * benches built without the option pay nothing unless a cadence is
 * requested explicitly (as the fuzz harness does).
 */

#ifndef SMTHILL_VALIDATE_CHECKED_CPU_HH
#define SMTHILL_VALIDATE_CHECKED_CPU_HH

#include "validate/invariants.hh"

namespace smthill
{

/** An SmtCpu whose steps are cross-checked against the invariants. */
class CheckedCpu
{
  public:
    /** Cadence the build configuration asks for (0 = disabled). */
    static constexpr Cycle defaultInterval()
    {
#ifdef SMTHILL_VALIDATE
        return 1;
#else
        return 0;
#endif
    }

    /**
     * @param cpu the machine to drive (moved in)
     * @param options invariant-checker behavior
     * @param check_interval check every Nth step(); 0 disables the
     *        per-step checks (checkNow() still works)
     */
    explicit CheckedCpu(SmtCpu cpu,
                        InvariantChecker::Options options =
                            InvariantChecker::Options{},
                        Cycle check_interval = defaultInterval());

    /** Advance one cycle, then check at the configured cadence. */
    void step();

    /** Advance @p n cycles through step(). */
    void run(Cycle n);

    /** Force a full invariant sweep right now. */
    void checkNow();

    SmtCpu &cpu() { return machine; }
    const SmtCpu &cpu() const { return machine; }

    InvariantChecker &checker() { return chk; }
    const InvariantChecker &checker() const { return chk; }

  private:
    SmtCpu machine;
    InvariantChecker chk;
    Cycle interval;
    Cycle sinceCheck = 0;
    Occupancy prevOcc; ///< occupancy at the previous check
};

} // namespace smthill

#endif // SMTHILL_VALIDATE_CHECKED_CPU_HH
