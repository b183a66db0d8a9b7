#include "core/machine_arena.hh"

#include "common/log.hh"

namespace smthill
{

MachineArena::MachineArena(int workers)
    : machines(static_cast<std::size_t>(workers < 1 ? 1 : workers))
{
}

SmtCpu &
MachineArena::acquire(int worker, const SmtCpu &checkpoint)
{
    if (worker < 0 || worker >= workers())
        fatal(msg("MachineArena: worker ", worker, " out of range [0, ",
                  workers(), ")"));
    std::unique_ptr<SmtCpu> &m = machines[static_cast<std::size_t>(worker)];
    if (!m) {
        // First trial on this worker: clone (both event-trace links
        // are already dropped by copy), then detach observation
        // exactly as restoreFrom would — trials never observe.
        // First-touch warm-up: one clone per worker for the arena's
        // lifetime; every later trial reuses it via restoreFrom.
        m = std::make_unique<SmtCpu>(checkpoint); // smthill-lint: allow(hot-path-allocation)
        m->setBranchObserver(nullptr, nullptr);
        m->setLoadObserver(nullptr, nullptr);
        return *m;
    }
    m->restoreFrom(checkpoint);
    return *m;
}

} // namespace smthill
