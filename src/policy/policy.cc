#include "policy/policy.hh"

namespace smthill
{

void
ResourcePolicy::attach(SmtCpu &)
{
}

void
ResourcePolicy::cycle(SmtCpu &)
{
}

bool
ResourcePolicy::perCycle() const
{
    return true;
}

void
ResourcePolicy::epoch(SmtCpu &, std::uint64_t)
{
}

void
ResourcePolicy::threadAttached(SmtCpu &, ThreadId)
{
}

void
ResourcePolicy::threadDetached(SmtCpu &, ThreadId)
{
}

} // namespace smthill
