#include "core/partitioning.hh"

#include <algorithm>

#include "common/log.hh"

namespace smthill
{

std::vector<Partition> enumeratePartitions2(int total, int stride)
{
    if (stride < 1 || total < 2 * stride)
        fatal(msg("enumeratePartitions2: bad stride ", stride,
                  " for total ", total,
                  " (need 1 <= stride <= total / 2)"));
    std::vector<Partition> out;
    for (int a = stride; a <= total - stride; a += stride) {
        Partition p;
        p.numThreads = 2;
        p.share[0] = a;
        p.share[1] = total - a;
        out.push_back(p);
    }
    return out;
}

namespace
{

/** Shift delta units from every thread but @p favored to it. */
Partition
shiftToward(const Partition &anchor, int favored, int delta,
            int min_share)
{
    Partition p = anchor;
    int nt = p.numThreads;
    // An out-of-range favored thread would silently inflate the
    // total: every in-range thread donates, and the gained units
    // land in a share slot no thread owns (or out of bounds).
    if (favored < 0 || favored >= nt)
        fatal(msg("partition shift favors thread ", favored, " of ",
                  nt));
    if (delta < 0)
        fatal(msg("partition shift with negative delta ", delta));
    int gained = 0;
    for (int i = 0; i < nt; ++i) {
        if (i == favored)
            continue;
        // Never push a donor below the floor; give what it can.
        int give = std::min(delta, std::max(0, p.share[i] - min_share));
        p.share[i] -= give;
        gained += give;
    }
    p.share[favored] += gained;
    return p;
}

/**
 * Feasible-floor pass over the active set only: same degradation
 * rule as Partition::clampMin, but total / numActive instead of
 * total / numThreads, and inactive zeros are neither raised nor
 * donors.
 */
void
clampMinActive(Partition &p, const std::array<bool, kMaxThreads> &active,
               int num_active, int total, int min_share)
{
    int nt = p.numThreads;
    int floor_share = std::min(min_share, total / num_active);
    for (int i = 0; i < nt; ++i) {
        if (!active[i])
            continue;
        while (p.share[i] < floor_share) {
            int richest = -1;
            for (int j = 0; j < nt; ++j)
                if (active[j] && (richest < 0 ||
                                  p.share[j] > p.share[richest]))
                    richest = j;
            if (p.share[richest] <= floor_share)
                return; // unreachable once the floor is feasible
            ++p.share[i];
            --p.share[richest];
        }
    }
}

} // namespace

Partition
trialPartition(const Partition &anchor, int favored, int delta,
               int min_share)
{
    return shiftToward(anchor, favored, delta, min_share);
}

Partition
moveAnchor(const Partition &anchor, int gradient_thread, int delta,
           int min_share)
{
    return shiftToward(anchor, gradient_thread, delta, min_share);
}

Partition
redistributeDetached(const Partition &anchor,
                     const std::array<bool, kMaxThreads> &active,
                     int min_share)
{
    Partition p = anchor;
    int nt = p.numThreads;
    int total = p.total();
    int freed = 0;
    int num_active = 0;
    for (int i = 0; i < nt; ++i) {
        if (active[i]) {
            ++num_active;
        } else {
            freed += p.share[i];
            p.share[i] = 0;
        }
    }
    if (num_active == 0)
        return p;

    int cut = freed / num_active;
    int extra = freed % num_active;
    for (int i = 0; i < nt; ++i) {
        if (!active[i])
            continue;
        p.share[i] += cut + (extra > 0 ? 1 : 0);
        if (extra > 0)
            --extra;
    }
    clampMinActive(p, active, num_active, total, min_share);
    return p;
}

Partition
admitAttached(const Partition &anchor,
              const std::array<bool, kMaxThreads> &active, int newcomer,
              int min_share)
{
    Partition p = anchor;
    int nt = p.numThreads;
    if (newcomer < 0 || newcomer >= nt || !active[newcomer])
        fatal(msg("admitAttached: newcomer ", newcomer,
                  " not an active thread of ", nt));
    int num_active = 0;
    for (int i = 0; i < nt; ++i)
        num_active += active[i] ? 1 : 0;

    int total = p.total();
    int target = total / num_active;
    while (p.share[newcomer] < target) {
        int richest = -1;
        for (int j = 0; j < nt; ++j) {
            if (j == newcomer || !active[j])
                continue;
            if (richest < 0 || p.share[j] > p.share[richest])
                richest = j;
        }
        if (richest < 0 || p.share[richest] <= p.share[newcomer] + 1)
            break; // donors leveled off with the newcomer
        --p.share[richest];
        ++p.share[newcomer];
    }
    clampMinActive(p, active, num_active, total, min_share);
    return p;
}

} // namespace smthill
