/**
 * @file
 * Distilled ThreadSanitizer fixture for the linter's
 * parallel-capture pass (DESIGN.md §9): the exact race shape the
 * pass flags in tests/lint/fixtures/parallel_capture_flag.cc — a
 * by-reference capture mutated inside a parallelFor lambda without
 * index-disjoint access, atomics, or a lock — next to its three
 * sanctioned repairs.
 *
 * Usage:
 *   smthill_tsan_fixture racy    # the flagged shape; TSan reports a
 *                                # data race (build with
 *                                # -DSMTHILL_SANITIZE=thread)
 *   smthill_tsan_fixture fixed   # disjoint slots + atomic + lock;
 *                                # clean under TSan
 *
 * The `TsanFixtureFixed` ctest entry runs `fixed` in every build
 * flavor; `racy` is the manual cross-validation step recorded in
 * EXPERIMENTS.md — one confirmed TSan report per linter finding
 * shape, so the pass is anchored to a real schedule-dependent bug,
 * not just a lexical pattern.
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/thread_pool.hh"

using namespace smthill;

namespace
{

constexpr std::size_t kN = 4096;

int
runRacy()
{
    ThreadPool pool(4);
    // The flagged shape: 'sum' is captured by reference and mutated
    // from every worker with no synchronization. TSan reports the
    // race; without TSan the sum is merely (sometimes) wrong.
    long sum = 0;
    pool.parallelFor(kN, [&](std::size_t i) { // smthill-lint: allow(parallel-capture)
        sum += static_cast<long>(i);
    });
    std::printf("racy sum = %ld (expected %ld)\n", sum,
                static_cast<long>(kN) * (kN - 1) / 2);
    return 0;
}

int
runFixed()
{
    ThreadPool pool(4);
    const long expected = static_cast<long>(kN) * (kN - 1) / 2;

    // Repair 1: index-disjoint slots, reduced after the join.
    std::vector<long> slots(kN, 0);
    pool.parallelFor(kN, [&](std::size_t i) {
        slots[i] = static_cast<long>(i);
    });
    long reduced = 0;
    for (long v : slots)
        reduced += v;

    // Repair 2: an atomic accumulator.
    std::atomic<long> atomicSum{0};
    pool.parallelFor(kN, [&](std::size_t i) {
        atomicSum += static_cast<long>(i);
    });

    // Repair 3: a lock around the shared mutation.
    long lockedSum = 0;
    std::mutex m;
    pool.parallelFor(kN, [&](std::size_t i) {
        std::lock_guard<std::mutex> hold(m);
        lockedSum += static_cast<long>(i);
    });

    bool ok = reduced == expected && atomicSum.load() == expected &&
              lockedSum == expected;
    std::printf("fixed sums = %ld / %ld / %ld (expected %ld)\n",
                reduced, atomicSum.load(), lockedSum, expected);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "racy") == 0)
        return runRacy();
    if (argc == 2 && std::strcmp(argv[1], "fixed") == 0)
        return runFixed();
    std::fprintf(stderr, "usage: smthill_tsan_fixture racy|fixed\n");
    return 2;
}
