/**
 * @file
 * Differential fuzz driver over the simulator (see
 * validate/diff_fuzz.hh for the stage battery). Each seed expands
 * deterministically into a random machine/workload/policy scenario;
 * failures print their findings and a minimized reproducer line.
 *
 * Usage:
 *   smthill_fuzz [seeds=N] [start=S] [verbose=1]
 *   smthill_fuzz seed=S          (re-run one reproducer seed)
 *   smthill_fuzz help
 *
 * GNU spellings are accepted ("--seeds=64"). Exit status is 0 only
 * when every case passes — the ctest fuzz-smoke target runs the
 * fixed seeds [1, 64].
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/options.hh"
#include "validate/diff_fuzz.hh"

using namespace smthill;

int
main(int argc, char **argv)
{
    std::int64_t seeds = 64;
    std::int64_t start = 1;
    std::int64_t one_seed = -1;
    bool verbose = false;

    OptionSet opts;
    opts.addInt("seeds", &seeds, "number of consecutive seeds to run");
    opts.addInt("start", &start, "first seed of the range");
    opts.addInt("seed", &one_seed,
                "run exactly this one seed, verbosely");
    opts.addBool("verbose", &verbose, "print one line per case");

    std::vector<std::string> positional;
    std::string error;
    if (!opts.parseArgs({argv + 1, argv + argc}, positional, error))
        fatal(error);
    for (const std::string &p : positional) {
        if (p == "help") {
            std::printf("smthill_fuzz: differential fuzz harness\n\n");
            opts.printHelp();
            return 0;
        }
        fatal(msg("unexpected argument '", p, "' (try help)"));
    }

    if (one_seed >= 0) {
        start = one_seed;
        seeds = 1;
        verbose = true;
    }
    if (seeds < 1)
        fatal("seeds must be positive");

    FuzzSummary summary = runFuzzSeeds(
        static_cast<std::uint64_t>(start), static_cast<int>(seeds),
        verbose);

    std::printf("fuzz: %d case(s), %zu failure(s)\n", summary.casesRun,
                summary.failures.size());
    return summary.passed() ? 0 : 1;
}
