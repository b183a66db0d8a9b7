/**
 * @file
 * SMT core configuration, defaulting to the paper's Table 1 machine:
 * 8-fetch/8-issue/8-commit, 32-entry IFQ, 80-entry int and fp IQs,
 * 256-entry LSQ, 256 int + 256 fp rename registers, 512-entry shared
 * ROB, 6 int adders, 3 int mul/div, 4 memory ports, 3 fp adders,
 * 3 fp mul/div, and the Table 1 memory system.
 */

#ifndef SMTHILL_PIPELINE_SMT_CONFIG_HH
#define SMTHILL_PIPELINE_SMT_CONFIG_HH

#include <cstdint>

#include "common/types.hh"
#include "memory/hierarchy.hh"

namespace smthill
{

/** All structural and latency parameters of the simulated machine. */
struct SmtConfig
{
    int numThreads = 2;

    // Bandwidths (Table 1 "Bandwidth" row).
    int fetchWidth = 8;
    int issueWidth = 8;
    int commitWidth = 8;
    int fetchThreadsPerCycle = 2;   ///< ICOUNT.2.8 fetch partitioning

    // Queue and window sizes (Table 1 "Queue size" / "Rename/ROB").
    int ifqSize = 32;
    int intIqSize = 80;
    int fpIqSize = 80;
    int lsqSize = 256;
    int intRegs = 256;
    int fpRegs = 256;
    int robSize = 512;

    // Functional unit pools (Table 1 "Functional unit").
    int intAddUnits = 6;
    int intMulUnits = 3;
    int memPorts = 4;
    int fpAddUnits = 3;
    int fpMulUnits = 3;

    // Execution latencies (cycles).
    Cycle intAluLatency = 1;
    Cycle intMulLatency = 3;
    Cycle fpAluLatency = 2;
    Cycle fpMulLatency = 4;
    Cycle branchLatency = 1;
    Cycle storeLatency = 1;

    /** Front-end refill penalty after a resolved mispredict. */
    Cycle mispredictRedirect = 8;

    // Branch predictor sizing (Table 1 "Branch predictor" rows).
    std::size_t gshareEntries = 8192;
    std::size_t bimodalEntries = 2048;
    std::size_t metaEntries = 8192;
    std::size_t btbEntries = 2048;
    std::size_t btbWays = 4;

    MemoryConfig mem;

    /** Abort if the configuration is internally inconsistent. */
    void validate() const;

    /** Field-wise ordering/equality (warm-machine cache keys). */
    auto operator<=>(const SmtConfig &) const = default;
};

} // namespace smthill

#endif // SMTHILL_PIPELINE_SMT_CONFIG_HH
