/**
 * @file
 * Parameterized description of a synthetic benchmark program.
 *
 * A ProgramProfile stands in for a SPEC CPU2000 binary (which is not
 * available in this environment): it describes a synthetic control
 * flow graph of basic blocks, an instruction mix, a register
 * dependence model, a three-region memory behavior (hot/warm/cold,
 * sized against the DL1 and UL2 capacities), memory-level-parallelism
 * bursts, and a phase schedule that modulates the memory and
 * dependence behavior over time. See DESIGN.md section 2 for why this
 * substitution preserves the phenomena the paper studies.
 */

#ifndef SMTHILL_TRACE_PROGRAM_PROFILE_HH
#define SMTHILL_TRACE_PROGRAM_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace smthill
{

/** How a static branch site behaves dynamically. */
enum class BranchKind : std::uint8_t
{
    Loop,    ///< taken (tripCount-1) times, then falls through
    Biased,  ///< taken with a fixed, high or low, probability
    Random   ///< taken with probability near 0.5 (hard to predict)
};

/** Fractions of non-branch op classes within a basic block. */
struct OpMix
{
    double intAlu = 0.55;
    double intMul = 0.03;
    double fpAlu = 0.0;
    double fpMul = 0.0;
    double load = 0.30;
    double store = 0.12;
};

/** One static basic block of the synthetic CFG. */
struct BlockSpec
{
    std::uint32_t length = 8;      ///< non-branch instructions
    OpMix mix;                     ///< op-class mix inside the block
    BranchKind branch = BranchKind::Loop;
    double takenProb = 0.9;        ///< Biased/Random: P(taken)
    std::uint32_t tripCount = 16;  ///< Loop: iterations per entry
    std::uint32_t takenTarget = 0; ///< successor block when taken
    std::uint32_t fallTarget = 0;  ///< successor block when not taken

    /**
     * Multiplier on the phase's cold/warm load probabilities for
     * loads in this block. Real programs miss in specific loops, not
     * uniformly: a minority of blocks carry most of the misses
     * (bias > 1), the rest are nearly clean (bias < 1). The profile
     * builder keeps the mean bias at ~1 so phase-level miss rates
     * are preserved.
     */
    double memBias = 1.0;
};

/**
 * Time-varying behavior: the generator cycles through phases, each
 * lasting lengthInsts dynamic instructions and overriding the memory
 * and dependence parameters.
 */
struct PhaseSpec
{
    std::uint64_t lengthInsts = 1'000'000'000;
    double pLoadWarm = 0.0;   ///< P(load hits only in UL2)
    double pLoadCold = 0.0;   ///< P(load misses to memory)
    double serialFrac = 0.3;  ///< P(dep on the immediately prior inst)
    int meanDepDist = 12;     ///< mean producer distance otherwise
    double burstProb = 0.0;   ///< P(cold miss opens an MLP burst)
    int burstMax = 1;         ///< max independent misses per burst
};

/** Full description of one synthetic benchmark. */
struct ProgramProfile
{
    std::string name;
    bool isFp = false;           ///< Table 2 "Type" column (Int/FP)
    bool isMem = false;          ///< Table 2 ILP vs MEM category
    std::uint64_t seed = 1;      ///< base RNG seed

    std::vector<BlockSpec> blocks;
    std::vector<PhaseSpec> phases;

    std::uint64_t hotBytes = 16 * 1024;    ///< DL1-resident region
    std::uint64_t warmBytes = 384 * 1024;  ///< UL2-resident region
    double branchDependsOnLoad = 0.1; ///< P(branch source is a load)

    Addr codeBase = 0x0040'0000;  ///< first block's address
    Addr dataBase = 0x1000'0000;  ///< hot region base address

    /** @return address of the first instruction of a block. */
    Addr blockPc(std::uint32_t block_id) const;

    /** Abort if the profile is structurally inconsistent. */
    void validate() const;
};

/**
 * High-level knobs from which buildProfile() procedurally constructs
 * a full ProgramProfile (blocks and phase schedule). Keeping the
 * description at this level makes the 22 benchmark models short,
 * auditable, and easy to calibrate.
 */
struct ProfileParams
{
    std::string name;
    std::uint64_t seed = 1;
    bool isFp = false;
    bool isMem = false;

    int numBlocks = 48;         ///< static CFG size (I-footprint)
    int avgBlockLen = 10;       ///< mean instructions per block
    double fpFrac = 0.0;        ///< fraction of ALU work that is FP
    double loadFrac = 0.28;     ///< fraction of instructions = loads
    double storeFrac = 0.10;    ///< fraction of instructions = stores
    double mulFrac = 0.04;      ///< fraction of ALU work on mul/div

    double randomBranchFrac = 0.08; ///< hard-to-predict branch sites
    double branchDependsOnLoad = 0.1;

    double serialFrac = 0.30;   ///< dependence-chain density
    int meanDepDist = 12;       ///< average ILP distance

    double pLoadWarm = 0.02;    ///< baseline L2-region load fraction
    double pLoadCold = 0.0;     ///< baseline memory-miss fraction
    double burstProb = 0.0;     ///< MLP burstiness
    int burstMax = 1;

    std::uint64_t hotBytes = 16 * 1024;
    std::uint64_t warmBytes = 384 * 1024;

    /**
     * Phase schedule class, matching Table 2's "Freq" column:
     * 0 = no appreciable variation, 1 = low-frequency variation
     * (a change after several 64K-cycle epochs), 2 = high-frequency
     * variation (a change every epoch or two).
     */
    int freqClass = 0;

    /**
     * Strength of phase modulation: how strongly the alternate phase
     * perturbs memory/dependence behavior (0 = none, 1 = strong).
     */
    double phaseSwing = 0.5;

    /**
     * Rough stand-alone IPC of the benchmark; used only to convert
     * phase durations from epochs (cycles) into instruction counts,
     * so low-IPC programs still change phase every few epochs.
     */
    double ipcEstimate = 1.0;
};

/** Construct a complete ProgramProfile from high-level parameters. */
ProgramProfile buildProfile(const ProfileParams &params);

} // namespace smthill

#endif // SMTHILL_TRACE_PROGRAM_PROFILE_HH
