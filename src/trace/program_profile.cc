#include "trace/program_profile.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/rng.hh"

namespace smthill
{

Addr
ProgramProfile::blockPc(std::uint32_t block_id) const
{
    // Lay blocks out contiguously, 4 bytes per instruction, one
    // branch slot at the end of each block.
    Addr pc = codeBase;
    for (std::uint32_t i = 0; i < block_id; ++i)
        pc += (blocks[i].length + 1) * 4;
    return pc;
}

void
ProgramProfile::validate() const
{
    if (blocks.empty())
        fatal(msg("profile ", name, ": no basic blocks"));
    if (phases.empty())
        fatal(msg("profile ", name, ": no phases"));
    for (const auto &b : blocks) {
        if (b.takenTarget >= blocks.size() || b.fallTarget >= blocks.size())
            fatal(msg("profile ", name, ": block successor out of range"));
        if (b.length == 0)
            fatal(msg("profile ", name, ": zero-length block"));
        double mix_sum = b.mix.intAlu + b.mix.intMul + b.mix.fpAlu +
                         b.mix.fpMul + b.mix.load + b.mix.store;
        if (mix_sum <= 0.0)
            fatal(msg("profile ", name, ": empty op mix"));
    }
    for (const auto &p : phases) {
        if (p.lengthInsts == 0)
            fatal(msg("profile ", name, ": zero-length phase"));
        if (p.pLoadWarm + p.pLoadCold > 1.0 + 1e-9)
            fatal(msg("profile ", name, ": load region probs exceed 1"));
    }
}

namespace
{

/** Build the op mix for a block from the profile-level fractions. */
OpMix
makeMix(const ProfileParams &pp, Rng &rng)
{
    OpMix mix;
    // Perturb per-block so blocks are not identical.
    auto jitter = [&rng](double v, double amt) {
        double f = 1.0 + amt * (rng.nextDouble() - 0.5);
        return std::max(0.0, v * f);
    };
    double load = jitter(pp.loadFrac, 0.5);
    double store = jitter(pp.storeFrac, 0.5);
    double alu = std::max(0.05, 1.0 - load - store);
    double fp = alu * pp.fpFrac;
    double intw = alu - fp;
    mix.load = load;
    mix.store = store;
    mix.fpMul = fp * pp.mulFrac * 4.0;
    mix.fpAlu = std::max(0.0, fp - mix.fpMul);
    mix.intMul = intw * pp.mulFrac;
    mix.intAlu = std::max(0.0, intw - mix.intMul);
    return mix;
}

} // namespace

ProgramProfile
buildProfile(const ProfileParams &pp)
{
    ProgramProfile prof;
    prof.name = pp.name;
    prof.isFp = pp.isFp;
    prof.isMem = pp.isMem;
    prof.seed = pp.seed;
    prof.hotBytes = pp.hotBytes;
    prof.warmBytes = pp.warmBytes;
    prof.branchDependsOnLoad = pp.branchDependsOnLoad;

    // Deterministic construction RNG, independent of the runtime
    // stream RNG, so profile structure never changes across runs.
    Rng rng(pp.seed * 0x517c'c1b7'2722'0a95ULL + 17);

    const int nblocks = std::max(2, pp.numBlocks);
    prof.blocks.reserve(nblocks);
    for (int i = 0; i < nblocks; ++i) {
        BlockSpec b;
        int len = static_cast<int>(rng.nextRange(
            std::max(2, pp.avgBlockLen / 2), pp.avgBlockLen * 3 / 2 + 1));
        b.length = static_cast<std::uint32_t>(len);
        b.mix = makeMix(pp, rng);

        // Concentrate memory behavior in a minority of "miss-heavy"
        // blocks (mean bias ~1 across blocks) so misses arrive with
        // loop structure rather than as white noise.
        b.memBias = rng.chance(0.30) ? 2.6 : 0.31;

        // Branch site behavior: most blocks are loops or biased
        // branches (predictable); a configurable fraction is random.
        double r = rng.nextDouble();
        if (r < pp.randomBranchFrac) {
            b.branch = BranchKind::Random;
            b.takenProb = 0.35 + 0.3 * rng.nextDouble();
        } else if (r < pp.randomBranchFrac + 0.45) {
            b.branch = BranchKind::Loop;
            b.tripCount = static_cast<std::uint32_t>(
                rng.nextRange(4, 64));
        } else {
            b.branch = BranchKind::Biased;
            b.takenProb = rng.chance(0.5) ? 0.92 + 0.07 * rng.nextDouble()
                                          : 0.08 * rng.nextDouble();
        }

        // CFG shape: loops jump back to themselves; other branches
        // send control a short hop forward (wrapping), giving a mix
        // of nested-loop-like and straight-line traversal.
        auto wrap = [nblocks](int v) {
            return static_cast<std::uint32_t>(((v % nblocks) + nblocks) %
                                              nblocks);
        };
        if (b.branch == BranchKind::Loop) {
            b.takenTarget = wrap(i);         // loop back to own head
            b.fallTarget = wrap(i + 1);
        } else {
            b.takenTarget = wrap(i + static_cast<int>(rng.nextRange(2, 6)));
            b.fallTarget = wrap(i + 1);
        }
        prof.blocks.push_back(b);
    }

    // Phase schedule. Phase lengths are in dynamic instructions; the
    // paper's epoch is 64K cycles, and our cores commit ~0.5-2 IPC per
    // thread, so ~64K-128K instructions correspond to one or two
    // epochs.
    PhaseSpec base;
    base.pLoadWarm = pp.pLoadWarm;
    base.pLoadCold = pp.pLoadCold;
    base.serialFrac = pp.serialFrac;
    base.meanDepDist = pp.meanDepDist;
    base.burstProb = pp.burstProb;
    base.burstMax = pp.burstMax;

    if (pp.freqClass == 0) {
        base.lengthInsts = 1ULL << 62;
        prof.phases.push_back(base);
    } else {
        // Alternate between the base behavior and a perturbed phase:
        // the perturbed phase shifts the memory intensity and the
        // dependence structure, changing the thread's resource needs.
        PhaseSpec alt = base;
        double s = std::clamp(pp.phaseSwing, 0.0, 1.0);
        alt.pLoadCold = std::clamp(
            base.pLoadCold * (1.0 - 0.8 * s) + 0.04 * s, 0.0, 0.9);
        alt.pLoadWarm = std::clamp(
            base.pLoadWarm + 0.10 * s, 0.0, 0.9 - alt.pLoadCold);
        alt.serialFrac = std::clamp(base.serialFrac + 0.35 * s, 0.0, 0.95);
        alt.meanDepDist = std::max(
            2, static_cast<int>(base.meanDepDist * (1.0 - 0.6 * s)));
        alt.burstProb = base.burstProb * (1.0 - s);

        // Convert epoch counts to instructions via the benchmark's
        // rough solo IPC: "High" variation changes phase every epoch
        // or two, "Low" after several epochs (Table 2 "Freq").
        double epoch_insts = 65536.0 * std::max(0.02, pp.ipcEstimate);
        double epochs_per_phase = pp.freqClass == 2 ? 1.4 : 6.0;
        auto period = static_cast<std::uint64_t>(
            std::max(1000.0, epoch_insts * epochs_per_phase));
        base.lengthInsts = period;
        alt.lengthInsts = period * 2 / 3;
        prof.phases.push_back(base);
        prof.phases.push_back(alt);
    }

    prof.validate();
    return prof;
}

} // namespace smthill
