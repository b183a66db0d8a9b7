/**
 * @file
 * Unit tests for program profiles and the SPEC-2000-like registry.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/program_profile.hh"
#include "trace/spec_profiles.hh"

namespace smthill
{
namespace
{

TEST(ProgramProfile, BuildProducesValidProfile)
{
    ProfileParams pp;
    pp.name = "toy";
    pp.numBlocks = 16;
    ProgramProfile prof = buildProfile(pp);
    EXPECT_EQ(prof.blocks.size(), 16u);
    EXPECT_FALSE(prof.phases.empty());
    prof.validate(); // must not abort
}

TEST(ProgramProfile, BuildIsDeterministic)
{
    ProfileParams pp;
    pp.name = "toy";
    pp.seed = 99;
    ProgramProfile a = buildProfile(pp);
    ProgramProfile b = buildProfile(pp);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        EXPECT_EQ(a.blocks[i].length, b.blocks[i].length);
        EXPECT_EQ(a.blocks[i].takenTarget, b.blocks[i].takenTarget);
        EXPECT_EQ(a.blocks[i].branch, b.blocks[i].branch);
    }
}

TEST(ProgramProfile, BlockPcsAreDisjointAndOrdered)
{
    ProgramProfile prof = buildProfile(ProfileParams{.name = "toy"});
    Addr prev_end = prof.codeBase;
    for (std::uint32_t i = 0; i < prof.blocks.size(); ++i) {
        Addr pc = prof.blockPc(i);
        EXPECT_EQ(pc, prev_end);
        prev_end = pc + (prof.blocks[i].length + 1) * 4;
    }
}

TEST(ProgramProfile, FreqClassControlsPhaseCount)
{
    ProfileParams pp;
    pp.name = "toy";
    pp.freqClass = 0;
    EXPECT_EQ(buildProfile(pp).phases.size(), 1u);
    pp.freqClass = 1;
    EXPECT_EQ(buildProfile(pp).phases.size(), 2u);
    pp.freqClass = 2;
    EXPECT_EQ(buildProfile(pp).phases.size(), 2u);
}

TEST(ProgramProfile, HighFreqPhasesAreShorterThanLowFreq)
{
    ProfileParams pp;
    pp.name = "toy";
    pp.ipcEstimate = 1.0;
    pp.freqClass = 2;
    auto high = buildProfile(pp);
    pp.freqClass = 1;
    auto low = buildProfile(pp);
    EXPECT_LT(high.phases[0].lengthInsts, low.phases[0].lengthInsts);
}

TEST(ProgramProfile, PhaseLengthScalesWithIpcEstimate)
{
    ProfileParams pp;
    pp.name = "toy";
    pp.freqClass = 1;
    pp.ipcEstimate = 2.0;
    auto fast = buildProfile(pp);
    pp.ipcEstimate = 0.1;
    auto slow = buildProfile(pp);
    EXPECT_GT(fast.phases[0].lengthInsts, slow.phases[0].lengthInsts);
}

TEST(ProgramProfile, MixIsNormalizable)
{
    ProgramProfile prof = buildProfile(ProfileParams{.name = "toy"});
    for (const auto &b : prof.blocks) {
        double sum = b.mix.intAlu + b.mix.intMul + b.mix.fpAlu +
                     b.mix.fpMul + b.mix.load + b.mix.store;
        EXPECT_GT(sum, 0.0);
    }
}

TEST(SpecProfiles, HasAll22Benchmarks)
{
    EXPECT_EQ(specBenchmarkNames().size(), 22u);
}

TEST(SpecProfiles, AllBuildAndValidate)
{
    for (const auto &name : specBenchmarkNames()) {
        ProgramProfile prof = specProfile(name);
        EXPECT_EQ(prof.name, name);
        prof.validate();
    }
}

TEST(SpecProfiles, TypeColumnsMatchTable2)
{
    // Spot-check the Type and category flags against Table 2.
    EXPECT_FALSE(specInfo("bzip2").isFp);
    EXPECT_FALSE(specInfo("bzip2").isMem);
    EXPECT_TRUE(specInfo("swim").isFp);
    EXPECT_TRUE(specInfo("swim").isMem);
    EXPECT_FALSE(specInfo("mcf").isFp);
    EXPECT_TRUE(specInfo("mcf").isMem);
    EXPECT_TRUE(specInfo("apsi").isFp);
    EXPECT_FALSE(specInfo("apsi").isMem);
}

TEST(SpecProfiles, FreqColumnMatchesTable2)
{
    EXPECT_EQ(specInfo("mcf").freqClass, 1);    // Low
    EXPECT_EQ(specInfo("gzip").freqClass, 2);   // High
    EXPECT_EQ(specInfo("swim").freqClass, 0);   // No
    EXPECT_EQ(specInfo("vortex").freqClass, 2); // High
}

TEST(SpecProfiles, PaperRscValuesPreserved)
{
    EXPECT_EQ(specInfo("swim").paperRsc, 213);
    EXPECT_EQ(specInfo("perlbmk").paperRsc, 59);
    EXPECT_EQ(specInfo("gap").paperRsc, 208);
}

TEST(SpecProfiles, MemBenchmarksTouchMemory)
{
    for (const auto &name : specBenchmarkNames()) {
        const auto &params = specParams(name);
        if (params.isMem) {
            EXPECT_GT(params.pLoadCold, 0.0) << name;
        } else {
            EXPECT_LT(params.pLoadCold, 0.01) << name;
        }
    }
}

TEST(SpecProfiles, UnknownNameIsRecognized)
{
    EXPECT_TRUE(isSpecBenchmark("art"));
    EXPECT_FALSE(isSpecBenchmark("doom"));
}

TEST(SpecProfiles, SeedsAreUnique)
{
    std::set<std::uint64_t> seeds;
    for (const auto &name : specBenchmarkNames())
        seeds.insert(specParams(name).seed);
    EXPECT_EQ(seeds.size(), specBenchmarkNames().size());
}

} // namespace
} // namespace smthill
