/**
 * @file
 * Unit tests for the branch predictors, BTB, and RAS.
 */

#include <gtest/gtest.h>

#include "branch/predictors.hh"
#include "common/rng.hh"

namespace smthill
{
namespace
{

TEST(Bimodal, LearnsBiasedBranch)
{
    BimodalPredictor bp(64);
    Addr pc = 0x4000;
    for (int i = 0; i < 10; ++i)
        bp.update(pc, true);
    EXPECT_TRUE(bp.predict(pc));
    for (int i = 0; i < 10; ++i)
        bp.update(pc, false);
    EXPECT_FALSE(bp.predict(pc));
}

TEST(Bimodal, HysteresisSurvivesOneFlip)
{
    BimodalPredictor bp(64);
    Addr pc = 0x4000;
    for (int i = 0; i < 10; ++i)
        bp.update(pc, true);
    bp.update(pc, false); // one not-taken shouldn't flip a 2-bit ctr
    EXPECT_TRUE(bp.predict(pc));
}

TEST(Bimodal, DistinctPcsIndependent)
{
    BimodalPredictor bp(1024);
    Addr a = 0x1000, b = 0x1004;
    for (int i = 0; i < 8; ++i) {
        bp.update(a, true);
        bp.update(b, false);
    }
    EXPECT_TRUE(bp.predict(a));
    EXPECT_FALSE(bp.predict(b));
}

TEST(Gshare, LearnsAlternatingPattern)
{
    // Bimodal cannot learn a strict T/N/T/N pattern, gshare can.
    GsharePredictor gp(4096, 8);
    Addr pc = 0x2000;
    bool outcome = false;
    // Train.
    for (int i = 0; i < 4000; ++i) {
        outcome = !outcome;
        auto hist = gp.history();
        bool pred = gp.predictAndShift(pc);
        gp.update(pc, hist, outcome);
        if (pred != outcome)
            gp.repairHistory(hist, outcome);
    }
    // Evaluate.
    int correct = 0;
    for (int i = 0; i < 200; ++i) {
        outcome = !outcome;
        auto hist = gp.history();
        bool pred = gp.predictAndShift(pc);
        correct += pred == outcome;
        gp.update(pc, hist, outcome);
        if (pred != outcome)
            gp.repairHistory(hist, outcome);
    }
    EXPECT_GT(correct, 190);
}

TEST(Gshare, HistoryRepairRestoresState)
{
    GsharePredictor gp(1024, 10);
    Addr pc = 0x2000;
    auto h0 = gp.history();
    gp.predictAndShift(pc);
    gp.repairHistory(h0, true);
    EXPECT_EQ(gp.history(), ((h0 << 1) | 1) & ((1u << 10) - 1));
}

TEST(Hybrid, PredictsBiasedBranchesWell)
{
    HybridPredictor hp;
    Rng rng(5);
    Addr pc = 0x3000;
    int correct = 0, total = 0;
    for (int i = 0; i < 5000; ++i) {
        bool outcome = rng.chance(0.95);
        auto lk = hp.predict(pc);
        if (i > 500) {
            ++total;
            correct += lk.prediction == outcome;
        }
        hp.update(pc, lk, outcome);
        if (lk.prediction != outcome)
            hp.repairHistory(lk, outcome);
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.90);
}

TEST(Hybrid, ChoosesBetterComponent)
{
    // An alternating branch: gshare learns it, bimodal cannot; the
    // meta-chooser must converge to gshare, yielding high accuracy.
    HybridPredictor hp(1024, 4096, 64);
    Addr pc = 0x3004;
    bool outcome = false;
    int late_correct = 0, late_total = 0;
    for (int i = 0; i < 6000; ++i) {
        outcome = !outcome;
        auto lk = hp.predict(pc);
        if (i > 5000) {
            ++late_total;
            late_correct += lk.prediction == outcome;
        }
        hp.update(pc, lk, outcome);
        if (lk.prediction != outcome)
            hp.repairHistory(lk, outcome);
    }
    EXPECT_GT(static_cast<double>(late_correct) / late_total, 0.9);
}

TEST(Btb, MissThenHit)
{
    Btb btb(256, 4);
    Addr target = 0;
    EXPECT_FALSE(btb.lookup(0x100, target));
    btb.update(0x100, 0x900);
    EXPECT_TRUE(btb.lookup(0x100, target));
    EXPECT_EQ(target, 0x900u);
}

TEST(Btb, UpdateOverwritesTarget)
{
    Btb btb(256, 4);
    btb.update(0x100, 0x900);
    btb.update(0x100, 0xa00);
    Addr target = 0;
    ASSERT_TRUE(btb.lookup(0x100, target));
    EXPECT_EQ(target, 0xa00u);
}

TEST(Btb, LruEvictionWithinSet)
{
    Btb btb(8, 4); // 2 sets of 4 ways
    // Five PCs mapping to the same set (stride = 2 sets * 4 bytes).
    Addr pcs[5] = {0x000, 0x008, 0x010, 0x018, 0x020};
    for (Addr pc : pcs)
        btb.update(pc, pc + 1);
    Addr target = 0;
    // The oldest entry (0x000) must have been evicted.
    EXPECT_FALSE(btb.lookup(0x000, target));
    for (int i = 1; i < 5; ++i)
        EXPECT_TRUE(btb.lookup(pcs[i], target)) << i;
}

TEST(Btb, LookupRefreshesLru)
{
    Btb btb(8, 4);
    Addr pcs[4] = {0x000, 0x008, 0x010, 0x018};
    for (Addr pc : pcs)
        btb.update(pc, pc + 1);
    Addr target = 0;
    ASSERT_TRUE(btb.lookup(0x000, target)); // refresh oldest
    btb.update(0x020, 0x21);                // evicts 0x008 now
    EXPECT_TRUE(btb.lookup(0x000, target));
    EXPECT_FALSE(btb.lookup(0x008, target));
}

TEST(Predictors, CopyPreservesLearnedState)
{
    HybridPredictor hp;
    Addr pc = 0x5000;
    for (int i = 0; i < 100; ++i) {
        auto lk = hp.predict(pc);
        hp.update(pc, lk, true);
    }
    HybridPredictor copy = hp; // checkpoint
    auto a = hp.predict(pc);
    auto b = copy.predict(pc);
    EXPECT_EQ(a.prediction, b.prediction);
    EXPECT_TRUE(b.prediction);
}

} // namespace
} // namespace smthill
