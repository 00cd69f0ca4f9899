/**
 * @file
 * Tests for the gshare direction predictor, BTB and return-address
 * stack, including speculative-history repair and checkpoint
 * restore.
 */

#include <gtest/gtest.h>

#include "branch/btb.hh"
#include "branch/predictor.hh"
#include "branch/ras.hh"
#include "sim/rng.hh"

using namespace ser;
using namespace ser::branch;

TEST(Gshare, LearnsAHistoryPattern)
{
    // Alternating taken/not-taken defeats a per-pc counter but is
    // easy for a history predictor.
    GsharePredictor pred(4096, 8);
    bool outcome = false;
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        outcome = !outcome;
        Lookup l = pred.predict(77);
        if (i >= 200)
            correct += l.taken == outcome;
        pred.update(77, outcome, l);
        if (l.taken != outcome)
            pred.restoreHistory(l, outcome);
    }
    EXPECT_GT(correct, 190);  // near-perfect after warmup
}

TEST(Gshare, HistoryRepairAfterSquash)
{
    GsharePredictor pred(1024, 8);
    Lookup a = pred.predict(1);
    (void)pred.predict(2);
    (void)pred.predict(3);
    // Squash everything younger than branch 1 and set its outcome.
    pred.restoreHistory(a, true);
    EXPECT_EQ(pred.currentHistory(), ((a.ghr << 1) | 1) & 0xffULL);

    // Rewinding (branch 1 itself squashed, to be re-predicted).
    pred.rewindHistory(a);
    EXPECT_EQ(pred.currentHistory(), a.ghr);
}

TEST(Predictor, AccuracyAccounting)
{
    GsharePredictor pred(64, 4);
    pred.recordResolution(true);
    pred.recordResolution(true);
    pred.recordResolution(false);
    EXPECT_NEAR(pred.accuracy(), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(pred.mispredicts(), 1u);
}

TEST(Btb, StoresAndTagsTargets)
{
    Btb btb(64);
    EXPECT_FALSE(btb.lookup(5).has_value());
    btb.update(5, 1234);
    ASSERT_TRUE(btb.lookup(5).has_value());
    EXPECT_EQ(*btb.lookup(5), 1234u);
    // A colliding pc (5 + 64) must not alias thanks to the tag.
    EXPECT_FALSE(btb.lookup(5 + 64).has_value());
    btb.update(5 + 64, 999);
    EXPECT_EQ(*btb.lookup(5 + 64), 999u);
    EXPECT_FALSE(btb.lookup(5).has_value());  // evicted
}

TEST(Ras, PushPopNesting)
{
    Ras ras(16);
    ras.push(100);
    ras.push(200);
    ras.push(300);
    EXPECT_EQ(ras.pop(), 300u);
    EXPECT_EQ(ras.pop(), 200u);
    ras.push(250);
    EXPECT_EQ(ras.pop(), 250u);
    EXPECT_EQ(ras.pop(), 100u);
    EXPECT_TRUE(ras.empty());
    EXPECT_EQ(ras.pop(), 0u);  // empty pop is defined
}

TEST(Ras, CheckpointRestoreUndoesSpeculation)
{
    Ras ras(16);
    ras.push(1);
    ras.push(2);
    RasCheckpoint cp = ras.checkpoint();
    // Speculative pop then push (a wrong-path ret + call).
    (void)ras.pop();
    ras.push(77);
    ras.restore(cp);
    EXPECT_EQ(ras.pop(), 2u);
    EXPECT_EQ(ras.pop(), 1u);
}

TEST(Ras, WrapsAroundWithoutCorruptingRecentEntries)
{
    Ras ras(4);
    for (std::uint32_t i = 1; i <= 6; ++i)
        ras.push(i * 10);
    // The four most recent survive.
    EXPECT_EQ(ras.pop(), 60u);
    EXPECT_EQ(ras.pop(), 50u);
    EXPECT_EQ(ras.pop(), 40u);
    EXPECT_EQ(ras.pop(), 30u);
    EXPECT_TRUE(ras.empty());
}
