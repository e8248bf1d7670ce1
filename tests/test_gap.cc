/**
 * @file
 * Tests for the GAp two-level predictor.
 */

#include <gtest/gtest.h>

#include "predictors/gap.hh"

namespace {

using namespace ibp::pred;
using ibp::trace::BranchKind;
using ibp::trace::BranchRecord;

BranchRecord
mtJmp(ibp::trace::Addr pc, ibp::trace::Addr target)
{
    BranchRecord r;
    r.pc = pc;
    r.target = target;
    r.kind = BranchKind::IndirectJmp;
    r.multiTarget = true;
    return r;
}

GapConfig
smallConfig()
{
    GapConfig config;
    config.numPhts = 2;
    config.entriesPerPht = 64;
    config.historyBits = 10;
    config.bitsPerTarget = 2;
    return config;
}

TEST(Gap, ColdMiss)
{
    Gap gap(smallConfig());
    EXPECT_FALSE(gap.predict(0x1000).valid);
}

TEST(Gap, LearnsPerHistoryContext)
{
    Gap gap(smallConfig());
    const ibp::trace::Addr pc = 0x120000040;

    // Context A: history after target 0x120001004.
    auto run = [&](ibp::trace::Addr context_target,
                   ibp::trace::Addr branch_target) {
        gap.observe(mtJmp(0x120000900, context_target));
        const Prediction p = gap.predict(pc);
        gap.update(pc, branch_target);
        gap.observe(mtJmp(pc, branch_target));
        return p;
    };

    // Alternating contexts select alternating targets; after warmup
    // the per-context entries must diverge and both predict correctly.
    for (int i = 0; i < 30; ++i) {
        run(0x120001004, 0x120002000);
        run(0x120001148, 0x120003000);
    }
    const Prediction pa = run(0x120001004, 0x120002000);
    const Prediction pb = run(0x120001148, 0x120003000);
    EXPECT_TRUE(pa.valid);
    EXPECT_TRUE(pb.valid);
    EXPECT_EQ(pa.target, 0x120002000u);
    EXPECT_EQ(pb.target, 0x120003000u);
}

TEST(Gap, HistoryAdvancesOnlyOnStreamBranches)
{
    Gap gap(smallConfig());
    BranchRecord cond;
    cond.kind = BranchKind::CondDirect;
    cond.pc = 0x100;
    cond.target = 0x200;
    gap.observe(cond);
    EXPECT_EQ(gap.history().value(), 0u);
    gap.observe(mtJmp(0x100, 0x120000004));
    EXPECT_NE(gap.history().value(), 0u);
}

TEST(Gap, UpdateTrainsSlotFromPrecedingPredict)
{
    Gap gap(smallConfig());
    const ibp::trace::Addr pc = 0x120000040;
    gap.predict(pc);
    gap.update(pc, 0x120002000);
    const Prediction p = gap.predict(pc); // same (empty) history
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.target, 0x120002000u);
}

TEST(Gap, TargetReplacementHasHysteresis)
{
    Gap gap(smallConfig());
    const ibp::trace::Addr pc = 0x120000040;
    for (int i = 0; i < 4; ++i) {
        gap.predict(pc);
        gap.update(pc, 0x120002000);
    }
    gap.predict(pc);
    gap.update(pc, 0x120009000); // single miss: keep old target
    EXPECT_EQ(gap.predict(pc).target, 0x120002000u);
}

TEST(Gap, StorageBitsMatchConfig)
{
    Gap gap(smallConfig());
    EXPECT_EQ(gap.storageBits(), 2u * 64u * (1 + 64 + 2) + 10u);
}

TEST(Gap, PaperConfigStorage)
{
    GapConfig config; // defaults = paper's Figure-6 GAp
    Gap gap(config);
    EXPECT_EQ(gap.storageBits(), 2u * 1024u * 67u + 10u);
}

TEST(Gap, ResetForgets)
{
    Gap gap(smallConfig());
    gap.predict(0x1000);
    gap.update(0x1000, 0x2000);
    gap.observe(mtJmp(0x1000, 0x2000));
    gap.reset();
    EXPECT_EQ(gap.history().value(), 0u);
    EXPECT_FALSE(gap.predict(0x1000).valid);
}

TEST(Gap, NameDefaultsToGAp)
{
    Gap gap(smallConfig());
    EXPECT_EQ(gap.name(), "GAp");
    Gap named(smallConfig(), "GAp-long");
    EXPECT_EQ(named.name(), "GAp-long");
}

} // namespace
