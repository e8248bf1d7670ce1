/**
 * @file
 * Tests for the Cascade predictor and its filter protocols.
 */

#include <gtest/gtest.h>

#include "predictors/cascade.hh"

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

CascadeConfig
smallCascade(FilterMode mode = FilterMode::Leaky)
{
    CascadeConfig config;
    config.filter = {16, 4, mode};
    config.main.shortPath = {64, 24, 6, true, 4, 12};
    config.main.longPath = {64, 24, 4, true, 4, 12};
    config.main.selectorEntries = 64;
    return config;
}

TEST(Cascade, ColdMiss)
{
    Cascade cascade(smallCascade());
    EXPECT_FALSE(cascade.predict(0x1000).valid);
}

TEST(Cascade, FilterAbsorbsMonomorphicBranch)
{
    Cascade cascade(smallCascade());
    const ibp::trace::Addr pc = 0x120000040;
    int misses = 0;
    for (int i = 0; i < 200; ++i) {
        const Prediction p = cascade.predict(pc);
        if (p.target != 0x120002000u || !p.valid)
            ++misses;
        cascade.update(pc, 0x120002000);
        cascade.observe(mtJmp(pc, 0x120002000));
    }
    // Only the cold start should miss.
    EXPECT_LE(misses, 2);
    // And the filter, not the main tables, should be serving it.
    EXPECT_GT(cascade.filterServeRatio(), 0.9);
}

TEST(Cascade, PolymorphicBranchLeaksIntoMain)
{
    Cascade cascade(smallCascade());
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr markers[2] = {0x120001004, 0x120001148};
    const ibp::trace::Addr targets[2] = {0x120002000, 0x120003000};
    int misses_late = 0;
    for (int i = 0; i < 2000; ++i) {
        const int phase = i & 1;
        cascade.observe(mtJmp(0x120000900, markers[phase]));
        const Prediction p = cascade.predict(pc);
        if (i > 1500 && p.target != targets[phase])
            ++misses_late;
        cascade.update(pc, targets[phase]);
        cascade.observe(mtJmp(pc, targets[phase]));
    }
    // The path-indexed main predictor should have taken over.
    EXPECT_LT(misses_late, 25);
    EXPECT_LT(cascade.filterServeRatio(), 0.9);
}

TEST(Cascade, StrictModeAlsoLearnsPolymorphic)
{
    Cascade cascade(smallCascade(FilterMode::Strict));
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr markers[2] = {0x120001004, 0x120001148};
    const ibp::trace::Addr targets[2] = {0x120002000, 0x120003000};
    int misses_late = 0;
    for (int i = 0; i < 2000; ++i) {
        const int phase = i & 1;
        cascade.observe(mtJmp(0x120000900, markers[phase]));
        const Prediction p = cascade.predict(pc);
        if (i > 1500 && p.target != targets[phase])
            ++misses_late;
        cascade.update(pc, targets[phase]);
        cascade.observe(mtJmp(pc, targets[phase]));
    }
    EXPECT_LT(misses_late, 25);
}

TEST(Cascade, NameAndStorage)
{
    Cascade cascade(smallCascade());
    EXPECT_EQ(cascade.name(), "Cascade");
    // filter: 16 * (67 + 16 + 1); main: 2 * (64*(67+12) + 24) + 64*2
    EXPECT_EQ(cascade.storageBits(),
              16u * 84u + 2u * (64u * 79u + 24u) + 128u);
}

TEST(Cascade, PaperBudgetNearTwoK)
{
    CascadeConfig config; // defaults = paper configuration
    Cascade cascade(config);
    // 128 filter entries + 2 x 960 main entries = 2048 by default;
    // the factory build uses 2 x 1024 (~6% over budget, erring in
    // Cascade's favour).  Both must stay within 10% of 2K.
    const std::size_t total = config.filter.entries +
                              config.main.shortPath.entries +
                              config.main.longPath.entries;
    EXPECT_GE(total, 1843u);
    EXPECT_LE(total, 2253u);
}

TEST(Cascade, ResetForgets)
{
    Cascade cascade(smallCascade());
    cascade.predict(0x1000);
    cascade.update(0x1000, 0x2000);
    cascade.reset();
    EXPECT_FALSE(cascade.predict(0x1000).valid);
    // The probe above is the only prediction since reset, and the
    // (empty) main tables could not serve it.
    EXPECT_EQ(cascade.filterServeRatio(), 1.0);
}

} // namespace
