/**
 * @file
 * Tests for the PPM Markov-table stack: highest-valid-order selection,
 * update exclusion, geometry, and per-order statistics.
 */

#include <gtest/gtest.h>

#include "core/ppm.hh"

namespace {

using namespace ibp::core;
using ibp::pred::StreamSel;
using ibp::pred::SymbolHistory;
using ibp::trace::BranchKind;
using ibp::trace::BranchRecord;

PpmConfig
smallConfig(unsigned order = 4)
{
    PpmConfig config;
    config.hash.order = order;
    config.hash.selectBits = 10;
    config.hash.foldBits = 5;
    return config;
}

void
pushTarget(SymbolHistory &phr, std::uint64_t target)
{
    BranchRecord r;
    r.kind = BranchKind::IndirectJmp;
    r.multiTarget = true;
    r.target = target;
    phr.observe(r);
}

TEST(Ppm, DefaultGeometryIsGeometric)
{
    Ppm ppm(smallConfig(10));
    ASSERT_EQ(ppm.tableCount(), 10u);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < ppm.tableCount(); ++i) {
        EXPECT_EQ(ppm.tableEntries(i), std::size_t{1} << (10 - i));
        total += ppm.tableEntries(i);
    }
    // The paper's 2K budget: 2^10 + ... + 2^1 = 2046.
    EXPECT_EQ(total, 2046u);

    // A tagged stack keeps one MarkovTable per order, highest first.
    PpmConfig tagged_config = smallConfig(10);
    tagged_config.tagged = true;
    Ppm tagged(tagged_config);
    for (std::size_t i = 0; i < tagged.tableCount(); ++i) {
        EXPECT_EQ(tagged.table(i).order(), 10u - i);
        EXPECT_EQ(tagged.table(i).entries(), tagged.tableEntries(i));
    }
}

TEST(Ppm, ExplicitGeometryHonoured)
{
    PpmConfig config = smallConfig(3);
    config.tableEntries = {16, 8, 4};
    Ppm ppm(config);
    EXPECT_EQ(ppm.tableEntries(0), 16u);
    EXPECT_EQ(ppm.tableEntries(2), 4u);
}

TEST(Ppm, ColdPredictsNothingAtOrderZero)
{
    Ppm ppm(smallConfig());
    SymbolHistory phr(4, 10, StreamSel::MtIndirect);
    const auto p = ppm.predict(phr, 0x1000);
    EXPECT_FALSE(p.valid);
    EXPECT_EQ(ppm.lastOrder(), 0u);
}

TEST(Ppm, FirstUpdateSeedsAllOrders)
{
    Ppm ppm(smallConfig());
    SymbolHistory phr(4, 10, StreamSel::MtIndirect);
    ppm.predict(phr, 0x1000);
    ppm.update(0x2000);
    // Same history: every order now has the target; the highest must
    // answer.
    const auto p = ppm.predict(phr, 0x1000);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.target, 0x2000u);
    EXPECT_EQ(ppm.lastOrder(), 4u);
}

TEST(Ppm, HighestOrderWins)
{
    // Manually seed a low order only, verify it answers; then seed the
    // top order and verify it takes precedence.
    Ppm ppm(smallConfig(2));
    SymbolHistory phr(2, 10, StreamSel::MtIndirect);
    pushTarget(phr, 0x120000010);
    pushTarget(phr, 0x120000024);

    ppm.predict(phr, 0x1000);
    ppm.update(0x2000); // seeds both orders (no decider)
    const auto p = ppm.predict(phr, 0x1000);
    EXPECT_EQ(ppm.lastOrder(), 2u);
    EXPECT_TRUE(p.valid);
}

TEST(Ppm, FallsToLowerOrderOnEmptyHighState)
{
    Ppm ppm(smallConfig(2));
    SymbolHistory phr(2, 10, StreamSel::MtIndirect);

    // Seed with history A (fills order-2 state for A and order-1).
    pushTarget(phr, 0x120000010);
    pushTarget(phr, 0x120000024);
    ppm.predict(phr, 0x1000);
    ppm.update(0x2000);

    // New history B sharing the most recent target: the order-2 state
    // differs (likely empty) but order-1 can still answer.
    SymbolHistory phr2(2, 10, StreamSel::MtIndirect);
    pushTarget(phr2, 0x1200009ac);
    pushTarget(phr2, 0x120000024);
    const auto p = ppm.predict(phr2, 0x1000);
    if (ppm.lastOrder() == 1) {
        EXPECT_TRUE(p.valid);
        EXPECT_EQ(p.target, 0x2000u);
    } else {
        // Hash collision into the same order-2 state: also acceptable,
        // must still produce the seeded target.
        EXPECT_EQ(ppm.lastOrder(), 2u);
        EXPECT_EQ(p.target, 0x2000u);
    }
}

TEST(Ppm, UpdateExclusionLeavesLowerOrdersAlone)
{
    Ppm ppm(smallConfig(2));
    SymbolHistory phr(2, 10, StreamSel::MtIndirect);
    pushTarget(phr, 0x120000010);
    pushTarget(phr, 0x120000024);

    // Seed everything with X.
    ppm.predict(phr, 0x1000);
    ppm.update(0x120002000);

    // Now the order-2 table decides; train twice with Y so the
    // order-2 entry flips.  Order-1 must still hold X afterwards
    // (update exclusion skipped it).
    for (int i = 0; i < 3; ++i) {
        ppm.predict(phr, 0x1000);
        ASSERT_EQ(ppm.lastOrder(), 2u);
        ppm.update(0x120003000);
    }
    EXPECT_EQ(ppm.predict(phr, 0x1000).target, 0x120003000u);

    // Inspect order-1 directly: it must still hold the original X.
    const std::uint64_t word = ppm.hash().hashWord(phr, 0x1000);
    const auto low = ppm.arenaProbe(1, word);
    ASSERT_TRUE(low.valid);
    EXPECT_EQ(low.target, 0x120002000u);
}

TEST(Ppm, AccessHistogramConcentratesAtTopOrder)
{
    Ppm ppm(smallConfig(4));
    SymbolHistory phr(4, 10, StreamSel::MtIndirect);
    pushTarget(phr, 0x120000010);
    for (int i = 0; i < 100; ++i) {
        ppm.predict(phr, 0x1000);
        ppm.update(0x2000);
    }
    // After the seed, every access is served by order 4 — the paper's
    // ">= 98% of accesses in the highest order component" mechanism.
    EXPECT_GE(ppm.accessHistogram().fraction(4), 0.98);
}

TEST(Ppm, MissHistogramCountsWrongAndAbstain)
{
    Ppm ppm(smallConfig(2));
    SymbolHistory phr(2, 10, StreamSel::MtIndirect);
    ppm.predict(phr, 0x1000); // abstain
    ppm.update(0x2000);
    EXPECT_EQ(ppm.missHistogram().count(0), 1u);
    ppm.predict(phr, 0x1000); // hit now
    ppm.update(0x2000);
    EXPECT_EQ(ppm.missHistogram().total(), 1u);
    ppm.predict(phr, 0x1000); // wrong target
    ppm.update(0x9000);
    EXPECT_EQ(ppm.missHistogram().count(2), 1u);
}

TEST(Ppm, OrderZeroFallback)
{
    PpmConfig config = smallConfig(2);
    config.orderZero = true;
    Ppm ppm(config);
    SymbolHistory phr(2, 10, StreamSel::MtIndirect);
    ppm.predict(phr, 0x1000);
    ppm.update(0x2000);

    // A totally different history finds empty states at orders 2 and
    // 1... unless hashes collide; order-0 guarantees a prediction.
    SymbolHistory phr2(2, 10, StreamSel::MtIndirect);
    pushTarget(phr2, 0x1200004d4);
    pushTarget(phr2, 0x120000358);
    const auto p = ppm.predict(phr2, 0x1000);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.target, 0x2000u);
}

TEST(Ppm, StorageBitsMatchGeometry)
{
    Ppm ppm(smallConfig(10));
    EXPECT_EQ(ppm.storageBits(), 2046u * 67u);
}

TEST(Ppm, ResetClearsTablesAndStats)
{
    Ppm ppm(smallConfig(2));
    SymbolHistory phr(2, 10, StreamSel::MtIndirect);
    ppm.predict(phr, 0x1000);
    ppm.update(0x2000);
    ppm.reset();
    EXPECT_EQ(ppm.accessHistogram().total(), 0u);
    EXPECT_FALSE(ppm.predict(phr, 0x1000).valid);
}

TEST(Ppm, TaggedStackSeparatesBranches)
{
    PpmConfig config = smallConfig(2);
    config.tagged = true;
    config.ways = 2;
    config.tagBits = 8;
    Ppm ppm(config);
    SymbolHistory phr(2, 10, StreamSel::MtIndirect);
    pushTarget(phr, 0x120000010);
    pushTarget(phr, 0x120000024);

    ppm.predict(phr, 0x120000040);
    ppm.update(0x120002000);
    ppm.predict(phr, 0x120000a60); // same path, different branch
    ppm.update(0x120003000);

    EXPECT_EQ(ppm.predict(phr, 0x120000040).target, 0x120002000u);
    EXPECT_EQ(ppm.predict(phr, 0x120000a60).target, 0x120003000u);
}

} // namespace
