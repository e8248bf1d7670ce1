/**
 * @file
 * Tests for the Markov-table component of the PPM stack.
 */

#include <gtest/gtest.h>

#include "util/bitops.hh"
#include "util/random.hh"
#include "core/markov_table.hh"

namespace {

using namespace ibp::core;

TEST(MarkovTable, EmptyStateIsInvalid)
{
    MarkovTable table({3, 8, false, 2, 8});
    EXPECT_FALSE(table.lookup(0, 0).valid);
    EXPECT_EQ(table.occupancy(), 0u);
}

TEST(MarkovTable, TrainSetsValidBit)
{
    MarkovTable table({3, 8, false, 2, 8});
    table.train(5, 0, 0x2000);
    const auto p = table.lookup(5, 0);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.target, 0x2000u);
    EXPECT_EQ(table.occupancy(), 1u);
}

TEST(MarkovTable, TargetReplacementHysteresis)
{
    MarkovTable table({3, 8, false, 2, 8});
    table.train(2, 0, 0x2000);
    table.train(2, 0, 0x2000); // counter up
    table.train(2, 0, 0x9000); // one miss: keep
    EXPECT_EQ(table.lookup(2, 0).target, 0x2000u);
    table.train(2, 0, 0x9000);
    table.train(2, 0, 0x9000); // persistent: replace
    EXPECT_EQ(table.lookup(2, 0).target, 0x9000u);
}

TEST(MarkovTable, TaglessIgnoresTag)
{
    MarkovTable table({3, 8, false, 2, 8});
    table.train(1, 0xaa, 0x2000);
    EXPECT_TRUE(table.lookup(1, 0xbb).valid); // tagless: tag unused
}

TEST(MarkovTable, IndexWrapsModuloEntries)
{
    MarkovTable table({3, 8, false, 2, 8});
    table.train(3, 0, 0x2000);
    EXPECT_TRUE(table.lookup(3 + 8, 0).valid);
}

TEST(MarkovTable, TaggedMissOnWrongTag)
{
    MarkovTable table({3, 8, true, 2, 8});
    table.train(1, 0xaa, 0x2000);
    EXPECT_TRUE(table.lookup(1, 0xaa).valid);
    EXPECT_FALSE(table.lookup(1, 0xbb).valid);
}

TEST(MarkovTable, TaggedKeepsTwoWays)
{
    MarkovTable table({3, 8, true, 2, 8});
    table.train(1, 0xaa, 0x2000);
    table.train(1, 0xbb, 0x3000);
    EXPECT_EQ(table.lookup(1, 0xaa).target, 0x2000u);
    EXPECT_EQ(table.lookup(1, 0xbb).target, 0x3000u);
}

TEST(MarkovTable, TaggedEvictsLruWithinSet)
{
    MarkovTable table({3, 4, true, 2, 8}); // 2 sets x 2 ways
    table.train(0, 0xa, 0x1000);
    table.train(0, 0xb, 0x2000);
    table.lookup(0, 0xa); // touch a: b becomes LRU
    table.train(0, 0xc, 0x3000);
    EXPECT_TRUE(table.lookup(0, 0xa).valid);
    EXPECT_FALSE(table.lookup(0, 0xb).valid);
    EXPECT_TRUE(table.lookup(0, 0xc).valid);
}

TEST(MarkovTable, StorageBits)
{
    MarkovTable tagless({3, 1024, false, 2, 8});
    MarkovTable tagged({3, 1024, true, 2, 8});
    EXPECT_EQ(tagless.storageBits(), 1024u * 67u);
    EXPECT_EQ(tagged.storageBits(), 1024u * 75u);
}

TEST(MarkovTable, ResetClearsOccupancy)
{
    MarkovTable table({3, 8, false, 2, 8});
    table.train(0, 0, 0x2000);
    table.reset();
    EXPECT_EQ(table.occupancy(), 0u);
    EXPECT_FALSE(table.lookup(0, 0).valid);
}

TEST(MarkovTable, OrderAccessor)
{
    MarkovTable table({7, 8, false, 2, 8});
    EXPECT_EQ(table.order(), 7u);
    EXPECT_EQ(table.entries(), 8u);
}

TEST(ArenaSlot, IsSelectThenReduceIndexPlusBase)
{
    // The folded mask on power-of-two sizes and the modulo arm
    // elsewhere must both equal the generic select-then-reduce.
    ibp::util::Rng rng(0xA5E7);
    for (std::size_t entries : {2u, 3u, 6u, 768u, 1000u, 1024u}) {
        for (unsigned shift : {0u, 5u, 23u}) {
            for (unsigned bits : {1u, 7u, 10u, 12u}) {
                const std::uint64_t select = ibp::util::maskLow(bits);
                const ArenaSlot slot =
                    ArenaSlot::make(17, entries, shift, select);
                for (int i = 0; i < 200; ++i) {
                    const std::uint64_t word = rng();
                    ASSERT_EQ(slot(word),
                              17 + ibp::util::reduceIndex(
                                       (word >> shift) & select,
                                       entries))
                        << entries << " entries, shift " << shift
                        << ", " << bits << " bits";
                }
            }
        }
    }
}

} // namespace
