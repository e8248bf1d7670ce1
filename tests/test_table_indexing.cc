/**
 * @file
 * Tests for the table index-reduction fast path: reduce() must equal
 * plain modulo for every geometry — a single AND on power-of-two
 * sizes, a genuine modulo on everything else (e.g. the Cascade
 * predictor's 240-set PHTs).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "util/random.hh"
#include "util/table.hh"

namespace {

using ibp::util::AssocTable;
using ibp::util::DirectTable;

TEST(DirectTableIndexing, ReduceEqualsModuloOnPowerOfTwoSizes)
{
    ibp::util::Rng rng(0x715a);
    for (const std::size_t size : {1u, 2u, 64u, 1024u, 2048u}) {
        const DirectTable<int> table(size);
        ASSERT_EQ(table.size(), size);
        for (int i = 0; i < 10'000; ++i) {
            const auto hash = rng();
            EXPECT_EQ(table.reduce(hash), hash % size)
                << "size " << size << ", hash " << hash;
        }
    }
}

TEST(DirectTableIndexing, ReduceEqualsModuloOffPowersOfTwo)
{
    ibp::util::Rng rng(0x3b1);
    for (const std::size_t size : {3u, 240u, 1000u}) {
        const DirectTable<int> table(size);
        for (int i = 0; i < 10'000; ++i) {
            const auto hash = rng();
            EXPECT_EQ(table.reduce(hash), hash % size)
                << "size " << size << ", hash " << hash;
        }
    }
}

TEST(AssocTableIndexing, ReduceEqualsModuloOnPowerOfTwoSetCounts)
{
    ibp::util::Rng rng(0xc4e);
    for (const std::size_t sets : {1u, 2u, 256u, 1024u}) {
        const AssocTable<int> table(sets, 4);
        for (int i = 0; i < 10'000; ++i) {
            const auto hash = rng();
            EXPECT_EQ(table.reduce(hash), hash % sets)
                << "sets " << sets << ", hash " << hash;
        }
    }
}

TEST(AssocTableIndexing, CascadeGeometry240SetsStaysModulo)
{
    // The Cascade predictor's budget-constrained PHTs use 240 sets —
    // the regression this test pins is reduce() silently masking with
    // a non-power-of-two size.
    ibp::util::Rng rng(0xca5cade);
    AssocTable<int> table(240, 4);
    for (int i = 0; i < 10'000; ++i) {
        const auto hash = rng();
        const auto set = table.reduce(hash);
        EXPECT_EQ(set, hash % 240) << "hash " << hash;
        ASSERT_LT(set, 240u);
    }

    // The reduced indices are usable end to end.
    for (std::uint64_t tag = 0; tag < 500; ++tag) {
        const auto set = table.reduce(tag * 0x9e3779b97f4a7c15ULL);
        table.insert({set, tag}, static_cast<int>(tag));
        ASSERT_NE(table.lookup(set, tag), nullptr);
        EXPECT_EQ(*table.lookup(set, tag), static_cast<int>(tag));
    }
}

TEST(AssocTableIndexing, PeekIsConstAndLeavesLruUntouched)
{
    AssocTable<int> table(2, 2);
    table.insert({0, 10}, 100); // LRU after the next insert
    table.insert({0, 20}, 200);

    const AssocTable<int> &view = table;
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(*view.peek(0, 10), 100); // no MRU promotion

    table.insert({0, 30}, 300); // must still evict tag 10, the LRU
    EXPECT_EQ(view.peek(0, 10), nullptr);
    EXPECT_EQ(*view.peek(0, 20), 200);
    EXPECT_EQ(*view.peek(0, 30), 300);
}

} // namespace
