/**
 * @file
 * Tests for the direct-mapped and set-associative table templates,
 * including true-LRU replacement order.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/histogram.hh"
#include "util/probe.hh"
#include "util/table.hh"

namespace {

using ibp::util::AssocTable;
using ibp::util::DirectTable;
using ibp::util::Histogram;
using ibp::util::Slot;
using ibp::util::StateWriter;

struct Payload
{
    int value = 0;
};

TEST(DirectTable, DefaultConstructedEntries)
{
    DirectTable<Payload> t(8);
    EXPECT_EQ(t.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(t.at(i).value, 0);
}

TEST(DirectTable, WritesPersist)
{
    DirectTable<Payload> t(4);
    t.at(2).value = 42;
    EXPECT_EQ(t.at(2).value, 42);
    EXPECT_EQ(t.at(1).value, 0);
}

TEST(DirectTable, ResetClears)
{
    DirectTable<Payload> t(4);
    t.at(0).value = 1;
    t.reset();
    EXPECT_EQ(t.at(0).value, 0);
}

TEST(AssocTable, MissOnEmpty)
{
    AssocTable<Payload> t(4, 2);
    EXPECT_EQ(t.lookup(0, 123), nullptr);
    EXPECT_EQ(t.peek(0, 123), nullptr);
    EXPECT_EQ(t.occupancy(), 0u);
}

TEST(AssocTable, InsertThenHit)
{
    AssocTable<Payload> t(4, 2);
    t.insert({1, 77}, {5});
    Payload *p = t.lookup(1, 77);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->value, 5);
    EXPECT_EQ(t.occupancy(), 1u);
    // Same tag in a different set is a miss.
    EXPECT_EQ(t.lookup(2, 77), nullptr);
}

TEST(AssocTable, LruEvictsOldest)
{
    AssocTable<Payload> t(1, 2);
    t.insert({0, 1}, {1});
    t.insert({0, 2}, {2});
    // Probe tag 1 so tag 2 becomes LRU.
    const Slot slot = t.probe(0, 1);
    EXPECT_TRUE(slot.resolved);
    ASSERT_NE(t.at(slot), nullptr);
    t.insert({0, 3}, {3});
    EXPECT_NE(t.peek(0, 1), nullptr);
    EXPECT_EQ(t.peek(0, 2), nullptr); // evicted
    EXPECT_NE(t.peek(0, 3), nullptr);
}

TEST(AssocTable, PeekDoesNotPromote)
{
    AssocTable<Payload> t(1, 2);
    t.insert({0, 1}, {1});
    t.insert({0, 2}, {2});
    // Peek at tag 1: must NOT promote it, so it is still LRU.
    EXPECT_NE(t.peek(0, 1), nullptr);
    t.insert({0, 3}, {3});
    EXPECT_EQ(t.peek(0, 1), nullptr); // evicted despite the peek
    EXPECT_NE(t.peek(0, 2), nullptr);
}

TEST(AssocTable, FillsInvalidWaysFirst)
{
    AssocTable<Payload> t(1, 4);
    for (int i = 0; i < 4; ++i)
        t.insert({0, static_cast<std::uint64_t>(10 + i)}, {i});
    EXPECT_EQ(t.occupancy(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_NE(t.peek(0, 10 + i), nullptr);
}

TEST(AssocTable, SetOccupancy)
{
    AssocTable<Payload> t(2, 2);
    EXPECT_EQ(t.setOccupancy(0), 0u);
    t.insert({0, 1}, {});
    t.insert({1, 2}, {});
    EXPECT_EQ(t.setOccupancy(0), 1u);
    EXPECT_EQ(t.setOccupancy(1), 1u);
}

TEST(AssocTable, NonPowerOfTwoSets)
{
    // The Cascade predictor's 240-set geometry must be expressible.
    AssocTable<Payload> t(240, 4);
    EXPECT_EQ(t.sets(), 240u);
    EXPECT_EQ(t.size(), 960u);
    t.insert({239, 5}, {9});
    ASSERT_NE(t.lookup(239, 5), nullptr);
}

TEST(AssocTable, InsertReplacesSameTag)
{
    AssocTable<Payload> t(1, 2);
    t.insert({0, 7}, {1});
    // Inserting the same tag again must not duplicate it: lookup
    // returns the newest value and occupancy accounts one line.
    t.insert({0, 7}, {2});
    // Note: current insert() may place a second line with the same
    // tag only if the set had a free way; lookup returns one of them.
    Payload *p = t.lookup(0, 7);
    ASSERT_NE(p, nullptr);
}

TEST(AssocTable, ResetClears)
{
    AssocTable<Payload> t(2, 2);
    t.insert({0, 1}, {1});
    t.reset();
    EXPECT_EQ(t.occupancy(), 0u);
    EXPECT_EQ(t.peek(0, 1), nullptr);
}

TEST(AssocTable, EvictionProbeCountsValidVictimsOnly)
{
    AssocTable<Payload> t(1, 2);
    t.insert({0, 1}, {1});
    t.insert({0, 2}, {2}); // fills the free way: no eviction
    EXPECT_EQ(t.evictions(), 0u);
    t.insert({0, 3}, {3}); // displaces the LRU line
    const auto expected = ibp::util::kInstrumentEnabled ? 1u : 0u;
    EXPECT_EQ(t.evictions(), expected);
}

TEST(AssocTable, ConflictMissProbeCountsMissesInLiveSets)
{
    AssocTable<Payload> t(2, 2);
    // Miss in an empty set: cold, not a conflict.
    Slot slot = t.probe(0, 9);
    EXPECT_EQ(slot.way, Slot::kNoWay);
    EXPECT_EQ(t.at(slot), nullptr);
    EXPECT_EQ(t.conflictMisses(), 0u);
    t.insert(slot, {1});
    // Miss in a set that already holds a line: a conflict, counted
    // again by the update-side revisit.
    slot = t.probe(0, 8);
    EXPECT_EQ(t.at(slot), nullptr);
    const auto per_miss = ibp::util::kInstrumentEnabled ? 1u : 0u;
    EXPECT_EQ(t.conflictMisses(), per_miss);
    EXPECT_EQ(t.revisit(slot), nullptr);
    EXPECT_EQ(t.conflictMisses(), 2 * per_miss);
    // Misses in the other (still empty) set stay cold.
    EXPECT_EQ(t.at(t.probe(1, 9)), nullptr);
    EXPECT_EQ(t.conflictMisses(), 2 * per_miss);
}

TEST(AssocTable, RevisitReusesAResolvedSlotAndRescansAnUnresolvedOne)
{
    AssocTable<Payload> t(1, 2);
    t.insert({0, 1}, {1});
    Slot slot = t.probe(0, 1);
    ASSERT_TRUE(slot.resolved);
    Payload *hit = t.revisit(slot);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->value, 1);
    EXPECT_FALSE(slot.resolved) << "revisit consumes the slot";
    // A stale way on an unresolved slot is never trusted: after the
    // line moves to way 1, the rescan finds it there.
    t.reset();
    t.insert({0, 2}, {2});
    t.insert({0, 1}, {3});
    hit = t.revisit(slot);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->value, 3);
    EXPECT_EQ(slot.way, 1u);
}

/** The state and probe bytes of a table, for protocol comparisons. */
std::vector<std::uint8_t>
tableBytes(const AssocTable<Payload> &t)
{
    StateWriter writer;
    t.saveState(writer, [](StateWriter &w, const Payload &p) {
        w.writeU64(static_cast<std::uint64_t>(p.value));
    });
    t.saveProbes(writer);
    return writer.bytes();
}

TEST(AssocTable, ProbeThenRevisitMatchesTwoLookups)
{
    // One predict/update pair per access over a 2-set, 2-way table:
    // hits, cold misses and LRU evictions.  Protocol A is the slot
    // path (probe at predict, revisit at update, resolved or not);
    // protocol B is lookup() then lookup() and insert().  Both must
    // leave identical lines, LRU stamps, clock and probe counters.
    const std::uint64_t tags[] = {1, 2, 1, 3, 4, 2, 1, 1, 5, 3, 4, 4};
    for (const bool resolved : {true, false}) {
        AssocTable<Payload> a(2, 2);
        AssocTable<Payload> b(2, 2);
        int value = 0;
        for (const std::uint64_t tag : tags) {
            const std::uint64_t set = a.reduce(tag * 3);
            ++value;

            Slot slot = a.probe(set, tag);
            if (!resolved)
                slot.resolved = false; // as after a checkpoint restore
            if (Payload *entry = a.revisit(slot))
                entry->value = value;
            else
                a.insert(slot, {value});

            (void)b.lookup(set, tag);
            if (Payload *entry = b.lookup(set, tag))
                entry->value = value;
            else
                b.insert({set, tag}, {value});
        }
        EXPECT_EQ(tableBytes(a), tableBytes(b))
            << (resolved ? "resolved" : "unresolved") << " slots";
        EXPECT_EQ(a.evictions(), b.evictions());
        EXPECT_EQ(a.conflictMisses(), b.conflictMisses());
    }
}

TEST(AssocTable, ResetClearsProbes)
{
    AssocTable<Payload> t(1, 1);
    t.insert({0, 1}, {1});
    t.insert({0, 2}, {2});
    (void)t.lookup(0, 3);
    t.reset();
    EXPECT_EQ(t.evictions(), 0u);
    EXPECT_EQ(t.conflictMisses(), 0u);
}

TEST(Histogram, CountsAndFractions)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1, 3);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 3u);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.75);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(2);
    h.sample(9);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.clamped(), 1u);
}

TEST(Histogram, ResetClears)
{
    Histogram h(2);
    h.sample(0);
    h.sample(5);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.clamped(), 0u);
}

TEST(Histogram, OutOfRangeCountReadsZero)
{
    // Report emitters iterate a fixed shape over merged histograms of
    // differing sizes; reads past the domain are 0, not a panic.
    Histogram h(2);
    h.sample(0);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.count(999), 0u);
    EXPECT_DOUBLE_EQ(h.fraction(999), 0.0);
}

TEST(Histogram, MeanIsSampleWeighted)
{
    Histogram h(4);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0); // empty: defined as 0
    h.sample(0);
    h.sample(2, 3);
    // (0*1 + 2*3) / 4
    EXPECT_DOUBLE_EQ(h.mean(), 1.5);
    h.sample(3, 4);
    EXPECT_DOUBLE_EQ(h.mean(), 2.25);
}

TEST(Histogram, FractionAtMostIsCumulative)
{
    Histogram h(4);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(3), 0.0); // empty
    h.sample(0);
    h.sample(1);
    h.sample(3, 2);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(0), 0.25);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(1), 0.5);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(2), 0.5);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(3), 1.0);
    // Beyond the domain still covers everything.
    EXPECT_DOUBLE_EQ(h.fractionAtMost(99), 1.0);
}

/** LRU stress: a working set equal to associativity never misses. */
class LruSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(LruSweepTest, WorkingSetWithinWaysAlwaysHitsAfterWarmup)
{
    const auto [sets, ways] = GetParam();
    AssocTable<Payload> t(sets, ways);
    // Warm: insert `ways` tags into every set.
    for (int s = 0; s < sets; ++s)
        for (int w = 0; w < ways; ++w)
            t.insert({static_cast<std::uint64_t>(s),
                      static_cast<std::uint64_t>(100 + w)},
                     {w});
    // Round-robin touch: every access must hit.
    for (int round = 0; round < 5; ++round)
        for (int s = 0; s < sets; ++s)
            for (int w = 0; w < ways; ++w)
                EXPECT_NE(t.lookup(s, 100 + w), nullptr);
    EXPECT_EQ(t.occupancy(), static_cast<std::size_t>(sets * ways));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruSweepTest,
    ::testing::Values(std::tuple{1, 1}, std::tuple{1, 4},
                      std::tuple{4, 2}, std::tuple{3, 5},
                      std::tuple{32, 4}));

} // namespace
