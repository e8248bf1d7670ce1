/**
 * @file
 * Tests for the synthetic target-selection behaviours.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/serde.hh"
#include "workload/behavior.hh"

namespace {

using namespace ibp::workload;

TEST(PathState, RecentOrderIsNewestFirst)
{
    PathState path(4);
    path.push(StreamKind::AllBranches, 10);
    path.push(StreamKind::AllBranches, 20);
    path.push(StreamKind::AllBranches, 30);
    EXPECT_EQ(path.recent(StreamKind::AllBranches, 0), 30u);
    EXPECT_EQ(path.recent(StreamKind::AllBranches, 1), 20u);
    EXPECT_EQ(path.recent(StreamKind::AllBranches, 2), 10u);
}

TEST(PathState, ColdStartReadsZero)
{
    PathState path;
    EXPECT_EQ(path.recent(StreamKind::AllBranches, 0), 0u);
    EXPECT_EQ(path.recent(StreamKind::MtIndirect, 5), 0u);
}

TEST(PathState, StreamsAreIndependent)
{
    PathState path;
    path.push(StreamKind::AllBranches, 1);
    path.push(StreamKind::MtIndirect, 2);
    EXPECT_EQ(path.recent(StreamKind::AllBranches, 0), 1u);
    EXPECT_EQ(path.recent(StreamKind::MtIndirect, 0), 2u);
    EXPECT_EQ(path.length(StreamKind::AllBranches), 1u);
    EXPECT_EQ(path.length(StreamKind::MtIndirect), 1u);
}

TEST(PathState, DepthBounded)
{
    PathState path(3);
    for (int i = 0; i < 10; ++i)
        path.push(StreamKind::AllBranches, i);
    EXPECT_EQ(path.length(StreamKind::AllBranches), 3u);
    EXPECT_EQ(path.recent(StreamKind::AllBranches, 0), 9u);
    EXPECT_EQ(path.recent(StreamKind::AllBranches, 2), 7u);
    // Beyond retained depth: cold-start zero.
    EXPECT_EQ(path.recent(StreamKind::AllBranches, 3), 0u);
}

TEST(PathState, WrapsPastTheRingCapacity)
{
    PathState path(PathState::kCapacity);
    const std::uint64_t pushes = 3 * PathState::kCapacity + 5;
    for (std::uint64_t i = 1; i <= pushes; ++i)
        path.push(StreamKind::MtIndirect, i);
    EXPECT_EQ(path.length(StreamKind::MtIndirect), PathState::kCapacity);
    for (std::size_t i = 0; i < PathState::kCapacity; ++i)
        EXPECT_EQ(path.recent(StreamKind::MtIndirect, i), pushes - i);
    EXPECT_EQ(path.recent(StreamKind::MtIndirect, PathState::kCapacity),
              0u);
    EXPECT_EQ(path.length(StreamKind::AllBranches), 0u);
}

TEST(PathState, ShallowDepthHidesOlderRingSlots)
{
    // The ring still holds symbols older than the depth; they must
    // read as cold, exactly as if they had been dropped.
    PathState path(5);
    for (std::uint64_t i = 1; i <= 200; ++i)
        path.push(StreamKind::AllBranches, i);
    EXPECT_EQ(path.length(StreamKind::AllBranches), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(path.recent(StreamKind::AllBranches, i), 200 - i);
    EXPECT_EQ(path.recent(StreamKind::AllBranches, 5), 0u);
    EXPECT_EQ(path.recent(StreamKind::AllBranches, 40), 0u);
}

TEST(PathState, SaveLoadRoundTripsAtFullDepth)
{
    PathState path(PathState::kCapacity);
    for (std::uint64_t i = 1; i <= 100; ++i)
        path.push(StreamKind::AllBranches, i * 4);
    for (std::uint64_t i = 1; i <= 70; ++i)
        path.push(StreamKind::MtIndirect, i * 8);
    ibp::util::StateWriter writer;
    path.saveState(writer);

    // Layout: per stream (PB, then PIB) a length, then oldest first.
    ibp::util::StateReader layout(writer.bytes());
    EXPECT_EQ(layout.readVarint(), PathState::kCapacity);
    EXPECT_EQ(layout.readU64(), (100 - 64 + 1) * 4u);

    PathState restored(PathState::kCapacity);
    ibp::util::StateReader reader(writer.bytes());
    restored.loadState(reader);
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(reader.atEnd());
    for (StreamKind stream :
         {StreamKind::AllBranches, StreamKind::MtIndirect}) {
        EXPECT_EQ(restored.length(stream), path.length(stream));
        for (std::size_t i = 0; i <= PathState::kCapacity; ++i)
            EXPECT_EQ(restored.recent(stream, i), path.recent(stream, i));
    }
    ibp::util::StateWriter again;
    restored.saveState(again);
    EXPECT_EQ(again.bytes(), writer.bytes());
}

TEST(PathState, RejectsASavedStreamLongerThanItsDepth)
{
    PathState deep(PathState::kCapacity);
    for (std::uint64_t i = 0; i < 10; ++i)
        deep.push(StreamKind::AllBranches, i);
    ibp::util::StateWriter writer;
    deep.saveState(writer);

    PathState shallow(4);
    ibp::util::StateReader reader(writer.bytes());
    shallow.loadState(reader);
    EXPECT_FALSE(reader.ok());
}

TEST(MonomorphicBehavior, AlwaysZeroWithoutNoise)
{
    MonomorphicBehavior b(0.0);
    PathState path;
    ibp::util::Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(b.nextTarget(path, 8, rng), 0u);
}

TEST(MonomorphicBehavior, NoiseStrays)
{
    MonomorphicBehavior b(0.5);
    PathState path;
    ibp::util::Rng rng(2);
    int strays = 0;
    for (int i = 0; i < 1000; ++i) {
        const std::size_t t = b.nextTarget(path, 4, rng);
        EXPECT_LT(t, 4u);
        if (t != 0)
            ++strays;
    }
    EXPECT_GT(strays, 300);
    EXPECT_LT(strays, 700);
}

TEST(MonomorphicBehavior, SingleTargetIgnoresNoise)
{
    MonomorphicBehavior b(1.0);
    PathState path;
    ibp::util::Rng rng(3);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(b.nextTarget(path, 1, rng), 0u);
}

TEST(PhasedBehavior, DwellsThenMoves)
{
    PhasedBehavior b(50.0);
    PathState path;
    ibp::util::Rng rng(4);
    std::size_t last = b.nextTarget(path, 6, rng);
    int switches = 0;
    for (int i = 0; i < 5000; ++i) {
        const std::size_t t = b.nextTarget(path, 6, rng);
        EXPECT_LT(t, 6u);
        if (t != last)
            ++switches;
        last = t;
    }
    // Expected ~100 switches at mean dwell 50.
    EXPECT_GT(switches, 40);
    EXPECT_LT(switches, 250);
}

TEST(PathCorrelatedBehavior, DeterministicGivenPath)
{
    PathCorrelatedBehavior b(StreamKind::MtIndirect, 3, 2, 0.0, 0xabc);
    ibp::util::Rng rng(5);
    PathState path;
    path.push(StreamKind::MtIndirect, 0x120000010);
    path.push(StreamKind::MtIndirect, 0x120000024);
    path.push(StreamKind::MtIndirect, 0x120000038);
    const std::size_t first = b.nextTarget(path, 8, rng);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(b.nextTarget(path, 8, rng), first);
}

TEST(PathCorrelatedBehavior, DependsOnThePath)
{
    PathCorrelatedBehavior b(StreamKind::MtIndirect, 2, 3, 0.0, 0xabc);
    ibp::util::Rng rng(6);
    // Count distinct outputs over distinct paths: must exceed 1.
    std::set<std::size_t> outputs;
    for (std::uint64_t s = 0; s < 16; ++s) {
        PathState path;
        path.push(StreamKind::MtIndirect, 0x100 + 4 * s);
        path.push(StreamKind::MtIndirect, 0x200 + 8 * s);
        outputs.insert(b.nextTarget(path, 16, rng));
    }
    EXPECT_GT(outputs.size(), 2u);
}

TEST(PathCorrelatedBehavior, IgnoresOtherStream)
{
    PathCorrelatedBehavior b(StreamKind::MtIndirect, 2, 3, 0.0, 0x77);
    ibp::util::Rng rng(7);
    PathState a;
    a.push(StreamKind::MtIndirect, 0x1230);
    a.push(StreamKind::MtIndirect, 0x4560);
    PathState c;
    c.push(StreamKind::MtIndirect, 0x1230);
    c.push(StreamKind::MtIndirect, 0x4560);
    c.push(StreamKind::AllBranches, 0x9990); // extra PB noise
    EXPECT_EQ(b.nextTarget(a, 8, rng), b.nextTarget(c, 8, rng));
}

TEST(PathCorrelatedBehavior, SiteKeysDecorrelate)
{
    PathCorrelatedBehavior b1(StreamKind::MtIndirect, 2, 3, 0.0, 1);
    PathCorrelatedBehavior b2(StreamKind::MtIndirect, 2, 3, 0.0, 2);
    ibp::util::Rng rng(8);
    int differ = 0;
    for (std::uint64_t s = 0; s < 64; ++s) {
        PathState path;
        path.push(StreamKind::MtIndirect, 0x1000 + 4 * s);
        path.push(StreamKind::MtIndirect, 0x2000 + 12 * s);
        if (b1.nextTarget(path, 16, rng) != b2.nextTarget(path, 16, rng))
            ++differ;
    }
    EXPECT_GT(differ, 32);
}

TEST(PathCorrelatedBehavior, NameEncodesStreamAndOrder)
{
    PathCorrelatedBehavior pb(StreamKind::AllBranches, 4, 2, 0.0, 0);
    PathCorrelatedBehavior pib(StreamKind::MtIndirect, 7, 2, 0.0, 0);
    EXPECT_EQ(pb.name(), "pb-k4");
    EXPECT_EQ(pib.name(), "pib-k7");
}

TEST(SelfCorrelatedBehavior, DeterministicChainWithoutNoise)
{
    SelfCorrelatedBehavior a(2, 0.0, 0x5);
    SelfCorrelatedBehavior b(2, 0.0, 0x5);
    PathState path;
    ibp::util::Rng rng_a(9);
    ibp::util::Rng rng_b(9);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.nextTarget(path, 12, rng_a),
                  b.nextTarget(path, 12, rng_b));
}

TEST(UniformBehavior, CoversTargets)
{
    UniformBehavior b;
    PathState path;
    ibp::util::Rng rng(10);
    std::vector<int> seen(5, 0);
    for (int i = 0; i < 5000; ++i)
        ++seen[b.nextTarget(path, 5, rng)];
    for (int count : seen)
        EXPECT_GT(count, 700);
}

TEST(SparseCorrelatedBehavior, ReadsOnlyItsTaps)
{
    // Noise-free sparse behaviour is a pure function of the tapped
    // path positions: perturbing an untapped depth never moves the
    // target, perturbing a tapped one does.
    ibp::util::Rng rng(1);
    SparseCorrelatedBehavior b(StreamKind::MtIndirect, {0, 3}, 2, 0.0,
                               0xBEEF);
    EXPECT_EQ(b.taps(), (std::vector<unsigned>{0, 3}));

    auto path_with = [](std::uint64_t depth1) {
        PathState path;
        // Pushed oldest first: the symbols land at depths 3, 2, 1, 0.
        path.push(StreamKind::MtIndirect, 0x11 << 2);
        path.push(StreamKind::MtIndirect, 0x22 << 2);
        path.push(StreamKind::MtIndirect, depth1 << 2);
        path.push(StreamKind::MtIndirect, 0x33 << 2);
        return path;
    };
    const PathState base = path_with(0x44);
    const std::size_t target = b.nextTarget(base, 64, rng);
    EXPECT_EQ(b.nextTarget(base, 64, rng), target)
        << "noise-free sparse behaviour must be deterministic";
    EXPECT_EQ(b.nextTarget(path_with(0x55), 64, rng), target)
        << "depth 1 is untapped; changing it moved the target";

    PathState tapped = path_with(0x44);
    tapped.push(StreamKind::MtIndirect, 0x77 << 2); // shifts all taps
    EXPECT_NE(b.nextTarget(tapped, 64, rng), target)
        << "tapped symbols changed but the target did not";
}

TEST(SparseCorrelatedBehavior, NameListsTheTaps)
{
    SparseCorrelatedBehavior pib(StreamKind::MtIndirect, {1, 5, 13}, 2,
                                 0.25, 1);
    EXPECT_NE(pib.name().find("sparse-pib"), std::string::npos)
        << pib.name();
}

TEST(MatcherBehavior, WalksTheAutomatonStateCycle)
{
    // "aa" over "abab" under MP compares (TFF)^2 from states
    // [0,1,0,0,1,0]; the behaviour replays that cycle as targets,
    // modulo the site's arity, ignoring path and rng entirely.
    ibp::util::Rng rng(1);
    PathState path;
    MatcherBehavior b("aa", "abab", false);
    ASSERT_EQ(b.cycleLength(), 6u);
    const std::vector<std::size_t> expected = {0, 1, 0, 0, 1, 0};
    for (int lap = 0; lap < 2; ++lap)
        for (std::size_t state : expected)
            EXPECT_EQ(b.nextTarget(path, 2, rng), state);
}

TEST(MatcherBehavior, CursorSurvivesSaveAndLoad)
{
    ibp::util::Rng rng(1);
    PathState path;
    MatcherBehavior original("aa", "abab", false);
    original.nextTarget(path, 2, rng);
    original.nextTarget(path, 2, rng);

    ibp::util::StateWriter writer;
    original.saveState(writer);
    MatcherBehavior restored("aa", "abab", false);
    ibp::util::StateReader reader(writer.bytes());
    restored.loadState(reader);
    ASSERT_TRUE(reader.ok());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(restored.nextTarget(path, 2, rng),
                  original.nextTarget(path, 2, rng));
}

TEST(MatcherBehavior, RejectsCursorBeyondItsCycle)
{
    ibp::util::StateWriter writer;
    writer.writeVarint(1'000);
    MatcherBehavior behavior("aa", "abab", false);
    ibp::util::StateReader reader(writer.bytes());
    behavior.loadState(reader);
    EXPECT_FALSE(reader.ok())
        << "an out-of-cycle cursor must latch a decode error";
}

TEST(MixHash, KeySensitivity)
{
    int differ = 0;
    for (std::uint64_t v = 0; v < 64; ++v)
        if (mixHash(1, v) != mixHash(2, v))
            ++differ;
    EXPECT_EQ(differ, 64);
}

} // namespace
