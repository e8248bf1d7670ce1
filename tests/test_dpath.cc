/**
 * @file
 * Tests for the PathComponent and the dual-path hybrid.
 */

#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/serde.hh"
#include "predictors/dpath.hh"

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

PathComponentConfig
taglessConfig()
{
    return {64, 24, 8, false, 4, 12};
}

PathComponentConfig
taggedConfig()
{
    return {64, 24, 8, true, 4, 12};
}

TEST(PathComponent, TaglessColdMiss)
{
    PathComponent c(taglessConfig());
    EXPECT_FALSE(c.predict(0x1000).valid);
}

TEST(PathComponent, TaglessLearns)
{
    PathComponent c(taglessConfig());
    c.predict(0x1000);
    c.update(0x2000, true);
    EXPECT_EQ(c.predict(0x1000).target, 0x2000u);
}

TEST(PathComponent, TaggedMissWithoutAllocate)
{
    PathComponent c(taggedConfig());
    c.predict(0x1000);
    c.update(0x2000, /*allocate=*/false);
    EXPECT_FALSE(c.predict(0x1000).valid);
}

TEST(PathComponent, TaggedAllocatesOnDemand)
{
    PathComponent c(taggedConfig());
    c.predict(0x1000);
    c.update(0x2000, /*allocate=*/true);
    const Prediction p = c.predict(0x1000);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.target, 0x2000u);
}

TEST(PathComponent, TaggedSeparatesBranches)
{
    // Unlike the tagless table, tags keep two branches that hash to
    // the same set from stealing each other's prediction.
    PathComponent c(taggedConfig());
    c.predict(0x120000040);
    c.update(0x2000, true);
    const Prediction other = c.predict(0x120000044);
    // Different tag: miss rather than a bogus hit.
    EXPECT_FALSE(other.valid && other.target == 0x2000u);
}

TEST(PathComponent, HistoryShiftsOnlyOnStream)
{
    PathComponent c(taglessConfig());
    BranchRecord cond;
    cond.kind = BranchKind::CondDirect;
    cond.pc = 0x100;
    cond.target = 0x200;
    c.observe(cond);
    EXPECT_EQ(c.history().value(), 0u);
    c.observe(mtJmp(0x100, 0x120000004));
    EXPECT_NE(c.history().value(), 0u);
}

TEST(PathComponent, StorageBitsTaggedVsTagless)
{
    PathComponent tagless(taglessConfig());
    PathComponent tagged(taggedConfig());
    EXPECT_EQ(tagless.storageBits(), 64u * 67u + 24u);
    EXPECT_EQ(tagged.storageBits(), 64u * (67u + 12u) + 24u);
}

DpathConfig
smallDpath()
{
    DpathConfig config;
    config.shortPath = {64, 24, 24, false, 4, 12};
    config.longPath = {64, 24, 8, false, 4, 12};
    config.selectorEntries = 64;
    return config;
}

TEST(Dpath, ColdMiss)
{
    Dpath dpath(smallDpath());
    EXPECT_FALSE(dpath.predict(0x1000).valid);
}

TEST(Dpath, LearnsSimplePattern)
{
    Dpath dpath(smallDpath());
    const ibp::trace::Addr pc = 0x120000040;
    for (int i = 0; i < 10; ++i) {
        dpath.predict(pc);
        dpath.update(pc, 0x120002000);
        dpath.observe(mtJmp(pc, 0x120002000));
    }
    EXPECT_EQ(dpath.predict(pc).target, 0x120002000u);
}

TEST(Dpath, AdaptsPathLengthPerBranch)
{
    // A target determined by the 3rd-most-recent indirect target is
    // invisible to the path-length-1 component but learnable by the
    // path-length-3 component; the selector must converge on the
    // latter and the hybrid must end up accurate.
    Dpath dpath(smallDpath());
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr markers[2] = {0x120001004, 0x120001148};
    const ibp::trace::Addr targets[2] = {0x120002000, 0x120003000};
    const ibp::trace::Addr noise[2] = {0x12000a000, 0x12000b004};

    int misses_late = 0;
    int phase_state = 12345;
    for (int i = 0; i < 3000; ++i) {
        phase_state = static_cast<int>(
            static_cast<std::uint32_t>(phase_state) * 1103515245u + 12345u);
        const int phase = (phase_state >> 16) & 1;
        // marker (3rd-back), then two noise indirects, then the branch
        dpath.observe(mtJmp(0x120000900, markers[phase]));
        dpath.observe(mtJmp(0x120000a00, noise[0]));
        dpath.observe(mtJmp(0x120000b00, noise[1]));
        const Prediction p = dpath.predict(pc);
        if (i > 2000 && p.target != targets[phase])
            ++misses_late;
        dpath.update(pc, targets[phase]);
        dpath.observe(mtJmp(pc, targets[phase]));
    }
    // After convergence the long component should nail nearly all.
    EXPECT_LT(misses_late, 50);
}

TEST(Dpath, StorageBitsSumComponents)
{
    Dpath dpath(smallDpath());
    EXPECT_EQ(dpath.storageBits(),
              (64u * 67u + 24u) * 2 + 64u * 2u);
}

TEST(Dpath, ResetForgets)
{
    Dpath dpath(smallDpath());
    dpath.predict(0x1000);
    dpath.update(0x1000, 0x2000);
    dpath.reset();
    EXPECT_FALSE(dpath.predict(0x1000).valid);
}

/**
 * A component's saved state with the U64 field @p from_end fields
 * before the end (1 = last tag, 2 = last set, 3 = last index)
 * replaced by @p value.
 */
std::vector<std::uint8_t>
craftedState(const PathComponentConfig &config, unsigned from_end,
             std::uint64_t value)
{
    PathComponent c(config);
    c.predict(0x1000);
    c.update(0x2000, true);
    ibp::util::StateWriter writer;
    c.saveState(writer);
    std::vector<std::uint8_t> bytes = writer.bytes();
    const std::size_t at = bytes.size() - 8 * from_end;
    for (unsigned i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
    return bytes;
}

TEST(PathComponent, LoadStateRejectsAnOutOfRangeSlot)
{
    // update() may run on a restored component before any predict(),
    // indexing its table with the restored slot.
    struct Case
    {
        PathComponentConfig config;
        unsigned from_end;
        std::uint64_t value;
        const char *message;
    };
    const Case cases[] = {
        {taglessConfig(), 3, 64, "PathComponent index out of range"},
        {taggedConfig(), 3, 1, "PathComponent index out of range"},
        {taggedConfig(), 2, 16, "PathComponent set out of range"},
        {taglessConfig(), 2, 1, "PathComponent set out of range"},
    };
    for (const Case &c : cases) {
        const std::vector<std::uint8_t> bytes =
            craftedState(c.config, c.from_end, c.value);
        PathComponent restored(c.config);
        ibp::util::StateReader reader(bytes);
        restored.loadState(reader);
        EXPECT_FALSE(reader.ok()) << c.message;
        EXPECT_EQ(reader.status().message().rfind(c.message, 0), 0u)
            << reader.status().message();
    }

    // The largest in-range values still load.
    for (const auto &[config, from_end, value] :
         {std::tuple{taglessConfig(), 3u, std::uint64_t{63}},
          std::tuple{taggedConfig(), 2u, std::uint64_t{15}}}) {
        const std::vector<std::uint8_t> bytes =
            craftedState(config, from_end, value);
        PathComponent restored(config);
        ibp::util::StateReader reader(bytes);
        restored.loadState(reader);
        EXPECT_TRUE(reader.ok()) << reader.status().message();
        restored.update(0x3000, true);
    }
}

} // namespace
