/**
 * @file
 * Tests for the hashed-perceptron indirect predictor: a hand-computed
 * training trace, margin-threshold gating, weight saturation, the
 * candidate cache, and checkpoint serde.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitops.hh"
#include "util/probe.hh"
#include "util/serde.hh"
#include "predictors/perceptron_indirect.hh"

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

PerceptronIndirectConfig
smallConfig()
{
    PerceptronIndirectConfig config;
    config.candidateSets = 4;
    config.candidateWays = 2;
    config.candidateTagBits = 8;
    config.numTables = 2;
    config.entriesPerTable = 64;
    config.weightBits = 6;
    config.trainingThreshold = 8;
    config.pibHistoryBits = 8;
    config.pibBitsPerTarget = 4;
    config.pbHistoryBits = 8;
    config.pbBitsPerTarget = 2;
    return config;
}

std::vector<std::uint8_t>
stateBytes(const PerceptronIndirect &predictor)
{
    ibp::util::StateWriter writer;
    predictor.saveState(writer);
    return writer.bytes();
}

std::vector<std::uint8_t>
probeBytes(const PerceptronIndirect &predictor)
{
    ibp::util::StateWriter writer;
    predictor.saveProbes(writer);
    return writer.bytes();
}

/** Train @p split through predict() then update() and @p fused
 *  through predictAndUpdate(); both must predict the same target. */
void
stepBoth(PerceptronIndirect &split, PerceptronIndirect &fused,
         ibp::trace::Addr pc, ibp::trace::Addr target)
{
    const Prediction a = split.predict(pc);
    split.update(pc, target);
    const Prediction b = fused.predictAndUpdate(pc, target);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.target, b.target);
}

/** The perceptron/weight_updates probe (first field of saveProbes). */
std::uint64_t
weightUpdates(const PerceptronIndirect &predictor)
{
    const std::vector<std::uint8_t> probes = probeBytes(predictor);
    ibp::util::StateReader reader(probes);
    return reader.readU64();
}

/** Both clones must agree in state and in probe counters. */
void
expectSameBytes(const PerceptronIndirect &split,
                const PerceptronIndirect &fused)
{
    EXPECT_EQ(stateBytes(split), stateBytes(fused));
    EXPECT_EQ(probeBytes(split), probeBytes(fused));
}

TEST(PerceptronIndirect, ColdMissAndName)
{
    PerceptronIndirect perceptron(smallConfig());
    EXPECT_FALSE(perceptron.predict(0x120000040).valid);
    EXPECT_EQ(perceptron.name(), "Perceptron");
}

TEST(PerceptronIndirect, HandComputedFiveBranchTrainingTrace)
{
    // Two weight tables, zero history, one pc: every score is the sum
    // of exactly two weights, so the perceptron rule's arithmetic is
    // checkable by hand.  Threshold 8 keeps correct predictions
    // training (low margin) through the whole trace.
    PerceptronIndirect p(smallConfig());
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000, t2 = 0x120002480;

    // Precondition for the arithmetic below: the two candidates must
    // not collide in either feature row, or the deltas would overlap.
    ASSERT_NE(p.featureIndex(0, pc, t1), p.featureIndex(0, pc, t2));
    ASSERT_NE(p.featureIndex(1, pc, t1), p.featureIndex(1, pc, t2));
    ASSERT_EQ(p.score(pc, t1), 0);

    // 1: cold mispredict -> +1 on t1's two rows.
    p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 2);
    EXPECT_EQ(p.predict(pc).target, t1);

    // 2, 3: correct but under the margin threshold -> keep training.
    p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 4);
    p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 6);

    // 4: t2 arrives: mispredict trains t2 up and the chosen t1 down.
    p.update(pc, t2);
    EXPECT_EQ(p.score(pc, t2), 2);
    EXPECT_EQ(p.score(pc, t1), 4);
    EXPECT_EQ(p.predict(pc).target, t1) << "4 > 2: t1 still wins";

    // 5: t2 again: another +1/-1 swing flips the ranking.
    p.update(pc, t2);
    EXPECT_EQ(p.score(pc, t2), 4);
    EXPECT_EQ(p.score(pc, t1), 2);
    EXPECT_EQ(p.predict(pc).target, t2);
}

TEST(PerceptronIndirect, StopsTrainingOnceTheMarginClears)
{
    PerceptronIndirectConfig config = smallConfig();
    config.trainingThreshold = 4;
    PerceptronIndirect p(config);
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000;

    p.update(pc, t1); // mispredict: score 2
    p.update(pc, t1); // correct, 2 < 4: score 4
    p.update(pc, t1); // correct, 4 >= 4: no change
    p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 4)
        << "training must stop at the margin threshold";
}

TEST(PerceptronIndirect, WeightsSaturateAtMaxWeight)
{
    PerceptronIndirectConfig config = smallConfig();
    config.trainingThreshold = 10000; // never stop training
    PerceptronIndirect p(config);
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000;

    EXPECT_EQ(p.maxWeight(), (1 << (config.weightBits - 1)) - 1);
    for (int i = 0; i < 200; ++i)
        p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 2 * p.maxWeight())
        << "each of the two weights must clamp at +maxWeight";
    p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 2 * p.maxWeight());
}

TEST(PerceptronIndirect, PredictsOnlyCachedCandidates)
{
    // Score is necessary but not sufficient: a target evicted from
    // the candidate cache cannot be predicted no matter how strong
    // its weights are.
    PerceptronIndirect p(smallConfig()); // 2-way candidate sets
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000;
    const ibp::trace::Addr t2 = 0x120002480, t3 = 0x120003140;

    for (int i = 0; i < 20; ++i)
        p.update(pc, t1); // t1's weights dwarf everything
    ASSERT_EQ(p.predict(pc).target, t1);

    p.update(pc, t2);
    p.update(pc, t3); // two fresh tags in a 2-way set: t1 is the LRU
    const Prediction after = p.predict(pc);
    ASSERT_TRUE(after.valid);
    EXPECT_NE(after.target, t1)
        << "evicted candidate predicted from weights alone";
}

TEST(PerceptronIndirect, FeatureIndicesFollowTheirHistoryStream)
{
    // Table 0 hashes the PIB (indirect-only) register, table 1 the PB
    // (all-branches) register: a conditional branch may move only the
    // PB feature row, an indirect jump moves the PIB row too.
    PerceptronIndirectConfig config = smallConfig();
    config.entriesPerTable = 1024; // keep reduce() collision-free here
    PerceptronIndirect p(config);
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr target = 0x120001000;

    const std::uint64_t pib0 = p.featureIndex(0, pc, target);
    const std::uint64_t pb0 = p.featureIndex(1, pc, target);

    BranchRecord cond;
    cond.pc = 0x120000900;
    cond.target = 0x120000a34;
    cond.kind = BranchKind::CondDirect;
    cond.taken = true;
    p.observe(cond);
    EXPECT_EQ(p.featureIndex(0, pc, target), pib0)
        << "conditional branch leaked into the PIB register";
    EXPECT_NE(p.featureIndex(1, pc, target), pb0);

    p.observe(mtJmp(0x120000980, 0x120004dd0));
    EXPECT_NE(p.featureIndex(0, pc, target), pib0);
}

TEST(PerceptronIndirect, UncachedTargetTrainsFromAFreshHash)
{
    // The actual target is not in the candidate cache, so the scoring
    // pass never hashed it: training must fold it afresh for the +1,
    // and push the cached best candidate down with its reused hashes.
    PerceptronIndirect split(smallConfig());
    PerceptronIndirect fused(smallConfig());
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000, t2 = 0x120002480;
    ASSERT_NE(split.featureIndex(0, pc, t1), split.featureIndex(0, pc, t2));
    ASSERT_NE(split.featureIndex(1, pc, t1), split.featureIndex(1, pc, t2));

    stepBoth(split, fused, pc, t1); // cold: t1 +1 on both rows
    stepBoth(split, fused, pc, t1); // low margin: t1 +1 again
    ASSERT_EQ(split.score(pc, t1), 4);
    ASSERT_EQ(split.score(pc, t2), 0);

    const std::uint64_t updates = weightUpdates(fused);
    stepBoth(split, fused, pc, t2); // t2 uncached: +1 t2, -1 t1
    for (const PerceptronIndirect *p : {&split, &fused}) {
        EXPECT_EQ(p->score(pc, t2), 2);
        EXPECT_EQ(p->score(pc, t1), 2);
    }
    EXPECT_EQ(weightUpdates(fused),
              updates + (ibp::util::kInstrumentEnabled ? 2u : 0u));
    expectSameBytes(split, fused);
}

TEST(PerceptronIndirect, CachedRunnerUpTakesTheMinusOnePathOnReusedHashes)
{
    // Both targets are cached, t1 scores higher: a t2 branch is a
    // mispredict whose +1 lands on a candidate the scoring pass already
    // hashed (but did not choose) and whose -1 reuses the chosen
    // candidate's hashes.
    PerceptronIndirectConfig config = smallConfig();
    config.trainingThreshold = 0; // correct predictions never train
    PerceptronIndirect split(config);
    PerceptronIndirect fused(config);
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000, t2 = 0x120002480;

    stepBoth(split, fused, pc, t1); // t1: +1 (score 2), cached
    stepBoth(split, fused, pc, t2); // t2: +1 (2), t1: -1 (0), cached
    stepBoth(split, fused, pc, t2); // t2 now best: correct, no train
    stepBoth(split, fused, pc, t1); // t1 runner-up: +1 t1, -1 t2
    ASSERT_EQ(split.score(pc, t1), 2);
    ASSERT_EQ(split.score(pc, t2), 0);

    const std::uint64_t updates = weightUpdates(fused);
    stepBoth(split, fused, pc, t2); // cached, not best: +1 t2, -1 t1
    for (const PerceptronIndirect *p : {&split, &fused}) {
        EXPECT_EQ(p->score(pc, t2), 2);
        EXPECT_EQ(p->score(pc, t1), 0);
    }
    EXPECT_EQ(weightUpdates(fused),
              updates + (ibp::util::kInstrumentEnabled ? 2u : 0u));
    expectSameBytes(split, fused);
}

TEST(PerceptronIndirect, PlusAndMinusOnOneWeightSaturateInOrder)
{
    // Find a second target whose feature rows coincide with t1's in
    // every table (same fold modulo the table size) but whose
    // candidate tag differs.  Training it against a saturated t1 puts
    // the +1 and the -1 on the same weights: +1 clamps at maxWeight,
    // then -1 leaves maxWeight - 1.  Netting the two deltas first
    // would leave maxWeight — order matters, and fused training must
    // keep it.
    PerceptronIndirectConfig config = smallConfig();
    config.trainingThreshold = 10000; // always train
    PerceptronIndirect split(config);
    PerceptronIndirect fused(config);
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000;

    ibp::trace::Addr twin = 0;
    for (ibp::trace::Addr probe = t1 + 4; probe < t1 + 4 * 1000000;
         probe += 4) {
        if (split.featureIndex(0, pc, probe) ==
                split.featureIndex(0, pc, t1) &&
            split.featureIndex(1, pc, probe) ==
                split.featureIndex(1, pc, t1) &&
            ibp::util::foldXor(probe >> 2, 40, config.candidateTagBits) !=
                ibp::util::foldXor(t1 >> 2, 40, config.candidateTagBits)) {
            twin = probe;
            break;
        }
    }
    ASSERT_NE(twin, 0u) << "no feature twin in 1M targets; hash changed?";

    for (int i = 0; i < 100; ++i)
        stepBoth(split, fused, pc, t1);
    ASSERT_EQ(split.score(pc, t1), 2 * split.maxWeight());

    stepBoth(split, fused, pc, twin); // t1 predicted: +1 then -1
    for (const PerceptronIndirect *p : {&split, &fused})
        EXPECT_EQ(p->score(pc, t1), 2 * (p->maxWeight() - 1))
            << "+1 must saturate before the -1 applies";
    expectSameBytes(split, fused);
}

TEST(PerceptronIndirect, SerdeRoundTripIsByteIdentical)
{
    const PerceptronIndirectConfig config = smallConfig();
    PerceptronIndirect trained(config);

    std::uint32_t lcg = 7;
    const ibp::trace::Addr targets[4] = {0x120001000, 0x120002480,
                                         0x120003140, 0x120004dd0};
    for (int i = 0; i < 4000; ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        const ibp::trace::Addr pc = 0x120000000 + (lcg >> 20 & 0x7C);
        const ibp::trace::Addr target = targets[lcg >> 13 & 3];
        trained.predict(pc);
        trained.update(pc, target);
        trained.observe(mtJmp(pc, target));
    }

    const std::vector<std::uint8_t> saved = stateBytes(trained);
    PerceptronIndirect restored(config);
    ibp::util::StateReader reader(saved);
    restored.loadState(reader);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    EXPECT_EQ(stateBytes(restored), saved)
        << "save -> load -> save must be byte-identical";

    for (ibp::trace::Addr pc = 0x120000000; pc < 0x120000080; pc += 4) {
        const Prediction a = trained.predict(pc);
        const Prediction b = restored.predict(pc);
        EXPECT_EQ(a.valid, b.valid);
        EXPECT_EQ(a.target, b.target);
    }
}

TEST(PerceptronIndirect, LoadStateRejectsTableCountMismatch)
{
    PerceptronIndirectConfig config = smallConfig();
    PerceptronIndirect two(config);
    config.numTables = 4;
    PerceptronIndirect four(config);

    ibp::util::StateWriter writer;
    two.saveState(writer);
    ibp::util::StateReader reader(writer.bytes());
    four.loadState(reader);
    EXPECT_FALSE(reader.ok());
}

TEST(PerceptronIndirect, LoadStateRejectsOutOfRangeWeight)
{
    // The weight stream is the tail of the blob; with 6-bit weights
    // the magnitude bound is 31, so a planted 40 in the final row must
    // latch the reader into failure.
    const PerceptronIndirectConfig config = smallConfig();
    PerceptronIndirect p(config);
    ibp::util::StateWriter writer;
    p.saveState(writer);
    std::vector<std::uint8_t> bytes = writer.bytes();
    bytes.back() = 40;

    PerceptronIndirect other(config);
    ibp::util::StateReader reader(bytes);
    other.loadState(reader);
    EXPECT_FALSE(reader.ok());
}

TEST(PerceptronIndirect, LoadStateRejectsACandidateCacheTrainingCannotReach)
{
    // Training revisits a correct prediction's way without rescanning
    // its set, which is exact because every live line is a valid
    // candidate found under the tag of its own target.  A checkpoint
    // breaking either half must not load.  smallConfig()'s blob: two
    // 8-byte registers, then the cache's header (two one-byte varints
    // and the 8-byte clock) and 4 x 2 lines of valid byte, tag, LRU
    // stamp and TargetEntry (valid byte, target, counter): 27 bytes.
    const PerceptronIndirectConfig config = smallConfig();
    PerceptronIndirect p(config);
    p.update(0x120000040, 0x120001000);
    const std::vector<std::uint8_t> saved = stateBytes(p);
    const std::size_t first = 8 + 8 + 1 + 1 + 8, stride = 27;
    std::size_t live = 0;
    for (std::size_t line = 0; line < 8; ++line)
        if (saved[first + line * stride] == 1)
            live = first + line * stride;
    ASSERT_NE(live, 0u) << "no live candidate line";
    ASSERT_EQ(saved[live + 17], 1u) << "layout drifted";

    const auto loads = [&](const std::vector<std::uint8_t> &bytes) {
        PerceptronIndirect other(config);
        ibp::util::StateReader reader(bytes);
        other.loadState(reader);
        return reader.ok();
    };
    EXPECT_TRUE(loads(saved));
    std::vector<std::uint8_t> foreign = saved;
    foreign[live + 1] ^= 1; // the line's tag no longer its target's
    EXPECT_FALSE(loads(foreign));
    std::vector<std::uint8_t> dead = saved;
    dead[live + 17] = 0; // live in the cache, yet no candidate
    EXPECT_FALSE(loads(dead));
}

TEST(PerceptronIndirect, StorageBitsMatchesTheFormula)
{
    const PerceptronIndirectConfig config = smallConfig();
    const PerceptronIndirect p(config);
    const std::uint64_t expected =
        config.candidateSets * config.candidateWays *
            (TargetEntry::bits() + config.candidateTagBits) +
        config.numTables * config.entriesPerTable * config.weightBits +
        config.pibHistoryBits + config.pbHistoryBits;
    EXPECT_EQ(p.storageBits(), expected);
}

TEST(PerceptronIndirect, ResetRestoresColdState)
{
    const PerceptronIndirectConfig config = smallConfig();
    PerceptronIndirect p(config);
    const PerceptronIndirect cold(config);
    for (int i = 0; i < 50; ++i) {
        p.update(0x120000040, 0x120001000);
        p.observe(mtJmp(0x120000040, 0x120001000));
    }
    ASSERT_TRUE(p.predict(0x120000040).valid);
    p.reset();
    EXPECT_FALSE(p.predict(0x120000040).valid);
    EXPECT_EQ(stateBytes(p), stateBytes(cold));
}

} // namespace
