/**
 * @file
 * Tests for the complete PPM predictor variants (paper Figure 4).
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/serde.hh"
#include "core/ppm_predictor.hh"

namespace {

using namespace ibp::core;
using ibp::pred::Prediction;
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

BranchRecord
cond(ibp::trace::Addr pc, ibp::trace::Addr target, bool taken)
{
    BranchRecord r;
    r.pc = pc;
    r.target = target;
    r.kind = BranchKind::CondDirect;
    r.taken = taken;
    return r;
}

PpmPredictorConfig
smallConfig(PpmVariant variant)
{
    PpmPredictorConfig config = paperPpmConfig(variant);
    config.ppm.hash.order = 4;
    return config;
}

TEST(PpmPredictor, NamesFollowVariant)
{
    EXPECT_EQ(PpmPredictor(smallConfig(PpmVariant::Hybrid)).name(),
              "PPM-hyb");
    EXPECT_EQ(PpmPredictor(smallConfig(PpmVariant::PibOnly)).name(),
              "PPM-PIB");
    EXPECT_EQ(
        PpmPredictor(smallConfig(PpmVariant::HybridBiased)).name(),
        "PPM-hyb-biased");
}

TEST(PpmPredictor, ColdMissThenLearn)
{
    PpmPredictor ppm(smallConfig(PpmVariant::Hybrid));
    const ibp::trace::Addr pc = 0x120000040;
    EXPECT_FALSE(ppm.predict(pc).valid);
    ppm.update(pc, 0x120002000);
    ppm.observe(mtJmp(pc, 0x120002000));
    // Different history now, but repeating the loop converges.
    int late_misses = 0;
    for (int i = 0; i < 200; ++i) {
        const Prediction p = ppm.predict(pc);
        if (i > 50 && p.target != 0x120002000u)
            ++late_misses;
        ppm.update(pc, 0x120002000);
        ppm.observe(mtJmp(pc, 0x120002000));
    }
    EXPECT_EQ(late_misses, 0);
}

TEST(PpmPredictor, LearnsPibCorrelatedPattern)
{
    // Target = f(previous indirect target): PIB order 1.
    PpmPredictor ppm(smallConfig(PpmVariant::PibOnly));
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr markers[2] = {0x120001004, 0x120001148};
    const ibp::trace::Addr targets[2] = {0x120002000, 0x120003000};
    int late_misses = 0;
    int state = 7;
    for (int i = 0; i < 4000; ++i) {
        state = static_cast<int>(
            static_cast<std::uint32_t>(state) * 1103515245u + 12345u);
        const int phase = (state >> 16) & 1;
        ppm.observe(mtJmp(0x120000900, markers[phase]));
        const Prediction p = ppm.predict(pc);
        if (i > 3000 && p.target != targets[phase])
            ++late_misses;
        ppm.update(pc, targets[phase]);
        ppm.observe(mtJmp(pc, targets[phase]));
    }
    EXPECT_LT(late_misses, 30);
}

TEST(PpmPredictor, HybridLearnsPbCorrelatedPattern)
{
    // Target determined by the direction of a preceding conditional:
    // invisible to the PIB register, learnable through PB.  The
    // hybrid's selection counter must discover that.
    PpmPredictor hyb(smallConfig(PpmVariant::Hybrid));
    PpmPredictor pib(smallConfig(PpmVariant::PibOnly));
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr targets[2] = {0x120002000, 0x120003000};
    int hyb_late = 0;
    int pib_late = 0;
    int state = 3;
    for (int i = 0; i < 6000; ++i) {
        state = static_cast<int>(
            static_cast<std::uint32_t>(state) * 1103515245u + 12345u);
        const int phase = (state >> 16) & 1;
        const auto c = cond(0x120000900, 0x120000a00, phase == 1);
        hyb.observe(c);
        pib.observe(c);
        const Prediction ph = hyb.predict(pc);
        const Prediction pp = pib.predict(pc);
        if (i > 5000) {
            hyb_late += ph.target != targets[phase];
            pib_late += pp.target != targets[phase];
        }
        hyb.update(pc, targets[phase]);
        pib.update(pc, targets[phase]);
        const auto r = mtJmp(pc, targets[phase]);
        hyb.observe(r);
        pib.observe(r);
    }
    // PIB-only sees only the branch's own (independently random)
    // target stream -> ~50% misses over the 1000 scored iterations.
    EXPECT_GT(pib_late, 350);
    // The hybrid switches this branch to PB history; collisions in
    // the small tagless tables cost something, but it must beat the
    // PIB-only variant decisively.
    EXPECT_LT(hyb_late, 300);
    EXPECT_LT(hyb_late * 2, pib_late);
    EXPECT_LT(hyb.pibSelectRatio(), 0.6);
}

TEST(PpmPredictor, PibOnlyIgnoresBiu)
{
    PpmPredictor ppm(smallConfig(PpmVariant::PibOnly));
    ppm.predict(0x1000);
    ppm.update(0x1000, 0x2000);
    // No BIU entries were allocated for the 1-level predictor.
    EXPECT_EQ(ppm.biu().capacity(), 0u);
}

TEST(PpmPredictor, HybridAllocatesBiuEntries)
{
    PpmPredictor ppm(smallConfig(PpmVariant::Hybrid));
    ppm.predict(0x1000);
    ppm.update(0x1000, 0x2000);
    ppm.predict(0x2000);
    ppm.update(0x2000, 0x3000);
    EXPECT_EQ(ppm.biu().capacity(), 2u);
}

TEST(PpmPredictor, StorageBitsHybridVsPib)
{
    PpmPredictor hyb(smallConfig(PpmVariant::Hybrid));
    PpmPredictor pib(smallConfig(PpmVariant::PibOnly));
    // Hybrid carries two PHRs + BIU counters; PIB-only carries one.
    EXPECT_GT(hyb.storageBits(), pib.storageBits());
}

TEST(PpmPredictor, PaperConfigBudget)
{
    const PpmPredictorConfig config =
        paperPpmConfig(PpmVariant::Hybrid);
    PpmPredictor ppm(config);
    // 2046 Markov entries x 67 bits + 2 x 100-bit PHRs.
    EXPECT_EQ(ppm.storageBits(), 2046u * 67u + 200u);
}

TEST(PpmPredictor, ResetForgets)
{
    PpmPredictor ppm(smallConfig(PpmVariant::Hybrid));
    ppm.predict(0x1000);
    ppm.update(0x1000, 0x2000);
    ppm.observe(mtJmp(0x1000, 0x2000));
    ppm.reset();
    EXPECT_FALSE(ppm.predict(0x1000).valid);
    EXPECT_EQ(ppm.biu().capacity(), 1u); // just the re-probe above
    EXPECT_EQ(ppm.core().accessHistogram().total(), 1u);
}

TEST(PpmPredictor, BiasedVariantUsesBiasedMachine)
{
    // Drive a branch into a PB state, then mispredict once: the
    // biased variant must be back on PIB, the normal hybrid not.
    PpmPredictorConfig config = smallConfig(PpmVariant::HybridBiased);
    PpmPredictor biased(config);
    PpmPredictor normal(smallConfig(PpmVariant::Hybrid));

    auto drive = [](PpmPredictor &p) {
        const ibp::trace::Addr pc = 0x120000040;
        // Two mispredictions: strongly PIB -> weakly PB (both modes).
        p.predict(pc);
        p.update(pc, 0x120002000);
        p.predict(pc);
        p.update(pc, 0x120007000);
        p.predict(pc);
        p.update(pc, 0x120008000);
        // One more misprediction from the PB side.
        p.predict(pc);
        p.update(pc, 0x120009000);
        return p.pibSelectRatio();
    };
    // Just exercise both; detailed state transitions are covered by
    // the correlation tests.  The biased run must select PIB at least
    // as often as the normal run.
    EXPECT_GE(drive(biased), drive(normal));
}

TEST(PpmPredictor, RegistersRecordTheirConfiguredStreams)
{
    // observe() advances exactly the registers whose stream holds the
    // record, for every PB/PIB stream pairing and branch class.
    using ibp::pred::StreamSel;
    const StreamSel streams[] = {
        StreamSel::AllBranches,
        StreamSel::AllIndirect,
        StreamSel::MtIndirect,
    };
    for (StreamSel pb : streams) {
        for (StreamSel pib : streams) {
            PpmPredictorConfig config = smallConfig(PpmVariant::Hybrid);
            config.pbStream = pb;
            config.pibStream = pib;
            for (unsigned kind = 0;
                 kind <= static_cast<unsigned>(BranchKind::Return);
                 ++kind) {
                for (bool multi_target : {false, true}) {
                    BranchRecord r;
                    r.kind = static_cast<BranchKind>(kind);
                    r.multiTarget = multi_target;
                    r.taken = true;
                    r.target = 0x1234; // a symbol with a non-zero fold
                    PpmPredictor ppm(config);
                    ppm.observe(r);
                    const auto [pb_reg, pib_reg] = ppm.historyRegisters();
                    EXPECT_EQ(pb_reg.value() != 0,
                              ibp::pred::inStream(pb, r))
                        << "PB kind " << kind << " mt " << multi_target;
                    EXPECT_EQ(pib_reg.value() != 0,
                              ibp::pred::inStream(pib, r))
                        << "PIB kind " << kind << " mt " << multi_target;
                }
            }
        }
    }
}

/** A warmed PPM-hyb's state bytes, and where its PB register's
 *  serialized fold ring starts in them. */
struct WarmState
{
    std::vector<std::uint8_t> bytes;
    std::size_t pbWordOffset;
};

WarmState
warmHybrid()
{
    PpmPredictor ppm(paperPpmConfig(PpmVariant::Hybrid));
    for (unsigned i = 0; i < 37; ++i) {
        const ibp::trace::Addr pc = 0x120000040 + 0x40 * (i % 3);
        const ibp::trace::Addr target = 0x120004000 + 0x1c4 * (i % 7);
        ppm.predictAndUpdate(pc, target);
        ppm.observe(mtJmp(pc, target));
        ppm.observe(cond(0x120000100 + 4 * i, 0x120000200, i % 2 == 0));
    }
    ibp::util::StateWriter core;
    ppm.core().saveState(core);
    ibp::util::StateWriter all;
    ppm.saveState(all);
    return {all.bytes(), core.bytes().size()};
}

bool
loads(const std::vector<std::uint8_t> &bytes)
{
    PpmPredictor fresh(paperPpmConfig(PpmVariant::Hybrid));
    ibp::util::StateReader reader(bytes);
    fresh.loadState(reader);
    return reader.ok();
}

TEST(PpmPredictor, LoadStateRoundTripsAWarmRegister)
{
    const WarmState warm = warmHybrid();
    PpmPredictor fresh(paperPpmConfig(PpmVariant::Hybrid));
    ibp::util::StateReader reader(warm.bytes);
    fresh.loadState(reader);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    ibp::util::StateWriter again;
    fresh.saveState(again);
    EXPECT_EQ(again.bytes(), warm.bytes);
}

TEST(PpmPredictor, LoadStateRejectsASlotWiderThanTheFold)
{
    // PB register layout: varint order (1 byte), then one U64 per
    // slot.  Slot 0 = 0x100 does not fit a 5-bit fold.
    WarmState warm = warmHybrid();
    ASSERT_EQ(warm.bytes[warm.pbWordOffset], 10u);
    warm.bytes[warm.pbWordOffset + 1 + 1] = 0x01;
    EXPECT_FALSE(loads(warm.bytes));
}

TEST(PpmPredictor, LoadStateRejectsAWordTheRingDoesNotImply)
{
    // After the order varint, 10 slots and the 1-byte head varint
    // comes the U64 word; flip its lowest bit.
    WarmState warm = warmHybrid();
    warm.bytes[warm.pbWordOffset + 1 + 10 * 8 + 1] ^= 0x01;
    EXPECT_FALSE(loads(warm.bytes));
}

} // namespace
