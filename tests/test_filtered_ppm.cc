/**
 * @file
 * Tests for the filtered PPM extension (paper Section 6 future work).
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "core/filtered_ppm.hh"

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

FilteredPpmConfig
smallConfig(ibp::pred::FilterMode mode = ibp::pred::FilterMode::Leaky)
{
    FilteredPpmConfig config;
    config.filter = {16, 4, mode};
    config.ppm = paperPpmConfig(PpmVariant::Hybrid);
    config.ppm.ppm.hash.order = 4;
    return config;
}

TEST(FilteredPpm, Name)
{
    EXPECT_EQ(FilteredPpm(smallConfig()).name(), "Filtered-PPM-hyb");
}

TEST(FilteredPpm, MonomorphicBranchStaysInFilter)
{
    FilteredPpm fppm(smallConfig());
    const ibp::trace::Addr pc = 0x120000040;
    int misses = 0;
    for (int i = 0; i < 300; ++i) {
        const Prediction p = fppm.predict(pc);
        if (!p.hit(0x120002000))
            ++misses;
        fppm.update(pc, 0x120002000);
        fppm.observe(mtJmp(pc, 0x120002000));
    }
    EXPECT_LE(misses, 2);
    EXPECT_GT(fppm.filterServeRatio(), 0.95);
    // The Markov tables stayed clean: only the cold first execution
    // (no filter entry yet) consulted the PPM stack.
    EXPECT_LE(fppm.inner().core().accessHistogram().total(), 1u);
}

TEST(FilteredPpm, PolymorphicBranchPromotesToPpm)
{
    FilteredPpm fppm(smallConfig());
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr markers[2] = {0x120001004, 0x120001148};
    const ibp::trace::Addr targets[2] = {0x120002000, 0x120003000};
    int late_misses = 0;
    int state = 5;
    for (int i = 0; i < 4000; ++i) {
        state = static_cast<int>(
            static_cast<std::uint32_t>(state) * 1103515245u + 12345u);
        const int phase = (state >> 16) & 1;
        fppm.observe(mtJmp(0x120000900, markers[phase]));
        const Prediction p = fppm.predict(pc);
        if (i > 3000 && p.target != targets[phase])
            ++late_misses;
        fppm.update(pc, targets[phase]);
        fppm.observe(mtJmp(pc, targets[phase]));
    }
    EXPECT_LT(late_misses, 50);
    // The PPM stack did the work for this branch.
    EXPECT_GT(fppm.inner().core().accessHistogram().total(), 100u);
}

TEST(FilteredPpm, FilterShieldsPpmFromMonomorphicPollution)
{
    // Mix one polymorphic branch with many monomorphic ones; the
    // filtered predictor must keep the monomorphic population out of
    // the Markov tables (few PPM accesses from them).
    FilteredPpm fppm(smallConfig());
    const ibp::trace::Addr poly_pc = 0x120000040;
    const ibp::trace::Addr targets[2] = {0x120002000, 0x120003000};
    int state = 5;
    std::uint64_t mono_accesses_before = 0;
    for (int i = 0; i < 2000; ++i) {
        state = static_cast<int>(
            static_cast<std::uint32_t>(state) * 1103515245u + 12345u);
        const int phase = (state >> 16) & 1;
        // Three monomorphic branches.
        for (int m = 0; m < 3; ++m) {
            const ibp::trace::Addr pc = 0x120005000 + m * 0x40;
            const ibp::trace::Addr target = 0x120008000 + m * 0x100;
            fppm.predict(pc);
            fppm.update(pc, target);
            fppm.observe(mtJmp(pc, target));
        }
        mono_accesses_before =
            fppm.inner().core().accessHistogram().total();
        // One polymorphic branch (marker-correlated).
        fppm.observe(mtJmp(0x120000900,
                           phase ? 0x120001148 : 0x120001004));
        fppm.predict(poly_pc);
        fppm.update(poly_pc, targets[phase]);
        fppm.observe(mtJmp(poly_pc, targets[phase]));
    }
    // PPM accesses must be (almost entirely) due to the poly branch:
    // roughly one per iteration, not four.
    EXPECT_LT(mono_accesses_before, 2500u);
}

TEST(FilteredPpm, StrictModePromotesLater)
{
    FilteredPpm leaky(smallConfig(ibp::pred::FilterMode::Leaky));
    FilteredPpm strict(smallConfig(ibp::pred::FilterMode::Strict));
    const ibp::trace::Addr pc = 0x120000040;

    auto miss_once = [&](FilteredPpm &f) {
        f.predict(pc);
        f.update(pc, 0x120002000);
        f.predict(pc);
        f.update(pc, 0x120003000); // first mispredict
        f.predict(pc);
        f.update(pc, 0x120003000);
        return f.inner().core().accessHistogram().total();
    };
    // Leaky promotes after the first miss; strict needs the counter
    // to drain first, so its PPM sees fewer accesses.
    EXPECT_GE(miss_once(leaky), miss_once(strict));
}

TEST(FilteredPpm, StorageIncludesFilterAndPpm)
{
    FilteredPpm fppm(smallConfig());
    PpmPredictor bare(smallConfig().ppm);
    EXPECT_GT(fppm.storageBits(), bare.storageBits());
}

TEST(FilteredPpm, ResetForgets)
{
    FilteredPpm fppm(smallConfig());
    fppm.predict(0x1000);
    fppm.update(0x1000, 0x2000);
    fppm.reset();
    EXPECT_FALSE(fppm.predict(0x1000).valid);
    // The post-reset probe found no filter entry, so the (empty) PPM
    // stack was consulted: nothing was served by the filter.
    EXPECT_EQ(fppm.filterServeRatio(), 0.0);
}

} // namespace
