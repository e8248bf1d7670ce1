/**
 * @file
 * Tests for the per-branch correlation study.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "workload/profiles.hh"
#include "workload/program.hh"
#include "sim/branch_study.hh"
#include "sim/experiment.hh"

namespace {

using namespace ibp::sim;
using ibp::trace::BranchKind;
using ibp::trace::BranchRecord;
using ibp::trace::TraceBuffer;

BranchRecord
mtJmp(ibp::trace::Addr pc, ibp::trace::Addr target)
{
    BranchRecord r;
    r.kind = BranchKind::IndirectJmp;
    r.pc = pc;
    r.target = target;
    r.multiTarget = true;
    return r;
}

BranchRecord
cond(ibp::trace::Addr pc, ibp::trace::Addr target, bool taken)
{
    BranchRecord r;
    r.kind = BranchKind::CondDirect;
    r.pc = pc;
    r.target = target;
    r.taken = taken;
    return r;
}

TEST(BranchStudy, ClassNames)
{
    EXPECT_STREQ(correlationClassName(CorrelationClass::PbCorrelated),
                 "PB");
    EXPECT_STREQ(correlationClassName(CorrelationClass::PibCorrelated),
                 "PIB");
    EXPECT_STREQ(correlationClassName(CorrelationClass::Either),
                 "either");
    EXPECT_STREQ(
        correlationClassName(CorrelationClass::Unpredictable),
        "unpredictable");
}

TEST(BranchStudy, EmptyTrace)
{
    TraceBuffer buf;
    const auto study = studyCorrelation(buf);
    EXPECT_TRUE(study.sites.empty());
    EXPECT_EQ(study.dynamicTotal, 0u);
    EXPECT_EQ(study.dynamicShare(CorrelationClass::PbCorrelated), 0.0);
}

TEST(BranchStudy, MinExecutionsFiltersColdSites)
{
    TraceBuffer buf;
    for (int i = 0; i < 10; ++i)
        buf.push(mtJmp(0x1000, 0x2000));
    StudyOptions options;
    options.minExecutions = 64;
    EXPECT_TRUE(studyCorrelation(buf, options).sites.empty());
    options.minExecutions = 4;
    buf.rewind();
    EXPECT_EQ(studyCorrelation(buf, options).sites.size(), 1u);
}

TEST(BranchStudy, PbOnlyCorrelationClassifiedPb)
{
    // Target is a pure function of the preceding conditional's
    // direction: only the PB stream can see it.
    TraceBuffer buf;
    int state = 9;
    for (int i = 0; i < 3000; ++i) {
        state = static_cast<int>(
            static_cast<std::uint32_t>(state) * 1103515245u + 12345u);
        const bool taken = (state >> 16) & 1;
        buf.push(cond(0x120000900, 0x120000a00, taken));
        buf.push(mtJmp(0x120000040,
                       taken ? 0x120002000 : 0x120003000));
    }
    const auto study = studyCorrelation(buf);
    ASSERT_EQ(study.sites.size(), 1u);
    EXPECT_EQ(study.sites[0].cls, CorrelationClass::PbCorrelated);
    EXPECT_GT(study.sites[0].bestPbAccuracy, 0.95);
    EXPECT_LT(study.sites[0].bestPibAccuracy, 0.8);
    EXPECT_DOUBLE_EQ(
        study.dynamicShare(CorrelationClass::PbCorrelated), 1.0);
}

TEST(BranchStudy, PibCorrelationVisibleToBothClassifiedEither)
{
    // Target is a function of the previous indirect target.  The PB
    // window (length 8) also contains that target, so both streams
    // predict it: class "either".
    TraceBuffer buf;
    int state = 3;
    ibp::trace::Addr marker = 0x120001004;
    for (int i = 0; i < 3000; ++i) {
        state = static_cast<int>(
            static_cast<std::uint32_t>(state) * 1103515245u + 12345u);
        marker = ((state >> 16) & 1) ? 0x120001004 : 0x120001148;
        buf.push(mtJmp(0x120000900, marker));
        buf.push(mtJmp(0x120000040, marker == 0x120001004
                                        ? 0x120002000
                                        : 0x120003000));
    }
    const auto study = studyCorrelation(buf);
    ASSERT_EQ(study.sites.size(), 2u);
    for (const auto &site : study.sites) {
        if (site.pc != 0x120000040)
            continue;
        EXPECT_EQ(site.cls, CorrelationClass::Either);
        EXPECT_GT(site.bestPibAccuracy, 0.95);
        EXPECT_GT(site.bestPbAccuracy, 0.95);
    }
}

TEST(BranchStudy, PibBeyondPbWindowClassifiedPib)
{
    // The informative indirect target sits 6 indirect branches back,
    // with conditional chatter in between: the 8-deep PB window (in
    // *branches*) is too short, while the 8-deep PIB window (in
    // *indirect targets*) still reaches it.
    TraceBuffer buf;
    int state = 5;
    std::vector<ibp::trace::Addr> recent(8, 0x120001004);
    for (int i = 0; i < 4000; ++i) {
        state = static_cast<int>(
            static_cast<std::uint32_t>(state) * 1103515245u + 12345u);
        const ibp::trace::Addr marker =
            ((state >> 16) & 1) ? 0x120001004 : 0x120001148;
        buf.push(mtJmp(0x120000900, marker));
        recent.push_back(marker);
        // Five filler indirect branches with constant targets, each
        // preceded by conditional chatter that floods the PB window.
        for (int f = 0; f < 5; ++f) {
            buf.push(cond(0x120000b00 + f * 0x20, 0x120000c00,
                          (state >> (f + 3)) & 1));
            buf.push(mtJmp(0x120000700 + f * 0x40,
                           0x120009000 + f * 0x100));
            recent.push_back(0x120009000 + f * 0x100);
        }
        const ibp::trace::Addr deep =
            recent[recent.size() - 6]; // the marker, 6 targets back
        buf.push(mtJmp(0x120000040, deep == 0x120001004
                                        ? 0x120002000
                                        : 0x120003000));
        recent.push_back(deep == 0x120001004 ? 0x120002000
                                             : 0x120003000);
    }
    const auto study = studyCorrelation(buf);
    const SiteCorrelation *deep_site = nullptr;
    for (const auto &site : study.sites)
        if (site.pc == 0x120000040)
            deep_site = &site;
    ASSERT_NE(deep_site, nullptr);
    EXPECT_EQ(deep_site->cls, CorrelationClass::PibCorrelated);
    EXPECT_GT(deep_site->bestPibAccuracy, 0.95);
}

TEST(BranchStudy, UnpredictableSiteClassified)
{
    TraceBuffer buf;
    int state = 77;
    for (int i = 0; i < 3000; ++i) {
        state = static_cast<int>(
            static_cast<std::uint32_t>(state) * 1103515245u + 12345u);
        buf.push(mtJmp(0x120000040,
                       0x120002000 + ((state >> 16) % 8) * 64));
    }
    const auto study = studyCorrelation(buf);
    ASSERT_EQ(study.sites.size(), 1u);
    EXPECT_EQ(study.sites[0].cls, CorrelationClass::Unpredictable);
}

TEST(BranchStudy, SuiteProfilesPopulateBothClasses)
{
    // The premise of PPM-hyb: the suite has both PB- and PIB-best
    // sites in meaningful dynamic volume.
    const auto suite = ibp::workload::standardSuite();
    const auto *troff =
        ibp::workload::findProfile(suite, "troff.ped");
    ASSERT_NE(troff, nullptr);
    auto trace = generateTrace(*troff, 0.1);
    const auto study = studyCorrelation(trace);
    EXPECT_GT(study.sites.size(), 5u);
    EXPECT_GT(study.dynamicShare(CorrelationClass::PbCorrelated) +
                  study.dynamicShare(CorrelationClass::Either),
              0.05);
}

} // namespace
