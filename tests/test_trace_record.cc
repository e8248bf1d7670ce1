/**
 * @file
 * Tests for the BranchRecord model and the trace buffer plumbing.
 */

#include <gtest/gtest.h>

#include "trace/branch_record.hh"
#include "trace/trace_buffer.hh"

namespace {

using namespace ibp::trace;

TEST(BranchRecord, NextPcTaken)
{
    BranchRecord r;
    r.pc = 0x1000;
    r.target = 0x2000;
    r.taken = true;
    EXPECT_EQ(r.nextPc(), 0x2000u);
}

TEST(BranchRecord, NextPcNotTaken)
{
    BranchRecord r;
    r.pc = 0x1000;
    r.target = 0x2000;
    r.taken = false;
    EXPECT_EQ(r.nextPc(), 0x1004u);
}

TEST(BranchRecord, KindClassification)
{
    EXPECT_TRUE(isIndirect(BranchKind::IndirectJmp));
    EXPECT_TRUE(isIndirect(BranchKind::IndirectCall));
    EXPECT_TRUE(isIndirect(BranchKind::Return));
    EXPECT_FALSE(isIndirect(BranchKind::CondDirect));
    EXPECT_FALSE(isIndirect(BranchKind::UncondDirect));
}

TEST(BranchRecord, PredictedIndirectNeedsMtAndKind)
{
    BranchRecord r;
    r.kind = BranchKind::IndirectJmp;
    r.multiTarget = true;
    EXPECT_TRUE(r.isPredictedIndirect());

    r.multiTarget = false; // single target: excluded
    EXPECT_FALSE(r.isPredictedIndirect());

    r.multiTarget = true;
    r.kind = BranchKind::Return; // RAS-predicted: excluded
    EXPECT_FALSE(r.isPredictedIndirect());

    r.kind = BranchKind::IndirectCall;
    EXPECT_TRUE(r.isPredictedIndirect());

    r.kind = BranchKind::CondDirect;
    EXPECT_FALSE(r.isPredictedIndirect());
}

TEST(BranchRecord, KindNames)
{
    EXPECT_STREQ(branchKindName(BranchKind::CondDirect), "cond");
    EXPECT_STREQ(branchKindName(BranchKind::UncondDirect), "br");
    EXPECT_STREQ(branchKindName(BranchKind::IndirectJmp), "jmp");
    EXPECT_STREQ(branchKindName(BranchKind::IndirectCall), "jsr");
    EXPECT_STREQ(branchKindName(BranchKind::Return), "ret");
}

TEST(BranchRecord, ToStringMentionsEverything)
{
    BranchRecord r;
    r.pc = 0x10;
    r.target = 0x20;
    r.kind = BranchKind::IndirectCall;
    r.multiTarget = true;
    r.call = true;
    const std::string s = toString(r);
    EXPECT_NE(s.find("jsr"), std::string::npos);
    EXPECT_NE(s.find("0x10"), std::string::npos);
    EXPECT_NE(s.find("0x20"), std::string::npos);
    EXPECT_NE(s.find("MT"), std::string::npos);
    EXPECT_NE(s.find(" C"), std::string::npos);
}

TEST(TraceBuffer, PushAndIterate)
{
    TraceBuffer buf;
    BranchRecord r;
    r.pc = 1;
    buf.push(r);
    r.pc = 2;
    buf.push(r);
    EXPECT_EQ(buf.size(), 2u);

    BranchRecord out;
    ASSERT_TRUE(buf.next(out));
    EXPECT_EQ(out.pc, 1u);
    ASSERT_TRUE(buf.next(out));
    EXPECT_EQ(out.pc, 2u);
    EXPECT_FALSE(buf.next(out));
}

TEST(TraceBuffer, RewindRestarts)
{
    TraceBuffer buf;
    BranchRecord r;
    r.pc = 5;
    buf.push(r);
    BranchRecord out;
    ASSERT_TRUE(buf.next(out));
    EXPECT_FALSE(buf.next(out));
    buf.rewind();
    ASSERT_TRUE(buf.next(out));
    EXPECT_EQ(out.pc, 5u);
}

TEST(TraceBuffer, ClearEmpties)
{
    TraceBuffer buf;
    buf.push({});
    buf.clear();
    EXPECT_TRUE(buf.empty());
    BranchRecord out;
    EXPECT_FALSE(buf.next(out));
}

} // namespace
