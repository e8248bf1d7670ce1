/**
 * @file
 * Tests for the shift-register and whole-symbol path histories.
 */

#include <gtest/gtest.h>

#include "predictors/path_history.hh"

namespace {

using namespace ibp::pred;
using ibp::trace::BranchKind;
using ibp::trace::BranchRecord;

BranchRecord
record(BranchKind kind, ibp::trace::Addr target, bool mt = true,
       bool taken = true)
{
    BranchRecord r;
    r.pc = 0x120000100;
    r.target = target;
    r.kind = kind;
    r.multiTarget = mt;
    r.taken = taken;
    return r;
}

TEST(StreamMembership, AllBranches)
{
    EXPECT_TRUE(inStream(StreamSel::AllBranches,
                         record(BranchKind::CondDirect, 0x10, false)));
    EXPECT_TRUE(inStream(StreamSel::AllBranches,
                         record(BranchKind::Return, 0x10, false)));
}

TEST(StreamMembership, MtIndirect)
{
    EXPECT_TRUE(inStream(StreamSel::MtIndirect,
                         record(BranchKind::IndirectJmp, 0x10, true)));
    EXPECT_TRUE(inStream(StreamSel::MtIndirect,
                         record(BranchKind::IndirectCall, 0x10, true)));
    EXPECT_FALSE(inStream(StreamSel::MtIndirect,
                          record(BranchKind::IndirectJmp, 0x10, false)));
    EXPECT_FALSE(inStream(StreamSel::MtIndirect,
                          record(BranchKind::Return, 0x10, true)));
    EXPECT_FALSE(inStream(StreamSel::MtIndirect,
                          record(BranchKind::CondDirect, 0x10, true)));
}

TEST(StreamMembership, AllIndirect)
{
    EXPECT_TRUE(inStream(StreamSel::AllIndirect,
                         record(BranchKind::Return, 0x10, false)));
    EXPECT_TRUE(inStream(StreamSel::AllIndirect,
                         record(BranchKind::IndirectJmp, 0x10, false)));
    EXPECT_FALSE(inStream(StreamSel::AllIndirect,
                          record(BranchKind::UncondDirect, 0x10)));
}

TEST(StreamNames, Stable)
{
    EXPECT_STREQ(streamName(StreamSel::AllBranches), "PB");
    EXPECT_STREQ(streamName(StreamSel::MtIndirect), "PIB");
    EXPECT_STREQ(streamName(StreamSel::AllIndirect), "IND");
}

TEST(PathSymbol, SkipsAlignmentBits)
{
    BranchRecord r = record(BranchKind::IndirectJmp, 0x120000010);
    // (0x120000010 >> 2) low 2 bits = 0b00; target+4 => 0b01.
    EXPECT_EQ(pathSymbol(r, 2), (0x120000010ULL >> 2) & 0x3);
    r.target += 4;
    EXPECT_NE(pathSymbol(r, 2),
              pathSymbol(record(BranchKind::IndirectJmp, 0x120000010), 2));
}

TEST(PathSymbol, NotTakenUsesFallThrough)
{
    BranchRecord r = record(BranchKind::CondDirect, 0x120000500, false,
                            false);
    EXPECT_EQ(pathSymbol(r, 10),
              ((r.pc + 4) >> 2) & ibp::util::maskLow(10));
}

TEST(ShiftHistory, ShiftsSymbolsInAtLowEnd)
{
    ShiftHistory h(10, 2, StreamSel::MtIndirect);
    EXPECT_EQ(h.value(), 0u);
    h.observe(record(BranchKind::IndirectJmp, 0x120000004)); // sym 01
    EXPECT_EQ(h.value(), 0b01u);
    h.observe(record(BranchKind::IndirectJmp, 0x120000008)); // sym 10
    EXPECT_EQ(h.value(), 0b0110u);
}

TEST(ShiftHistory, IgnoresOtherStreams)
{
    ShiftHistory h(10, 2, StreamSel::MtIndirect);
    h.observe(record(BranchKind::CondDirect, 0x120000004, false));
    h.observe(record(BranchKind::Return, 0x120000004, false));
    EXPECT_EQ(h.value(), 0u);
}

TEST(ShiftHistory, CapsAtTotalBits)
{
    ShiftHistory h(4, 2, StreamSel::AllBranches);
    for (int i = 0; i < 10; ++i)
        h.observe(record(BranchKind::IndirectJmp, 0x12000000c)); // sym 11
    EXPECT_EQ(h.value(), 0b1111u);
    EXPECT_LE(h.value(), ibp::util::maskLow(4));
}

TEST(ShiftHistory, OddWidthSupported)
{
    // The paper's TC-PIB uses an 11-bit register of 2-bit symbols.
    ShiftHistory h(11, 2, StreamSel::MtIndirect);
    for (int i = 0; i < 20; ++i)
        h.observe(record(BranchKind::IndirectJmp, 0x120000004 + 4 * i));
    EXPECT_LE(h.value(), ibp::util::maskLow(11));
}

TEST(ShiftHistory, ResetClears)
{
    ShiftHistory h(8, 2, StreamSel::AllBranches);
    h.observe(record(BranchKind::IndirectJmp, 0x120000004));
    h.reset();
    EXPECT_EQ(h.value(), 0u);
}

TEST(SymbolHistory, MostRecentFirst)
{
    SymbolHistory h(3, 10, StreamSel::MtIndirect);
    h.observe(record(BranchKind::IndirectJmp, 0x120000010));
    h.observe(record(BranchKind::IndirectJmp, 0x120000020));
    h.observe(record(BranchKind::IndirectJmp, 0x120000030));
    EXPECT_EQ(h.symbol(0), (0x120000030u >> 2) & 0x3ffu);
    EXPECT_EQ(h.symbol(1), (0x120000020u >> 2) & 0x3ffu);
    EXPECT_EQ(h.symbol(2), (0x120000010u >> 2) & 0x3ffu);
}

TEST(SymbolHistory, OldestFallsOff)
{
    SymbolHistory h(2, 10, StreamSel::MtIndirect);
    h.observe(record(BranchKind::IndirectJmp, 0x120000010));
    h.observe(record(BranchKind::IndirectJmp, 0x120000020));
    h.observe(record(BranchKind::IndirectJmp, 0x120000030));
    EXPECT_EQ(h.symbol(1), (0x120000020u >> 2) & 0x3ffu);
}

TEST(SymbolHistory, ColdStartIsZeros)
{
    SymbolHistory h(4, 10, StreamSel::MtIndirect);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(h.symbol(i), 0u);
}

TEST(SymbolHistory, StorageBits)
{
    SymbolHistory h(10, 10, StreamSel::MtIndirect);
    // The paper's PHR: 10 targets x 10 bits = 100 bits.
    EXPECT_EQ(h.storageBits(), 100u);
}

TEST(SymbolHistory, ResetClears)
{
    SymbolHistory h(2, 10, StreamSel::AllBranches);
    h.observe(record(BranchKind::IndirectJmp, 0x120000010));
    h.reset();
    EXPECT_EQ(h.symbol(0), 0u);
}

} // namespace
