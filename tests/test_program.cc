/**
 * @file
 * Tests for the block-structured synthetic program and its
 * synthesizer: CFG validity, walker semantics, determinism, and the
 * statistical properties the predictors depend on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "util/serde.hh"
#include "trace/trace_stats.hh"
#include "workload/program.hh"

namespace {

using namespace ibp::workload;
using ibp::trace::BranchKind;
using ibp::trace::BranchRecord;

SynthesisParams
tinyParams()
{
    SynthesisParams params;
    params.seed = 42;
    HotSiteSpec sw;
    sw.behavior = BehaviorClass::PibCorrelated;
    sw.call = false;
    sw.numTargets = 4;
    sw.order = 2;
    sw.noise = 0.0;
    sw.heat = 1.0;
    HotSiteSpec call;
    call.behavior = BehaviorClass::PbCorrelated;
    call.call = true;
    call.numTargets = 3;
    call.order = 2;
    call.noise = 0.0;
    call.heat = 0.8;
    params.sites = {sw, call};
    return params;
}

TEST(Synthesize, BuildsAValidProgram)
{
    Program program = synthesize(tinyParams());
    EXPECT_GT(program.blockCount(), 10u);
    EXPECT_GT(program.functionCount(), 3u);
}

TEST(Synthesize, Deterministic)
{
    Program a = synthesize(tinyParams());
    Program b = synthesize(tinyParams());
    auto ta = a.collect(5000);
    auto tb = b.collect(5000);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i)
        EXPECT_EQ(ta[i], tb[i]) << "diverged at record " << i;
}

TEST(Synthesize, SeedChangesTrace)
{
    auto params = tinyParams();
    Program a = synthesize(params);
    params.seed = 43;
    Program b = synthesize(params);
    auto ta = a.collect(2000);
    auto tb = b.collect(2000);
    int diff = 0;
    for (std::size_t i = 0; i < 2000; ++i)
        if (!(ta[i] == tb[i]))
            ++diff;
    EXPECT_GT(diff, 100);
}

TEST(Program, EmitsAllRequestedRecords)
{
    Program program = synthesize(tinyParams());
    auto trace = program.collect(12345);
    EXPECT_EQ(trace.size(), 12345u);
}

TEST(Program, EmitsEveryBranchKind)
{
    Program program = synthesize(tinyParams());
    auto trace = program.collect(20000);
    std::set<BranchKind> kinds;
    for (std::size_t i = 0; i < trace.size(); ++i)
        kinds.insert(trace[i].kind);
    EXPECT_TRUE(kinds.count(BranchKind::CondDirect));
    EXPECT_TRUE(kinds.count(BranchKind::IndirectJmp));
    EXPECT_TRUE(kinds.count(BranchKind::IndirectCall));
    EXPECT_TRUE(kinds.count(BranchKind::Return));
    EXPECT_TRUE(kinds.count(BranchKind::UncondDirect));
}

TEST(Program, MtBitMatchesSiteArity)
{
    Program program = synthesize(tinyParams());
    auto trace = program.collect(20000);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &r = trace[i];
        if (r.kind == BranchKind::IndirectJmp ||
            r.kind == BranchKind::IndirectCall) {
            EXPECT_TRUE(r.multiTarget) << ibp::trace::toString(r);
        }
    }
}

TEST(Program, StBranchesAreNotMt)
{
    SynthesisParams params = tinyParams();
    HotSiteSpec st;
    st.behavior = BehaviorClass::Monomorphic;
    st.call = true;
    st.numTargets = 1; // single target => ST
    st.heat = 1.0;
    params.sites.push_back(st);
    Program program = synthesize(params);
    auto trace = program.collect(20000);
    bool saw_st_call = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &r = trace[i];
        if (r.kind == BranchKind::IndirectCall && !r.multiTarget)
            saw_st_call = true;
    }
    EXPECT_TRUE(saw_st_call);
}

TEST(Program, CallsCarryTheCallFlagAndReturnsMatch)
{
    // Every return's target must be a previously pushed pc + 4 (the
    // RAS invariant the engine leans on).
    Program program = synthesize(tinyParams());
    std::vector<ibp::trace::Addr> stack;
    for (int i = 0; i < 30000; ++i) {
        const BranchRecord r = program.step();
        if (r.call)
            stack.push_back(r.pc + 4);
        if (r.kind == BranchKind::Return && !stack.empty()) {
            EXPECT_EQ(r.target, stack.back());
            stack.pop_back();
        }
    }
}

TEST(Program, GatesControlSiteHeat)
{
    SynthesisParams params;
    params.seed = 7;
    HotSiteSpec hot;
    hot.behavior = BehaviorClass::Uniform;
    hot.numTargets = 4;
    hot.heat = 1.0;
    HotSiteSpec cold = hot;
    cold.heat = 0.05;
    params.sites = {hot, cold};
    Program program = synthesize(params);
    auto trace = program.collect(60000);
    const auto stats = ibp::trace::characterize(trace);

    std::vector<std::uint64_t> executions;
    for (const auto &[pc, site] : stats.sites)
        if (site.kind == BranchKind::IndirectJmp && site.multiTarget)
            executions.push_back(site.executions);
    ASSERT_EQ(executions.size(), 2u);
    const auto hi = std::max(executions[0], executions[1]);
    const auto lo = std::min(executions[0], executions[1]);
    // heat 1.0 vs 0.05 should differ by an order of magnitude.
    EXPECT_GT(hi, lo * 8);
}

TEST(Program, CloneCountExpandsSites)
{
    SynthesisParams params;
    params.seed = 9;
    HotSiteSpec spec;
    spec.behavior = BehaviorClass::Uniform;
    spec.numTargets = 3;
    spec.count = 5;
    params.sites = {spec};
    Program program = synthesize(params);
    auto trace = program.collect(30000);
    const auto stats = ibp::trace::characterize(trace);
    EXPECT_EQ(stats.staticMtSites(), 5u);
}

TEST(Program, SwitchTargetsAreCaseBlockEntries)
{
    Program program = synthesize(tinyParams());
    std::set<ibp::trace::Addr> entries;
    for (std::size_t b = 0; b < program.blockCount(); ++b)
        entries.insert(program.block(b).entryPc);
    auto trace = program.collect(5000);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].kind == BranchKind::IndirectJmp) {
            EXPECT_TRUE(entries.count(trace[i].target));
        }
    }
}

TEST(Program, PibCorrelatedSiteIsLearnableFromPath)
{
    // An order-2, zero-noise PIB site must be a deterministic function
    // of the previous two MT-indirect targets: replaying the trace and
    // tabulating (context -> target) must show a single target per
    // context for that site.
    SynthesisParams params;
    params.seed = 21;
    HotSiteSpec site;
    site.behavior = BehaviorClass::PibCorrelated;
    site.numTargets = 6;
    site.order = 2;
    site.symbolBits = 4;
    site.noise = 0.0;
    params.sites = {site};
    Program program = synthesize(params);
    auto trace = program.collect(40000);

    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::set<ibp::trace::Addr>>
        contexts;
    std::uint64_t h1 = 0;
    std::uint64_t h2 = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &r = trace[i];
        if (!r.isPredictedIndirect())
            continue;
        contexts[{h1, h2}].insert(r.target);
        h2 = h1;
        h1 = r.target;
    }
    for (const auto &[ctx, targets] : contexts)
        EXPECT_EQ(targets.size(), 1u);
}

TEST(Program, AddressesAreWordAlignedAndDiverse)
{
    Program program = synthesize(tinyParams());
    std::set<std::uint64_t> low_bits;
    for (std::size_t b = 0; b < program.blockCount(); ++b) {
        const auto pc = program.block(b).entryPc;
        EXPECT_EQ(pc % 4, 0u);
        low_bits.insert((pc >> 2) & 0x3f);
    }
    // Variable-length blocks must spread low-order bits.
    EXPECT_GT(low_bits.size(), 16u);
}

TEST(Program, StackDepthBounded)
{
    Program program = synthesize(tinyParams());
    for (int i = 0; i < 50000; ++i) {
        program.step();
        EXPECT_LE(program.stackDepth(), 64u);
    }
}

/**
 * A program whose sites read every path stream shape: contiguous PB
 * and PIB windows, sparse PB and PIB taps, and a self-correlated
 * switch with its own history ring.
 */
SynthesisParams
pathReadingParams()
{
    SynthesisParams params;
    params.seed = 7;
    HotSiteSpec pb;
    pb.behavior = BehaviorClass::PbCorrelated;
    pb.numTargets = 5;
    pb.order = 3;
    pb.offset = 2;
    HotSiteSpec pib;
    pib.behavior = BehaviorClass::PibCorrelated;
    pib.call = true;
    pib.numTargets = 4;
    pib.order = 2;
    pib.heat = 0.9;
    HotSiteSpec sparse_pib;
    sparse_pib.behavior = BehaviorClass::SparsePib;
    sparse_pib.numTargets = 6;
    sparse_pib.taps = {1, 9, 30};
    HotSiteSpec sparse_pb;
    sparse_pb.behavior = BehaviorClass::SparsePb;
    sparse_pb.numTargets = 3;
    sparse_pb.taps = {0, 17};
    HotSiteSpec self;
    self.behavior = BehaviorClass::SelfCorrelated;
    self.numTargets = 4;
    self.order = 3;
    params.sites = {pb, pib, sparse_pib, sparse_pb, self};
    return params;
}

/** FNV-1a over a serialized state blob. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::uint8_t byte : bytes)
        hash = (hash ^ byte) * 0x100000001b3ULL;
    return hash;
}

TEST(Program, WalkerCheckpointBytesArePinned)
{
    // The walker state is the "walker" section of every IBPC blob that
    // carries one, so its bytes are a format.  These hashes were taken
    // from the walker before its path streams became fixed rings.  At
    // 10 steps neither 64-symbol stream is full, at 100 only the PB
    // stream has wrapped, and by 1000 both have.
    struct Pin
    {
        std::uint64_t steps;
        std::size_t size;
        std::uint64_t hash;
    };
    const Pin pins[] = {
        {10, 149, 0x085fdff3e8fb3686ULL},
        {100, 817, 0x00ae68d579298bb6ULL},
        {1000, 1064, 0x39f0e5602ccdb9d4ULL},
        {25013, 1064, 0xe7b7ef88d0b29d1fULL},
    };

    Program program = synthesize(pathReadingParams());
    std::uint64_t steps = 0;
    std::uint64_t mt_indirect = 0;
    for (const Pin &pin : pins) {
        for (; steps < pin.steps; ++steps)
            mt_indirect += program.step().isPredictedIndirect() ? 1 : 0;
        ibp::util::StateWriter writer;
        program.saveState(writer);
        EXPECT_EQ(writer.bytes().size(), pin.size) << "after " << steps;
        EXPECT_EQ(fnv1a(writer.bytes()), pin.hash)
            << "after " << steps << ": 0x" << std::hex
            << fnv1a(writer.bytes());
    }
    EXPECT_GT(mt_indirect, 2 * 64u) << "the PIB stream never wrapped";
}

TEST(Program, FillInAnyChunkSizeMatchesStepping)
{
    constexpr std::size_t kChunk = ibp::trace::kReplayChunk;
    constexpr std::size_t kRecords = 3 * (kChunk + 1) + 5;
    std::vector<BranchRecord> want;
    {
        Program program = synthesize(pathReadingParams());
        for (std::size_t i = 0; i < kRecords; ++i)
            want.push_back(program.step());
    }
    const auto collected =
        synthesize(pathReadingParams()).collect(kRecords);
    EXPECT_EQ(collected.records(), want);

    for (std::size_t chunk : {std::size_t{1}, kChunk - 1, kChunk,
                              kChunk + 1}) {
        Program program = synthesize(pathReadingParams());
        std::vector<BranchRecord> got(kRecords);
        for (std::size_t pos = 0; pos < kRecords; pos += chunk)
            program.fill(got.data() + pos,
                         std::min(chunk, kRecords - pos));
        for (std::size_t i = 0; i < kRecords; ++i)
            ASSERT_EQ(got[i], want[i])
                << "chunk " << chunk << ", record " << i;
    }
}

} // namespace
