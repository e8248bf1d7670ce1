/**
 * @file
 * Tests for the packed 16-byte trace representation and the span
 * replay path: pack/unpack is a lossless round trip, every replay
 * source yields the same record stream in spans or record-at-a-time,
 * and the engine produces bit-identical metrics regardless of which
 * source replays a trace.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/random.hh"
#include "trace/packed_trace.hh"
#include "trace/trace_buffer.hh"
#include "workload/profiles.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

using namespace ibp::trace;

BranchRecord
randomRecord(ibp::util::Rng &rng, Addr base)
{
    BranchRecord record;
    record.pc = base + rng.below(1 << 20) * 4;
    record.target = base + rng.below(1 << 20) * 4;
    record.kind = static_cast<BranchKind>(rng.below(5));
    record.taken = rng.below(2) != 0;
    record.multiTarget = rng.below(2) != 0;
    record.call = rng.below(2) != 0;
    return record;
}

TEST(PackedBranchRecord, RoundTripPreservesEveryField)
{
    const Addr base = 0x120000000ULL;
    ibp::util::Rng rng(0x9a7c);
    for (int i = 0; i < 10'000; ++i) {
        const BranchRecord record = randomRecord(rng, base);
        const auto packed = PackedBranchRecord::pack(record, base);
        EXPECT_EQ(packed.unpack(base), record);
    }
}

TEST(PackedBranchRecord, RoundTripAtOffsetExtremes)
{
    const Addr base = 0x4000;
    BranchRecord record;
    record.kind = BranchKind::IndirectJmp;
    record.multiTarget = true;

    record.pc = base; // offset 0
    record.target = base + PackedBranchRecord::kOffsetMask; // max offset
    EXPECT_TRUE(PackedBranchRecord::representable(record, base));
    EXPECT_EQ(PackedBranchRecord::pack(record, base).unpack(base),
              record);
}

TEST(PackedBranchRecord, RepresentabilityBoundsAreExact)
{
    const Addr base = 0x10000;
    BranchRecord record;
    record.pc = base;
    record.target = base;
    EXPECT_TRUE(PackedBranchRecord::representable(record, base));

    record.pc = base - 4; // below the base
    EXPECT_FALSE(PackedBranchRecord::representable(record, base));

    record.pc = base + PackedBranchRecord::kOffsetMask + 1; // too far
    EXPECT_FALSE(PackedBranchRecord::representable(record, base));
}

TEST(PackedBranchRecordDeathTest, PackRefusesUnrepresentableRecords)
{
    BranchRecord record;
    record.pc = 0x100;
    record.target = 0x100;
    EXPECT_DEATH(PackedBranchRecord::pack(record, 0x200),
                 "not packable");
}

TEST(PackedTraceBuffer, PackingAGeneratedTraceIsLossless)
{
    auto profile = ibp::workload::smokeProfile();
    profile.records = 5000;
    const TraceBuffer trace = ibp::sim::generateTrace(profile);

    const PackedTraceBuffer packed(trace);
    ASSERT_EQ(packed.size(), trace.size());
    EXPECT_EQ(packed.storageBytes(), trace.size() * 16);
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_EQ(packed.record(i), trace[i]) << "record " << i;
}

TEST(PackedTraceBuffer, StreamingSinkMatchesBulkConstruction)
{
    auto profile = ibp::workload::smokeProfile();
    profile.records = 2000;
    const TraceBuffer trace = ibp::sim::generateTrace(profile);
    const PackedTraceBuffer bulk(trace);

    PackedTraceBuffer streamed(bulk.base());
    streamed.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        streamed.push(trace[i]);

    ASSERT_EQ(streamed.size(), bulk.size());
    for (std::size_t i = 0; i < bulk.size(); ++i)
        ASSERT_EQ(streamed.packed()[i], bulk.packed()[i]);
}

/// Drain a source record-at-a-time through next().
std::vector<BranchRecord>
drainSingle(BranchSource &source)
{
    std::vector<BranchRecord> records;
    BranchRecord record;
    while (source.next(record))
        records.push_back(record);
    return records;
}

/// A source that implements only next(), like the streaming readers.
class NextOnlySource : public BranchSource
{
  public:
    explicit NextOnlySource(const TraceBuffer &trace) : trace_(trace) {}

    bool
    next(BranchRecord &record) override
    {
        if (i_ >= trace_.size())
            return false;
        record = trace_[i_++];
        return true;
    }

  private:
    const TraceBuffer &trace_;
    std::size_t i_ = 0;
};

/// Drain a source through nextSpan() runs of at most @p max records;
/// an odd @p max leaves the final run partial.
std::vector<BranchRecord>
drainSpans(BranchSource &source, std::size_t max)
{
    std::vector<BranchRecord> records;
    const BranchRecord *span = nullptr;
    std::size_t n = 0;
    while ((n = source.nextSpan(span, max)) != 0) {
        EXPECT_LE(n, max);
        records.insert(records.end(), span, span + n);
    }
    return records;
}

TEST(BatchedReplay, EverySourceYieldsTheSameStreamBatchedOrNot)
{
    auto profile = ibp::workload::smokeProfile();
    profile.records = 3001; // not a multiple of any batch size below
    const TraceBuffer trace = ibp::sim::generateTrace(profile);
    const PackedTraceBuffer packed(trace);

    std::vector<BranchRecord> reference;
    {
        ReplaySource source(trace);
        reference = drainSingle(source);
    }
    ASSERT_EQ(reference.size(), trace.size());

    for (const std::size_t max : {std::size_t{1}, std::size_t{7},
                                  std::size_t{255}, kReplayChunk + 1,
                                  kWholeRun}) {
        ReplaySource replay(trace);
        EXPECT_EQ(drainSpans(replay, max), reference)
            << "ReplaySource, max " << max;

        PackedReplaySource packed_replay(packed);
        EXPECT_EQ(drainSpans(packed_replay, max), reference)
            << "PackedReplaySource, max " << max;

        TraceBuffer copy = trace;
        copy.rewind();
        EXPECT_EQ(drainSpans(copy, max), reference)
            << "TraceBuffer, max " << max;
    }

    PackedReplaySource single(packed);
    EXPECT_EQ(drainSingle(single), reference);
}

TEST(BatchedReplay, DefaultShimBatchesSourcesWithoutAnOverride)
{
    auto profile = ibp::workload::smokeProfile();
    profile.records = 9000; // more than two scratch chunks
    const TraceBuffer trace = ibp::sim::generateTrace(profile);

    // NextOnlySource has no nextSpan() override, so this exercises the
    // BranchSource default: runs built from next() in a scratch chunk.
    NextOnlySource single(trace);
    const auto reference = drainSingle(single);
    ASSERT_EQ(reference, trace.records());
    for (const std::size_t max :
         {std::size_t{1}, std::size_t{64}, kReplayChunk + 1, kWholeRun}) {
        NextOnlySource spans(trace);
        EXPECT_EQ(drainSpans(spans, max), reference) << "max " << max;
    }
}

void
expectSameMetrics(const ibp::sim::RunMetrics &a,
                  const ibp::sim::RunMetrics &b, const char *what)
{
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.mtIndirect, b.mtIndirect) << what;
    EXPECT_EQ(a.indirectMisses.events(), b.indirectMisses.events())
        << what;
    EXPECT_EQ(a.indirectMisses.total(), b.indirectMisses.total())
        << what;
    EXPECT_EQ(a.noPrediction.events(), b.noPrediction.events()) << what;
    EXPECT_EQ(a.returnMisses.events(), b.returnMisses.events()) << what;
    EXPECT_EQ(a.returnMisses.total(), b.returnMisses.total()) << what;
}

TEST(BatchedReplay, EngineMetricsIdenticalAcrossSourcesForEveryProfile)
{
    // Every suite profile at a small scale, through a predictor that
    // exercises path history, the RAS and the PPM stack.
    const auto suite = ibp::workload::standardSuite();
    ibp::sim::Engine engine;
    for (const auto &profile : suite) {
        const TraceBuffer trace =
            ibp::sim::generateTrace(profile, 0.01);
        const PackedTraceBuffer packed(trace);

        for (const char *name : {"BTB", "PPM-hyb"}) {
            auto p1 = ibp::sim::makePredictor(name);
            TraceBuffer copy = trace;
            copy.rewind();
            const auto direct = engine.run(copy, *p1);

            auto p2 = ibp::sim::makePredictor(name);
            ReplaySource replay(trace);
            const auto via_replay = engine.run(replay, *p2);

            auto p3 = ibp::sim::makePredictor(name);
            PackedReplaySource packed_replay(packed);
            const auto via_packed = engine.run(packed_replay, *p3);

            auto p4 = ibp::sim::makePredictor(name);
            NextOnlySource streamed(trace);
            const auto via_chunks = engine.run(streamed, *p4);

            const std::string what = profile.fullName() + "/" + name;
            expectSameMetrics(direct, via_replay, what.c_str());
            expectSameMetrics(direct, via_packed, what.c_str());
            expectSameMetrics(direct, via_chunks, what.c_str());
        }
    }
}

} // namespace
