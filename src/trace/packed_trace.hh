/**
 * @file
 * Compact in-memory trace storage for the replay hot path.
 *
 * A BranchRecord is 24 padded bytes; a replayed suite streams millions
 * of them per cell, so record width is directly replay memory
 * bandwidth.  PackedBranchRecord re-encodes the same information in 16
 * bytes by storing pc and target as 48-bit offsets against a per-trace
 * base address and packing kind + the three flag bits into one byte.
 * Packing is lossless for any trace whose addresses span less than
 * 2^48 bytes above the base — vastly more than the synthetic
 * workloads' few-MB code segments — and pack() refuses anything else,
 * so a round trip can never silently corrupt a record.
 *
 * PackedTraceBuffer is the container the memoized trace cache hands
 * out: immutable after construction, shared by every suite cell
 * replaying that trace.  PackedReplaySource is the per-cell cursor; it
 * unpacks contiguous runs in nextBatch(), so the engine pays one
 * virtual call per batch instead of one per record.
 */

#ifndef IBP_TRACE_PACKED_TRACE_HH_
#define IBP_TRACE_PACKED_TRACE_HH_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "trace/branch_record.hh"
#include "trace/trace_buffer.hh"

namespace ibp::trace {

/**
 * One branch, 16 bytes.  Layout:
 *  - word0 [47:0]  pc - base
 *  - word0 [50:48] kind
 *  - word0 [51]    taken
 *  - word0 [52]    multiTarget
 *  - word0 [53]    call
 *  - word1 [47:0]  target - base
 * The unused high bits are zero, which keeps equality comparisons and
 * hashing of packed records trivially well-defined.
 */
struct PackedBranchRecord
{
    std::uint64_t word0 = 0;
    std::uint64_t word1 = 0;

    static constexpr unsigned kOffsetBits = 48;
    static constexpr std::uint64_t kOffsetMask =
        (std::uint64_t{1} << kOffsetBits) - 1;
    static constexpr std::uint64_t kTakenBit = std::uint64_t{1} << 51;
    static constexpr std::uint64_t kMultiBit = std::uint64_t{1} << 52;
    static constexpr std::uint64_t kCallBit = std::uint64_t{1} << 53;

    /** True iff @p record can be packed losslessly against @p base. */
    static constexpr bool
    representable(const BranchRecord &record, Addr base)
    {
        return record.pc >= base && record.target >= base &&
               record.pc - base <= kOffsetMask &&
               record.target - base <= kOffsetMask;
    }

    /** Pack @p record; panic() if it is not representable. */
    static PackedBranchRecord
    pack(const BranchRecord &record, Addr base)
    {
        panic_if(!representable(record, base),
                 "branch record not packable against base ", base,
                 " (pc ", record.pc, ", target ", record.target, ")");
        PackedBranchRecord packed;
        packed.word0 =
            (record.pc - base) |
            (static_cast<std::uint64_t>(record.kind) << kOffsetBits) |
            (record.taken ? kTakenBit : 0) |
            (record.multiTarget ? kMultiBit : 0) |
            (record.call ? kCallBit : 0);
        packed.word1 = record.target - base;
        return packed;
    }

    /** Expand back to the full record. */
    BranchRecord
    unpack(Addr base) const
    {
        BranchRecord record;
        record.pc = base + (word0 & kOffsetMask);
        record.target = base + word1;
        record.kind =
            static_cast<BranchKind>((word0 >> kOffsetBits) & 0x7);
        record.taken = (word0 & kTakenBit) != 0;
        record.multiTarget = (word0 & kMultiBit) != 0;
        record.call = (word0 & kCallBit) != 0;
        return record;
    }

    bool operator==(const PackedBranchRecord &) const = default;
};

static_assert(sizeof(PackedBranchRecord) == 16,
              "packed records must stay 16 bytes");

/**
 * A whole trace in packed form.  Build it from an existing TraceBuffer
 * (the base is computed as the trace's minimum address) or stream into
 * it as a BranchSink with a caller-chosen base.
 */
class PackedTraceBuffer : public BranchSink
{
  public:
    /** Streaming sink against a fixed base (0 accepts any trace whose
     *  addresses fit in 48 bits, which covers the Alpha-like layouts
     *  this project synthesizes). */
    explicit PackedTraceBuffer(Addr base = 0) : base_(base) {}

    /** Pack @p buffer, compressing against its minimum address. */
    explicit PackedTraceBuffer(const TraceBuffer &buffer)
        : base_(minAddress(buffer.records()))
    {
        records_.reserve(buffer.size());
        for (const BranchRecord &record : buffer.records())
            records_.push_back(PackedBranchRecord::pack(record, base_));
    }

    void
    push(const BranchRecord &record) override
    {
        records_.push_back(PackedBranchRecord::pack(record, base_));
    }

    /** Pre-allocate room for @p n records. */
    void reserve(std::size_t n) { records_.reserve(n); }

    Addr base() const { return base_; }
    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    /** The @p i-th record, unpacked. */
    BranchRecord
    record(std::size_t i) const
    {
        return records_[i].unpack(base_);
    }

    const std::vector<PackedBranchRecord> &packed() const
    {
        return records_;
    }

    /** Bytes held by the packed record array. */
    std::size_t
    storageBytes() const
    {
        return records_.size() * sizeof(PackedBranchRecord);
    }

  private:
    static Addr
    minAddress(const std::vector<BranchRecord> &records)
    {
        Addr base = records.empty() ? 0 : ~Addr{0};
        for (const BranchRecord &record : records)
            base = std::min({base, record.pc, record.target});
        return base;
    }

    Addr base_;
    std::vector<PackedBranchRecord> records_;
};

/**
 * A read-only replay cursor over a PackedTraceBuffer owned elsewhere.
 * Unpacking happens in nextBatch()'s contiguous run, so replaying N
 * records costs N/batch virtual calls and 16 bytes of memory traffic
 * per record instead of N virtual calls over 24-byte records.
 */
class PackedReplaySource : public BranchSource
{
  public:
    explicit PackedReplaySource(const PackedTraceBuffer &buffer)
        : buffer_(&buffer)
    {}

    bool
    next(BranchRecord &record) override
    {
        if (cursor_ >= buffer_->size())
            return false;
        record = buffer_->packed()[cursor_++].unpack(buffer_->base());
        return true;
    }

    std::size_t
    nextBatch(BranchRecord *out, std::size_t max) override
    {
        const std::size_t n =
            std::min(max, buffer_->size() - cursor_);
        const PackedBranchRecord *run =
            buffer_->packed().data() + cursor_;
        const Addr base = buffer_->base();
        for (std::size_t i = 0; i < n; ++i)
            out[i] = run[i].unpack(base);
        cursor_ += n;
        return n;
    }

    std::size_t
    nextSpan(const BranchRecord *&span) override
    {
        // The ring is allocated on first use so cursors that only
        // ever nextBatch() (bounded replays) stay allocation-free.
        if (ring_.empty())
            ring_.resize(kReplayChunk);
        const std::size_t n = nextBatch(ring_.data(), kReplayChunk);
        span = ring_.data();
        return n;
    }

    /** Restart iteration from the beginning. */
    void rewind() { cursor_ = 0; }

    std::uint64_t cursor() const override { return cursor_; }

    bool
    seek(std::uint64_t position) override
    {
        if (position > buffer_->size())
            return false;
        cursor_ = static_cast<std::size_t>(position);
        return true;
    }

    std::size_t size() const { return buffer_->size(); }

  private:
    const PackedTraceBuffer *buffer_;
    std::size_t cursor_ = 0;
    /** nextSpan() decode ring of kReplayChunk records (96 KiB, plus
     *  the 64 KiB packed run it reads: both stay L2-resident). */
    std::vector<BranchRecord> ring_;
};

} // namespace ibp::trace

#endif // IBP_TRACE_PACKED_TRACE_HH_
