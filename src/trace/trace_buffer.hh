/**
 * @file
 * In-memory branch trace plus the streaming sink/source interfaces the
 * generator, codecs and simulation engine share.
 */

#ifndef IBP_TRACE_TRACE_BUFFER_HH_
#define IBP_TRACE_TRACE_BUFFER_HH_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/branch_record.hh"

namespace ibp::trace {

/**
 * Records per replay chunk: the most a built (not in-place) span holds
 * — the decode ring of a packed cursor, the scratch chunk of a
 * streaming reader — and the run a suite row feeds each predictor
 * column at a time.  A few thousand records amortize per-chunk calls
 * to nothing while a chunk of 24-byte records (96 KiB) stays
 * L2-resident across every consumer.  Any size gives the same
 * simulated numbers: the replay loop carries no cross-chunk state.
 */
inline constexpr std::size_t kReplayChunk = 4096;

/** nextSpan()'s default bound: the source's whole next run. */
inline constexpr std::size_t kWholeRun = ~std::size_t{0};

/** Anything that consumes a stream of branch records. */
class BranchSink
{
  public:
    virtual ~BranchSink() = default;

    /** Deliver one record. */
    virtual void push(const BranchRecord &record) = 0;
};

/**
 * Anything that produces a stream of branch records, pulled one
 * record at a time (next()) or one run at a time (nextSpan(), what
 * the replay engine reads).
 */
class BranchSource
{
  public:
    virtual ~BranchSource() = default;

    /**
     * Fetch the next record.
     * @param record out-parameter receiving the record
     * @retval true a record was produced
     * @retval false the stream is exhausted
     */
    virtual bool next(BranchRecord &record) = 0;

    /**
     * Expose the next run of at most @p max records: exactly what as
     * many next() calls would have produced.
     * @param span receives a pointer to the run, valid until the next
     *        call on this source
     * @return the run length; 0 means exhausted (or @p max is 0)
     *
     * In-memory sources return their remainder in place, with no
     * per-record copy.  The default fills a kReplayChunk-record
     * scratch chunk from next(), so every source can be replayed.
     */
    virtual std::size_t
    nextSpan(const BranchRecord *&span, std::size_t max = kWholeRun)
    {
        BranchRecord *out = chunk();
        const std::size_t cap = std::min(max, kReplayChunk);
        std::size_t n = 0;
        while (n < cap && next(out[n]))
            ++n;
        span = out;
        return n;
    }

  protected:
    /** A kReplayChunk-record chunk for runs that are built rather than
     *  read in place; allocated on first use. */
    BranchRecord *
    chunk()
    {
        if (chunk_.empty())
            chunk_.resize(kReplayChunk);
        return chunk_.data();
    }

  private:
    std::vector<BranchRecord> chunk_;
};

/**
 * A whole trace held in memory.  Fine for this project's scales
 * (tens of millions of records); larger runs should stream through
 * TraceWriter/TraceReader instead.
 */
class TraceBuffer : public BranchSink, public BranchSource
{
  public:
    TraceBuffer() = default;

    explicit TraceBuffer(std::vector<BranchRecord> records)
        : records_(std::move(records))
    {}

    void push(const BranchRecord &record) override
    {
        records_.push_back(record);
    }

    bool
    next(BranchRecord &record) override
    {
        if (cursor_ >= records_.size())
            return false;
        record = records_[cursor_++];
        return true;
    }

    std::size_t
    nextSpan(const BranchRecord *&span,
             std::size_t max = kWholeRun) override
    {
        span = records_.data() + cursor_;
        const std::size_t n = std::min(max, records_.size() - cursor_);
        cursor_ += n;
        return n;
    }

    /** Restart iteration from the beginning. */
    void rewind() { cursor_ = 0; }

    /** Records consumed so far. */
    std::uint64_t cursor() const { return cursor_; }

    /** Pre-allocate room for @p n records (bulk generation). */
    void reserve(std::size_t n) { records_.reserve(n); }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const BranchRecord &operator[](std::size_t i) const
    {
        return records_[i];
    }
    const std::vector<BranchRecord> &records() const { return records_; }

    void
    clear()
    {
        records_.clear();
        cursor_ = 0;
    }

  private:
    std::vector<BranchRecord> records_;
    std::size_t cursor_ = 0;
};

/**
 * A read-only replay cursor over a record vector owned elsewhere
 * (typically a cached, immutable TraceBuffer).  Each ReplaySource has
 * its own cursor, so any number of them can iterate the same trace
 * concurrently — the mechanism that lets parallel suite cells share
 * one generated trace without sharing mutable state.
 */
class ReplaySource : public BranchSource
{
  public:
    explicit ReplaySource(const std::vector<BranchRecord> &records)
        : records_(&records)
    {}

    explicit ReplaySource(const TraceBuffer &buffer)
        : records_(&buffer.records())
    {}

    bool
    next(BranchRecord &record) override
    {
        if (cursor_ >= records_->size())
            return false;
        record = (*records_)[cursor_++];
        return true;
    }

    std::size_t
    nextSpan(const BranchRecord *&span,
             std::size_t max = kWholeRun) override
    {
        span = records_->data() + cursor_;
        const std::size_t n = std::min(max, records_->size() - cursor_);
        cursor_ += n;
        return n;
    }

    /** Restart iteration from the beginning. */
    void rewind() { cursor_ = 0; }

    /** Records consumed so far. */
    std::uint64_t cursor() const { return cursor_; }

    std::size_t size() const { return records_->size(); }

  private:
    const std::vector<BranchRecord> *records_;
    std::size_t cursor_ = 0;
};

} // namespace ibp::trace

#endif // IBP_TRACE_TRACE_BUFFER_HH_
