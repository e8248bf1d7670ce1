/**
 * @file
 * In-memory branch trace plus the streaming sink/source interfaces the
 * generator, codecs and simulation engine share.
 */

#ifndef IBP_TRACE_TRACE_BUFFER_HH_
#define IBP_TRACE_TRACE_BUFFER_HH_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/branch_record.hh"

namespace ibp::trace {

/**
 * Records per replay chunk: the decode ring of a packed cursor, the
 * bounded-replay batch and the run a suite row feeds each predictor
 * column at a time.  A few thousand records amortize per-chunk calls
 * to nothing while a chunk of 24-byte records (96 KiB) stays
 * L2-resident across every consumer.  Any size gives the same
 * simulated numbers: the replay loop carries no cross-chunk state.
 */
inline constexpr std::size_t kReplayChunk = 4096;

/** Anything that consumes a stream of branch records. */
class BranchSink
{
  public:
    virtual ~BranchSink() = default;

    /** Deliver one record. */
    virtual void push(const BranchRecord &record) = 0;
};

/** Anything that produces a stream of branch records. */
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
     * Fetch up to @p max records into @p out.  The records are exactly
     * what the same number of next() calls would have produced — the
     * batch is purely an amortization of the per-record virtual call,
     * which is what the simulation engine's hot loop runs on.
     * @return the number of records produced; 0 means exhausted.
     *
     * The default shim loops next(), so every source supports
     * batching; contiguous sources override it with a bulk copy.
     */
    virtual std::size_t
    nextBatch(BranchRecord *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /**
     * Expose the next run of records in place, without copying.
     * @param span receives a pointer to the run, valid until the next
     *        call on this source
     * @return the run length; 0 means "exhausted or no span support"
     *         (the default), in which case callers fall back to
     *         nextBatch().
     *
     * Sources backed by contiguous storage override this so consumers
     * (the simulation engine's replay loop) read records straight out
     * of the trace with no per-record copy at all.
     */
    virtual std::size_t
    nextSpan(const BranchRecord *&span)
    {
        span = nullptr;
        return 0;
    }

    /**
     * Records consumed so far.  Only meaningful for seekable sources
     * (the in-memory cursors); streaming sources report 0.
     */
    virtual std::uint64_t cursor() const { return 0; }

    /**
     * Reposition the stream to @p position records from the start, so
     * a checkpointed replay resumes mid-trace without re-consuming the
     * prefix.
     * @retval false this source cannot seek (the default), or
     *         @p position is past the end
     */
    virtual bool
    seek(std::uint64_t position)
    {
        (void)position;
        return false;
    }
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
    nextBatch(BranchRecord *out, std::size_t max) override
    {
        const std::size_t n =
            std::min(max, records_.size() - cursor_);
        std::copy_n(records_.data() + cursor_, n, out);
        cursor_ += n;
        return n;
    }

    std::size_t
    nextSpan(const BranchRecord *&span) override
    {
        span = records_.data() + cursor_;
        const std::size_t n = records_.size() - cursor_;
        cursor_ = records_.size();
        return n;
    }

    /** Restart iteration from the beginning. */
    void rewind() { cursor_ = 0; }

    std::uint64_t cursor() const override { return cursor_; }

    bool
    seek(std::uint64_t position) override
    {
        if (position > records_.size())
            return false;
        cursor_ = static_cast<std::size_t>(position);
        return true;
    }

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
    nextBatch(BranchRecord *out, std::size_t max) override
    {
        const std::size_t n =
            std::min(max, records_->size() - cursor_);
        std::copy_n(records_->data() + cursor_, n, out);
        cursor_ += n;
        return n;
    }

    std::size_t
    nextSpan(const BranchRecord *&span) override
    {
        span = records_->data() + cursor_;
        const std::size_t n = records_->size() - cursor_;
        cursor_ = records_->size();
        return n;
    }

    /** Restart iteration from the beginning. */
    void rewind() { cursor_ = 0; }

    std::uint64_t cursor() const override { return cursor_; }

    bool
    seek(std::uint64_t position) override
    {
        if (position > records_->size())
            return false;
        cursor_ = static_cast<std::size_t>(position);
        return true;
    }

    std::size_t size() const { return records_->size(); }

  private:
    const std::vector<BranchRecord> *records_;
    std::size_t cursor_ = 0;
};

/**
 * Adapter exposing a callback as a BranchSink (handy in tests and in
 * the trace tools, which want to fan one stream out to several
 * consumers).
 */
class CallbackSink : public BranchSink
{
  public:
    using Fn = std::function<void(const BranchRecord &)>;

    explicit CallbackSink(Fn fn) : fn_(std::move(fn)) {}

    void push(const BranchRecord &record) override { fn_(record); }

  private:
    Fn fn_;
};

/**
 * A filtering source: forwards only records matching a predicate.
 * Used e.g. to present "MT indirect branches only" views of a trace.
 */
class FilterSource : public BranchSource
{
  public:
    using Predicate = std::function<bool(const BranchRecord &)>;

    FilterSource(BranchSource &inner, Predicate pred)
        : inner_(inner), pred_(std::move(pred))
    {}

    bool
    next(BranchRecord &record) override
    {
        while (inner_.next(record))
            if (pred_(record))
                return true;
        return false;
    }

  private:
    BranchSource &inner_;
    Predicate pred_;
};

} // namespace ibp::trace

#endif // IBP_TRACE_TRACE_BUFFER_HH_
