/**
 * @file
 * Counters, ratios and distribution statistics used by the metrics and
 * trace-characterization code.
 */

#ifndef IBP_UTIL_STATS_HH_
#define IBP_UTIL_STATS_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/serde.hh"

namespace ibp::util {

/**
 * A pair of counters expressing "events out of opportunities", e.g.
 * mispredictions out of predictions.
 */
class Ratio
{
  public:
    /** Record one opportunity; @p event says whether the event fired.
     *  Branchless: sampled per predicted branch (per-site stats), where
     *  a data-dependent miss/hit branch would be unpredictable by
     *  construction. */
    void
    sample(bool event)
    {
        ++total_;
        events_ += event;
    }

    /** Record @p total opportunities, @p events of which fired. */
    void
    add(std::uint64_t events, std::uint64_t total)
    {
        events_ += events;
        total_ += total;
    }

    /** Merge another ratio into this one. */
    void
    merge(const Ratio &other)
    {
        events_ += other.events_;
        total_ += other.total_;
    }

    std::uint64_t events() const { return events_; }
    std::uint64_t total() const { return total_; }

    /** Event fraction in [0,1]; 0 when no samples were recorded. */
    double
    value() const
    {
        return total_ == 0 ? 0.0
                           : static_cast<double>(events_) /
                                 static_cast<double>(total_);
    }

    /** Event fraction as a percentage. */
    double percent() const { return 100.0 * value(); }

    void
    reset()
    {
        events_ = 0;
        total_ = 0;
    }

    /** Serialize both counters (checkpointing). */
    void
    saveState(StateWriter &writer) const
    {
        writer.writeU64(events_);
        writer.writeU64(total_);
    }

    /** Restore counters saved by saveState(). */
    void
    loadState(StateReader &reader)
    {
        events_ = reader.readU64();
        total_ = reader.readU64();
        if (reader.ok() && events_ > total_)
            reader.fail("ratio events exceed total");
    }

  private:
    std::uint64_t events_ = 0;
    std::uint64_t total_ = 0;
};

/** Running mean / min / max over double samples. */
class Summary
{
  public:
    void
    sample(double x)
    {
        ++n_;
        sum_ += x;
        if (n_ == 1 || x < min_)
            min_ = x;
        if (n_ == 1 || x > max_)
            max_ = x;
    }

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0; }
    double min() const { return n_ ? min_ : 0; }
    double max() const { return n_ ? max_ : 0; }

  private:
    std::uint64_t n_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * Frequency map over arbitrary 64-bit keys, with entropy computation.
 * Used to characterize per-site target distributions (a branch with
 * low target entropy is "easy" for a BTB; cf. paper footnote 3).
 */
class FrequencyMap
{
  public:
    void sample(std::uint64_t key) { ++counts_[key]; }

    std::uint64_t total() const;

    /** Number of distinct keys observed. */
    std::size_t arity() const { return counts_.size(); }

    /** Count for a specific key (0 if never seen). */
    std::uint64_t count(std::uint64_t key) const;

    /** Most frequent key; 0 when empty. */
    std::uint64_t mode() const;

    /** Fraction of samples hitting the most frequent key. */
    double modeFraction() const;

    /** Shannon entropy in bits of the empirical distribution. */
    double entropyBits() const;

    const std::map<std::uint64_t, std::uint64_t> &counts() const
    {
        return counts_;
    }

  private:
    std::map<std::uint64_t, std::uint64_t> counts_;
};

/** Format a double as a fixed-precision string (helper for tables). */
std::string formatFixed(double value, int precision);

} // namespace ibp::util

#endif // IBP_UTIL_STATS_HH_
