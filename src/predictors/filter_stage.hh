/**
 * @file
 * The Cascade filter stage (Driesen & Holzle, MICRO '98), shared by
 * Cascade and Filtered-PPM (the paper's Section 6 future work).
 *
 * A small tagged, set-associative table of BTB-like lines keyed by
 * branch address.  Monomorphic and low-entropy branches are served
 * from it; a line that mispredicts is marked proven polymorphic, and
 * the owner routes such branches to its main predictor.  The owner
 * keeps the routing and, per update, picks the promotion rule.
 */

#ifndef IBP_PREDICTORS_FILTER_STAGE_HH_
#define IBP_PREDICTORS_FILTER_STAGE_HH_

#include <cstdint>

#include "util/serde.hh"
#include "util/table.hh"
#include "predictors/predictor.hh"

namespace ibp::pred {

/** Filter training protocol (interpreted by the owner). */
enum class FilterMode : std::uint8_t { Leaky, Strict };

/** Filter geometry and protocol. */
struct FilterConfig
{
    std::size_t entries = 128;
    std::size_t ways = 4;
    FilterMode mode = FilterMode::Leaky;
};

/** One filter line: a BTB entry plus its promotion mark. */
struct FilterEntry
{
    TargetEntry entry;
    bool provenPolymorphic = false;
};

/** The tagged filter table with its predict-to-update slot. */
class FilterStage
{
  public:
    /** Partial-tag width of every filter line. */
    static constexpr unsigned kTagBits = 16;

    explicit FilterStage(const FilterConfig &config);

    /**
     * Look up @p pc (an LRU touch, or the conflict-miss probe) and keep
     * the slot for the following train().
     * @return the branch's line, or nullptr when it has none.
     */
    const FilterEntry *probe(trace::Addr pc);

    /**
     * Train @p pc's line with @p target through the slot probe()
     * resolved (rescanned after a restore), or install a fresh line on
     * a miss.  A line that mispredicts is marked proven polymorphic at
     * once or, with @p waitForExhaustion, only once its hysteresis
     * counter has drained to 0.
     * @return whether the trained line is proven polymorphic (false
     *         for a freshly installed one).
     */
    bool train(trace::Addr pc, trace::Addr target, bool waitForExhaustion);

    /** Tag, target, counter and valid bits, plus the promotion mark. */
    std::uint64_t storageBits() const;

    /** Inserts that displaced a live line (0 when probes are off). */
    std::uint64_t evictions() const { return table_.evictions(); }
    /** Misses in sets holding valid lines (0 when probes are off). */
    std::uint64_t conflictMisses() const { return table_.conflictMisses(); }

    void reset();
    void saveState(util::StateWriter &writer) const;
    void loadState(util::StateReader &reader);
    void saveProbes(util::StateWriter &writer) const
    {
        table_.saveProbes(writer);
    }
    void loadProbes(util::StateReader &reader) { table_.loadProbes(reader); }

  private:
    util::Slot slotOf(trace::Addr pc) const;

    util::AssocTable<FilterEntry> table_;
    // Slot resolved by the most recent probe(), consumed by train().
    // Transient (never serialized): a restored stage rescans.
    util::Slot slot_;
};

} // namespace ibp::pred

#endif // IBP_PREDICTORS_FILTER_STAGE_HH_
