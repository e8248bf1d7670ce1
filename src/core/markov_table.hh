/**
 * @file
 * One Markov predictor of the PPM stack (paper Fig. 3).
 *
 * A BTB-like structure whose entries hold {valid bit, most recent
 * target, 2-bit up/down counter}.  Every entry ideally represents one
 * state of the order-j Markov model over hashed path history; the
 * valid bit stands in for "this state has a non-zero frequency count"
 * and the counter gates target replacement (update on two consecutive
 * misses).  A tagged variant — future work in the paper's Section 6 —
 * adds partial tags with set-associativity so different branches or
 * paths that hash together no longer alias.
 *
 * Storage: a MarkovTable owns its entries.  The PPM stack's default
 * (untagged, non-voting) orders build no MarkovTable at all: their
 * entries live back-to-back in one arena the stack walks itself,
 * through one ArenaSlot per order, so the order-m..1 probe sequence
 * walks one allocation instead of pointer-chasing m vectors.
 */

#ifndef IBP_CORE_MARKOV_TABLE_HH_
#define IBP_CORE_MARKOV_TABLE_HH_

#include <cstdint>
#include <vector>

#include "util/sat_counter.hh"
#include "util/table.hh"
#include "predictors/predictor.hh"

namespace ibp::core {

/** Geometry of one Markov table. */
struct MarkovConfig
{
    unsigned order = 1;
    std::size_t entries = 2;
    bool tagged = false;
    std::size_t ways = 2;
    unsigned tagBits = 8;

    /**
     * Targets kept per state.  1 is the paper's implemented choice
     * (most-recent target + 2-bit replacement counter).  Values > 1
     * realize the "original Markov model" the paper's Section 4
     * discusses and rejects on cost grounds: multiple outgoing arcs
     * with frequency counts and majority voting.
     */
    unsigned votingTargets = 1;
};

/**
 * Where a hash lands in a flat Markov arena: the index bits
 * (hash >> shift) & mask, reduced to the table's size, offset to the
 * table's slice.  Ppm's order walk reads and trains its arena through
 * these alone, so a power-of-two table costs one shift, one mask and
 * one add per lookup.
 */
struct ArenaSlot
{
    std::uint64_t mask = ~std::uint64_t{0}; ///< select (& entries-1)
    std::uint64_t modulo = 0;  ///< entries off powers of two, else 0
    std::uint32_t base = 0;    ///< the table's first arena entry
    std::uint32_t shift = 0;

    /**
     * The slot function of a table of @p entries entries at arena
     * offset @p base, indexed by (hash >> @p shift) & @p select.  On
     * power-of-two sizes the reduce folds into the select mask.
     */
    static ArenaSlot make(std::size_t base, std::size_t entries,
                          unsigned shift, std::uint64_t select);

    std::size_t
    operator()(std::uint64_t hash) const
    {
        const std::uint64_t index = (hash >> shift) & mask;
        return base + (modulo ? index % modulo // ibp-lint: allow(table-modulo)
                              : index);
    }
};

/** Result of probing one Markov state (prediction + confidence). */
struct MarkovProbe
{
    bool valid = false;     ///< state has a non-zero frequency count
    bool confident = false; ///< entry counter in its upper half
    trace::Addr target = 0;
};

/** One order-j Markov predictor. */
class MarkovTable
{
  public:
    explicit MarkovTable(const MarkovConfig &config);

    unsigned order() const { return config_.order; }
    std::size_t entries() const { return config_.entries; }

    /**
     * Look up a prediction.
     * @param index SFSXS index for this order
     * @param tag   partial tag (ignored when tagless)
     * @return invalid Prediction when the state is empty (valid bit 0)
     *         or, when tagged, the tag misses
     */
    pred::Prediction lookup(std::uint64_t index, std::uint64_t tag);

    /** As lookup(), additionally reporting the entry's confidence. */
    MarkovProbe probe(std::uint64_t index, std::uint64_t tag);

    /**
     * Train the state addressed by (@p index, @p tag) with the
     * resolved target, allocating it if empty.
     */
    void train(std::uint64_t index, std::uint64_t tag, trace::Addr target);

    /** Storage cost in bits. */
    std::uint64_t storageBits() const;

    /** Number of valid (non-zero-frequency) states. */
    std::size_t occupancy() const;

    void reset();

    /** Serialize the table's entries. */
    void saveState(util::StateWriter &writer) const;

    /** Restore a saved table of the same geometry. */
    void loadState(util::StateReader &reader);

  private:
    /**
     * A multi-arc state for the voting variant: each arc carries a
     * target and a 3-bit frequency count; prediction is the arc with
     * the highest count (majority vote).
     */
    struct VoteEntry
    {
        struct Arc
        {
            trace::Addr target = 0;
            util::SatCounter freq{3, 0};
        };
        bool valid = false;
        std::vector<Arc> arcs;
    };

    MarkovProbe probeVoting(std::uint64_t index);
    void trainVoting(std::uint64_t index, trace::Addr target);

    MarkovConfig config_;
    util::DirectTable<pred::TargetEntry> direct_;
    util::AssocTable<pred::TargetEntry> assoc_;
    util::DirectTable<VoteEntry> voting_;
};

} // namespace ibp::core

#endif // IBP_CORE_MARKOV_TABLE_HH_
