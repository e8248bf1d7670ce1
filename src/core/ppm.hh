/**
 * @file
 * The order-m PPM predictor core (paper Figures 2-3).
 *
 * A stack of Markov predictors of orders m..1 (the paper's 2K-entry
 * configuration is "10 Markov predictors", i.e. no order-0 table; an
 * optional order-0 most-recent-target fallback is available).  All
 * tables are probed in parallel with SFSXS indices derived from one
 * path-history register; the highest order whose selected entry is
 * valid provides the prediction.  Updates follow the update-exclusion
 * policy: only the order that made the prediction and all higher
 * orders are trained.
 *
 * The class is PHR-agnostic: the caller passes a SymbolHistory at
 * predict time, which is what lets PPM-hyb drive one shared table
 * stack from two different registers (PB and PIB).
 */

#ifndef IBP_CORE_PPM_HH_
#define IBP_CORE_PPM_HH_

#include <cstdint>
#include <vector>

#include "util/histogram.hh"
#include "util/probe.hh"
#include "predictors/path_history.hh"
#include "predictors/predictor.hh"
#include "core/markov_table.hh"
#include "core/sfsxs.hh"

namespace ibp::core {

/**
 * Update protocol across the Markov orders (paper Section 6 names
 * "modify the update protocol" as future work).
 */
enum class UpdatePolicy : std::uint8_t
{
    Exclusion, ///< the paper's choice: decider and higher orders only
    All,       ///< inclusive: every order trains on every branch
};

/**
 * How the winning order is chosen (paper Section 6: "assign
 * confidence on the prediction of different Markov components").
 */
enum class SelectPolicy : std::uint8_t
{
    HighestValid, ///< the paper's choice: top order with a valid state
    Confidence,   ///< top order whose entry counter is confident;
                  ///< falls back to the highest valid entry otherwise
};

/** PPM core parameters. */
struct PpmConfig
{
    SfsxsConfig hash; ///< order m lives here (hash.order)

    /**
     * Entries per Markov table, index 0 = order m down to order 1.
     * Empty: the default geometric split, 2^j entries for order j
     * (orders 10..1 then total 2046 ~ the paper's 2K).
     */
    std::vector<std::size_t> tableEntries;

    bool tagged = false;  ///< tagged Markov tables (paper future work)
    std::size_t ways = 2;
    unsigned tagBits = 8;

    /** Targets per Markov state (>1 = §4's rejected voting design). */
    unsigned votingTargets = 1;

    bool orderZero = false; ///< add a most-recent-target fallback

    UpdatePolicy updatePolicy = UpdatePolicy::Exclusion;
    SelectPolicy selectPolicy = SelectPolicy::HighestValid;
};

/** The PPM Markov-table stack. */
class Ppm
{
  public:
    explicit Ppm(const PpmConfig &config);

    /**
     * Probe all orders with SFSXS indices from @p phr.  Caches the
     * per-order indices and the deciding order for the following
     * update().
     * @return the highest-order valid prediction, or invalid if every
     *         selected state is empty (and no order-0 fallback).
     */
    pred::Prediction predict(const pred::SymbolHistory &phr,
                             trace::Addr pc);

    /**
     * predict() for a caller that already has the full (post-mixPc)
     * hash word — the replay hot path keeps it incrementally via
     * SfsxsWord instead of rebuilding it per prediction.  @p word must
     * equal hash().hashWord(phr, pc) for the history the caller
     * tracks; everything downstream (probe walk, captured slots,
     * statistics) is shared with the PHR overload.
     *
     * Inline, with update(): a flat stack (the default untagged,
     * non-voting one) walks its arena right here, so in the replay
     * loop each order costs one shift, one mask and one load.  Tagged
     * and voting stacks probe their MarkovTables out of line.
     */
    pred::Prediction
    predictHashed(std::uint64_t word, trace::Addr pc)
    {
        if (orderSlots_.empty())
            return predictTables(word, pc);
        return walk(word, 0, [&](unsigned, unsigned j) {
            return arenaProbe(j, word);
        });
    }

    /**
     * The order-@p j state that hash word @p word selects in a flat
     * stack's arena: the entry predictHashed() probes for that order.
     * Flat stacks only; a tagged or voting stack's states are read
     * through table().
     */
    MarkovProbe
    arenaProbe(unsigned j, std::uint64_t word) const
    {
        ibp_table_check(j == 0 || j > orderSlots_.size(),
                        "PPM arena order out of range: ", j);
        const pred::TargetEntry &entry =
            arena_[orderSlots_[config_.hash.order - j](word)];
        return {entry.valid, entry.counter.high(), entry.target};
    }

    /**
     * Train with the resolved target under update exclusion, using
     * the slots captured by the preceding predict().
     */
    void
    update(trace::Addr target)
    {
        if (!lastValid || lastTarget != target)
            misses_.sample(lastOrder_);
        if (orderSlots_.empty()) {
            trainTables(target);
        } else {
            pred::TargetEntry *arena = arena_.data();
            trainOrders([&](unsigned i, unsigned) {
                arena[orderSlots_[i](lastWord_)].train(target);
            });
        }
        if (config_.orderZero) {
            zeroValid = true;
            zeroTarget = target;
        }
    }

    /** Order that produced the last prediction (0 = none/fallback). */
    unsigned lastOrder() const { return lastOrder_; }

    /** Per-order access counts (order j at bucket j; 0 = fallback). */
    const util::Histogram &accessHistogram() const { return accesses_; }
    /** Per-order miss counts. */
    const util::Histogram &missHistogram() const { return misses_; }
    /**
     * Per-order escape counts: how often the probe of order j found
     * no usable state and fell through to order j-1 (PPM's escape
     * symbol).  Probe-gated: all-zero unless IBP_INSTRUMENT.
     */
    const util::ProbeHistogram &escapeHistogram() const
    {
        return escapes_;
    }

    unsigned order() const { return config_.hash.order; }
    const Sfsxs &hash() const { return hash_; }
    /** Number of orders (tables or arena slices). */
    std::size_t tableCount() const { return entries_.size(); }
    /** Entries of order m - @p i's table ([0] = order m). */
    std::size_t tableEntries(std::size_t i) const { return entries_[i]; }
    /** Order m - @p i's table; tagged and voting stacks only (a flat
     *  stack's orders are arena slices, read through arenaProbe()). */
    const MarkovTable &table(std::size_t i) const { return tables_[i]; }

    /** Total table storage in bits. */
    std::uint64_t storageBits() const;

    void reset();

    /**
     * Serialize the arena (flat stacks), every self-owned table,
     * capture slots, order-0 fallback, and the always-on access/miss
     * histograms.
     */
    void saveState(util::StateWriter &writer) const;

    /** Restore a saved stack of the same configuration. */
    void loadState(util::StateReader &reader);

    /** Escape histogram (fixed-width: buckets are geometry). */
    void saveProbes(util::StateWriter &writer) const;
    void loadProbes(util::StateReader &reader);

  private:
    std::uint64_t tagFor(trace::Addr pc, std::uint64_t word) const;

    /** predictHashed()/update() for tagged and voting stacks, through
     *  each order's MarkovTable. */
    pred::Prediction predictTables(std::uint64_t word, trace::Addr pc);
    void trainTables(trace::Addr target);

    /**
     * The order-m..1 probe walk under the configured select policy,
     * shared by both storage layouts.  @p probe(i, j) probes table i
     * (order j).  Stops at the deciding entry: lower orders were never
     * probed once a result existed, so breaking out probes the exact
     * same sequence of tables as the full walk.
     */
    template <typename Probe>
    pred::Prediction
    walk(std::uint64_t word, std::uint64_t tag, Probe probe)
    {
        const unsigned m = config_.hash.order;
        lastWord_ = word;
        lastTag = tag;
        pred::Prediction result;
        unsigned order = 0;
        // Fallback used by the confidence policy: the highest-order
        // valid (but unconfident) state, taken only if nothing
        // confident exists.
        pred::Prediction fallback;
        unsigned fallback_order = 0;
        for (unsigned i = 0; i < m; ++i) {
            const unsigned j = m - i;
            const MarkovProbe state = probe(i, j);
            if (!state.valid) {
                escapes_.sample(j);
                continue;
            }
            if (config_.selectPolicy == SelectPolicy::HighestValid ||
                state.confident) {
                result = {true, state.target};
                order = j;
                break;
            }
            if (!fallback.valid) {
                fallback = {true, state.target};
                fallback_order = j;
            }
        }
        if (!result.valid && fallback.valid) {
            result = fallback;
            order = fallback_order;
        }
        if (!result.valid && config_.orderZero && zeroValid) {
            result = {true, zeroTarget};
            order = 0;
        }
        lastOrder_ = order;
        accesses_.sample(order);
        lastValid = result.valid;
        lastTarget = result.target;
        return result;
    }

    /**
     * Update exclusion: @p train(i, j) the deciding order and every
     * order above it.  When nothing predicted (lastOrder_ == 0) every
     * table is trained, seeding the stack.  The inclusive policy
     * (paper §6 "modify the update protocol") trains every order.
     */
    template <typename Train>
    void
    trainOrders(Train train)
    {
        const unsigned m = config_.hash.order;
        for (unsigned i = 0; i < m; ++i) {
            const unsigned j = m - i;
            if (config_.updatePolicy == UpdatePolicy::Exclusion &&
                j < lastOrder_)
                break;
            train(i, j);
        }
    }

    PpmConfig config_;
    Sfsxs hash_;
    /** Resolved entries per order, [0] = order m ... [m-1] = order 1. */
    std::vector<std::size_t> entries_;
    /** Tagged/voting stacks: one table per order, same indexing.
     *  Empty for flat stacks. */
    std::vector<MarkovTable> tables_;

    /**
     * Flattened entry storage for the default (untagged, non-voting)
     * configuration: every order's entries live back-to-back in one
     * allocation.  The order-m..1 probe of predict() then walks one
     * cache-friendly array instead of pointer-chasing m separately
     * allocated tables.  Empty for tagged/voting stacks.
     */
    std::vector<pred::TargetEntry> arena_;
    /** Per order ([0] = order m), the arena slot of a hash word:
     *  SFSXS select, table reduce and slice offset in one ArenaSlot.
     *  Empty exactly when arena_ is. */
    std::vector<ArenaSlot> orderSlots_;

    // Slots captured at predict time.  Only the hash word is kept:
    // per-order indices are a shift/mask away (Sfsxs::index), so
    // update() re-derives exactly the slots it trains instead of
    // predict() materializing all m of them up front.
    std::uint64_t lastWord_ = 0;
    std::uint64_t lastTag = 0;
    unsigned lastOrder_ = 0;
    bool lastValid = false;
    trace::Addr lastTarget = 0;

    // Order-0 fallback state.
    bool zeroValid = false;
    trace::Addr zeroTarget = 0;

    util::Histogram accesses_;
    util::Histogram misses_;
    util::ProbeHistogram escapes_;
};

} // namespace ibp::core

#endif // IBP_CORE_PPM_HH_
