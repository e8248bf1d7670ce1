/**
 * @file
 * ITTAGE-style indirect-target predictor (Seznec & Michaud, 2006+).
 *
 * A tagless base table backs N tagged components whose path-history
 * lengths grow geometrically.  Each lookup probes every component with
 * an index and tag hashed from the branch pc and a folded slice of the
 * path history; the longest-history component whose tag matches is the
 * *provider* and its target is the prediction, the next match (or the
 * base table) is the *alternate*.  On a misprediction a new entry is
 * allocated in a longer-history component, steered by per-entry
 * "useful" counters — the mechanism that lets the predictor grow its
 * effective history only for branches that need it, which is exactly
 * the long-range-correlation regime the paper's fixed-order PPM stack
 * cannot reach within the same 2K-entry budget.
 *
 * This implementation post-dates the paper (the 1998 lineup stops at
 * Cascade); it exists so fig6 doubles as a 1998-vs-modern ablation at
 * an equal hardware budget.  History folding is the same Select-Fold
 * family as the paper's SFSXS hash, maintained incrementally TAGE-CSR
 * style: every component's three folds sit in one FoldBank whose push
 * constants are resolved at construction.  The tagged lines sit in
 * flat planes, so a lookup's probe of every component reads one dense
 * key word each and leaves targets and counters to the provider,
 * the alternate and training.
 */

#ifndef IBP_PREDICTORS_ITTAGE_HH_
#define IBP_PREDICTORS_ITTAGE_HH_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitops.hh"
#include "util/probe.hh"
#include "util/sat_counter.hh"
#include "util/table.hh"
#include "predictors/path_history.hh"
#include "predictors/predictor.hh"

namespace ibp::pred {

/** Configuration of one ITTAGE predictor. */
struct IttageConfig
{
    std::size_t baseEntries = 512;       ///< tagless base table
    std::size_t numComponents = 6;       ///< tagged components
    std::size_t entriesPerComponent = 256;
    unsigned tagBits = 12;               ///< per-entry partial tag
    unsigned minHistory = 2;             ///< symbols, shortest component
    unsigned maxHistory = 64;            ///< symbols, longest component
    unsigned bitsPerTarget = 4;          ///< path-symbol width
};

/** One tagged-component line as the checkpoint codec and the tests
 *  see it: full target, partial tag, a 2-bit prediction-confidence
 *  counter and a 2-bit usefulness counter.  The predictor itself keeps
 *  its lines in flat planes (see Ittage). */
struct IttageEntry
{
    trace::Addr target = 0;
    std::uint32_t tag = 0;
    util::SatCounter confidence{2, 0};
    util::SatCounter useful{2, 0};
    bool valid = false;
};

/**
 * Every folded slice of one path history that ITTAGE hashes, resolved
 * at construction and advanced together (TAGE's circular-shift
 * registers).
 *
 * The bank slides windows of several lengths (one per tagged
 * component) over one symbol stream, and folds each window three ways,
 * one per fold kind (the index fold and the two tag folds); a kind has
 * the same width in every window.  Fold (window, kind) holds the
 * window's symbols folded down to the kind's width: the XOR over the
 * window of rotateLeft(symbol, symbolBits * age), age 0 the newest.  A
 * push rotates the whole word once after the outgoing symbol's
 * contribution is cancelled, so it is O(1) per fold instead of
 * O(length).
 *
 * Rotation is linear over XOR, so a push XORs three shifted terms into
 * one wide word — the old value shifted by symbolBits, the outgoing
 * symbol shifted by symbolBits * length (its position after this
 * push, so it cancels), and the incoming symbol — and then folds the
 * bits that spilled past the width back in (TAGE's CSR update).  Both
 * left shifts are fixed by the geometry, so each is reduced modulo its
 * width once and kept as a multiplier (a power of two).  A kind's
 * width, mask and incoming multiplier are the same in every window, so
 * a push loads them once; each window's outgoing symbol is read once
 * for its three folds.
 *
 * The bank also owns the symbol window the folds slide over, a ring as
 * long as the longest window, stored twice over so the symbol of any
 * age is one unwrapped load.  Its checkpoint bytes are SymbolHistory's.
 */
class FoldBank
{
  public:
    /** Folds per window: ITTAGE's index fold and two tag folds. */
    static constexpr std::size_t kKinds = 3;

    /** Windows of @p lengths symbols each, folded to @p widths bits
     *  (1..32) by kind. */
    FoldBank(const std::vector<unsigned> &lengths,
             const std::array<unsigned, kKinds> &widths,
             unsigned symbol_bits);

    /** Advance: @p symbol enters every window, and each fold cancels
     *  the symbol leaving its own. */
    void
    push(std::uint32_t symbol)
    {
        const std::array<Kind, kKinds> kinds = kinds_;
        std::array<std::uint64_t, kKinds> incoming;
        for (std::size_t k = 0; k < kKinds; ++k)
            incoming[k] = symbol & kinds[k].mask;
        const std::uint32_t *ring = ring_.data() + head_;
        std::uint64_t *value = values_.data();
        for (const Window &window : windows_) {
            const std::uint32_t outgoing = ring[window.outgoingAge];
            for (std::size_t k = 0; k < kKinds; ++k, ++value) {
                const Kind &kind = kinds[k];
                // Every term is below 2^(2 * width) <= 2^64 (width <=
                // 32), so one fold of the high half completes both
                // rotations.
                const std::uint64_t wide =
                    *value * kind.incomingScale ^
                    (outgoing & kind.mask) * window.outgoingScale[k] ^
                    incoming[k];
                *value = (wide ^ (wide >> kind.width)) & kind.mask;
            }
        }
        head_ = head_ == 0 ? length_ - 1 : head_ - 1;
        ring_[head_] = symbol;
        ring_[head_ + length_] = symbol;
    }

    /** Fold @p kind of window @p window (below 2^width). */
    std::uint64_t
    value(std::size_t window, std::size_t kind) const
    {
        return values_[window * kKinds + kind];
    }

    std::size_t windows() const { return windows_.size(); }
    unsigned width(std::size_t kind) const { return kinds_[kind].width; }

    /** The stream's @p age-th newest symbol (0 = newest). */
    std::uint32_t
    symbol(std::size_t age) const
    {
        ibp_table_check(age >= length_, "FoldBank age out of range");
        return ring_[head_ + age];
    }

    /** Register cost: the ring's symbols plus every fold's width. */
    std::uint64_t storageBits() const;

    void reset();

    /** The symbol ring, in SymbolHistory's byte layout. */
    void saveHistory(util::StateWriter &writer) const;
    void loadHistory(util::StateReader &reader);
    /** One window's folds, by kind. */
    void saveFolds(util::StateWriter &writer, std::size_t window) const;
    void loadFolds(util::StateReader &reader, std::size_t window);

  private:
    /** A fold kind's push constants. */
    struct Kind
    {
        std::uint64_t mask;          ///< the low width bits
        std::uint64_t incomingScale; ///< 2^(symbolBits mod width)
        unsigned width;
    };

    /** A window's push constants. */
    struct Window
    {
        /** By kind: 2^(symbolBits * length mod width). */
        std::array<std::uint64_t, kKinds> outgoingScale;
        unsigned outgoingAge; ///< length - 1
    };

    std::array<Kind, kKinds> kinds_;
    std::vector<Window> windows_;
    /** Window-major: fold (window, kind) at window * kKinds + kind. */
    std::vector<std::uint64_t> values_;
    unsigned symbolBits_;
    std::size_t length_; ///< the ring: the longest window's length
    /** Slots [0, length) are the ring, head_ the newest; slots
     *  [length, 2 * length) mirror them. */
    std::vector<std::uint32_t> ring_;
    std::size_t head_ = 0;
};

/**
 * ITTAGE predictor: base table + tagged geometric-history components.
 *
 * Final, and on the engine's devirtualized replay path: one lookup
 * resolves every component's (line, tag) slot, and training reuses
 * those slots instead of rehashing them.
 *
 * The tagged lines live in flat, component-major planes: a dense key
 * plane (the tag of a valid line, kNoKey for an empty one) that every
 * lookup probes in all components, and target and counter planes that
 * only the provider, the alternate and training touch.  All three
 * folds of every component sit in one FoldBank.
 */
class Ittage final : public IndirectPredictor
{
  public:
    /** Upper bound on tagged components: lookups keep their per-
     *  component slots in a fixed array, so no lookup allocates. */
    static constexpr std::size_t kMaxComponents = 16;

    explicit Ittage(const IttageConfig &config,
                    std::string name = "ITTAGE");

    std::string name() const override { return name_; }
    Prediction predict(trace::Addr pc) override;
    void update(trace::Addr pc, trace::Addr target) override;
    Prediction predictAndUpdate(trace::Addr pc,
                                trace::Addr target) override;

    /** The history records the predicted (PIB) stream: a predicted
     *  record advances every fold, any other returns here. */
    void
    observe(const trace::BranchRecord &record) override
    {
        if (record.isPredictedIndirect())
            folds_.push(static_cast<std::uint32_t>(
                pathSymbol(record, config_.bitsPerTarget)));
    }

    std::uint64_t storageBits() const override;
    void reset() override;
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;
    void saveProbes(util::StateWriter &writer) const override;
    void loadProbes(util::StateReader &reader) override;
    void snapshotProbes(obs::ProbeRegistry &registry) const override;

    /** Component history lengths, shortest first (for tests). */
    const std::vector<unsigned> &historyLengths() const
    {
        return histLens_;
    }

    /** Index of the component (or kBase) a lookup of @p pc would use
     *  as provider right now (for tests; no state is touched). */
    static constexpr std::size_t kBase = ~std::size_t{0};
    std::size_t providerComponent(trace::Addr pc) const;

    /** A copy of the component line a lookup of @p pc would probe in
     *  @p component (for tests). */
    IttageEntry componentEntry(std::size_t component,
                               trace::Addr pc) const;

    /** The index and tag a lookup of @p pc computes for @p component
     *  under the current history (for tests). */
    std::uint64_t indexFor(std::size_t component, trace::Addr pc) const;
    std::uint32_t tagFor(std::size_t component, trace::Addr pc) const;

  private:
    /** The key of an empty line: computed tags fit in 30 bits, so it
     *  never matches. */
    static constexpr std::uint32_t kNoKey = ~std::uint32_t{0};

    /** Everything one lookup of a pc resolves.  The histories only
     *  advance in observe(), so the slots a lookup computes are still
     *  current when the same branch trains; predict() stays side-
     *  effect free and update() recomputes nothing it can reuse. */
    struct Lookup
    {
        std::size_t provider = kBase;   ///< component index or kBase
        Prediction prediction;          ///< what predict() returns
        Prediction alternate;           ///< the alternate's target
        std::uint64_t baseIndex = 0;
        /** Every component's flat line and tag; [0, numComponents)
         *  are written. */
        std::array<std::uint32_t, kMaxComponents> lines;
        std::array<std::uint32_t, kMaxComponents> tags;
    };

    /** The one lookup routine behind predict(), update(),
     *  predictAndUpdate() and providerComponent(). */
    Lookup lookupFor(trace::Addr pc) const;
    /** The one training routine behind update() and
     *  predictAndUpdate(), on the slots @p look resolved. */
    void train(const Lookup &look, trace::Addr target);
    void allocate(const Lookup &look, trace::Addr target);
    /** A component's row for the pc bits @p addr, the same bits
     *  shifted right by the component's index + 1, and its index
     *  fold. */
    std::uint64_t rowOf(std::uint64_t addr, std::uint64_t shifted,
                        std::uint64_t index_fold) const;
    /** Component @p component's row for the pc bits @p addr. */
    std::uint64_t rowFor(std::size_t component, std::uint64_t addr) const;
    /** A component's tag given the pc's fold (shared by all). */
    std::uint32_t tagWith(std::size_t component,
                          std::uint64_t pc_fold) const;
    /** The fold of a pc that every component's tag mixes in. */
    std::uint64_t pcFold(trace::Addr pc) const;
    /** Flat line @p line as an entry, and back (checkpoint codec). */
    IttageEntry lineEntry(std::size_t line) const;
    void storeLine(std::size_t line, const IttageEntry &entry);

    IttageConfig config_;
    std::string name_;
    std::vector<unsigned> histLens_;
    util::DirectTable<TargetEntry> base_;
    /** Rows per component, and the mask that reduces a hash to one
     *  (0: the row count is not a power of two, reduce by modulo). */
    std::size_t rows_;
    std::uint64_t rowMask_;
    std::uint32_t tagMask_;
    /** The tagged lines, component-major (line = component * rows_ +
     *  row): key, target and the two counters. */
    std::vector<std::uint32_t> keys_;
    std::vector<trace::Addr> targets_;
    std::vector<std::uint8_t> confidence_;
    std::vector<std::uint8_t> useful_;
    /** One window per component; kinds: the index fold, then tag
     *  folds A and B. */
    FoldBank folds_;
    util::Counter allocations_;
    util::Counter allocationStalls_;
    util::Counter taggedProvides_;
};

/** Serialize one IttageEntry (checkpoint codec). */
void saveIttageEntry(util::StateWriter &writer, const IttageEntry &entry);

/** Restore one IttageEntry; out-of-range counters are corruption. */
void loadIttageEntry(util::StateReader &reader, IttageEntry &entry);

} // namespace ibp::pred

#endif // IBP_PREDICTORS_ITTAGE_HH_
