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
 * an equal hardware budget.  History folding reuses the util bit
 * helpers (the same Select-Fold family as the paper's SFSXS hash) but
 * is maintained incrementally per component, TAGE-CSR style.
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

/** One tagged-component line: full target, partial tag, a 2-bit
 *  prediction-confidence counter and a 2-bit usefulness counter. */
struct IttageEntry
{
    trace::Addr target = 0;
    std::uint32_t tag = 0;
    util::SatCounter confidence{2, 0};
    util::SatCounter useful{2, 0};
    bool valid = false;
};

/**
 * A path-history slice folded down to @c width bits, maintained
 * incrementally (TAGE's circular-shift-register idiom).  The folded
 * value is the XOR over the window's symbols of
 * rotateLeft(symbol, symbolBits * age), so pushing a symbol rotates
 * the whole word once after the outgoing symbol's contribution is
 * cancelled — O(1) per retired branch instead of O(length).
 *
 * Rotation is linear over XOR, so a push XORs three shifted terms
 * into one wide word — the old value shifted by symbolBits, the
 * outgoing symbol shifted by symbolBits * length (its position after
 * this push, so it cancels), and the incoming symbol — and then folds
 * the bits that spilled past @c width back in (TAGE's CSR update).
 * Both shift amounts are fixed by the geometry, so they are reduced
 * modulo the width once, here.
 */
class FoldedHistory
{
  public:
    FoldedHistory(unsigned width, unsigned length, unsigned symbol_bits)
        : width_(width), length_(length), mask_(util::maskLow(width)),
          incomingRotation(util::reduceRotation(symbol_bits, width)),
          outgoingRotation(
              util::reduceRotation(symbol_bits * length, width))
    {
        panic_if(width == 0 || width > 32,
                 "FoldedHistory width out of range: ", width);
        panic_if(length == 0, "FoldedHistory needs length >= 1");
    }

    /** Advance: @p incoming enters the window, @p outgoing (the
     *  length-th most recent symbol before the push) leaves it. */
    void
    push(std::uint32_t incoming, std::uint32_t outgoing)
    {
        // Every term is below 2^(2 * width) <= 2^64 (width <= 32), so
        // one fold of the high half completes both rotations.
        const std::uint64_t wide = (folded_ << incomingRotation) ^
                                   ((outgoing & mask_) << outgoingRotation) ^
                                   (incoming & mask_);
        folded_ = (wide ^ (wide >> width_)) & mask_;
    }

    std::uint64_t value() const { return folded_; }
    unsigned width() const { return width_; }
    unsigned length() const { return length_; }

    void reset() { folded_ = 0; }

    void
    saveState(util::StateWriter &writer) const
    {
        writer.writeU64(folded_);
    }

    void
    loadState(util::StateReader &reader)
    {
        const std::uint64_t folded = reader.readU64();
        if (reader.ok() && (folded & ~util::maskLow(width_)) != 0) {
            reader.fail("FoldedHistory value wider than the register");
            return;
        }
        folded_ = folded;
    }

  private:
    unsigned width_;
    unsigned length_;
    std::uint64_t mask_;
    unsigned incomingRotation; ///< symbolBits mod width
    unsigned outgoingRotation; ///< symbolBits * length mod width
    std::uint64_t folded_ = 0;
};

/**
 * ITTAGE predictor: base table + tagged geometric-history components.
 *
 * Final, and on the engine's devirtualized replay path: one lookup
 * resolves every component's (index, tag) slot, and training reuses
 * those slots instead of rehashing them.
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
            advanceHistories(record);
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

    /** Raw component entry access (for tests). */
    const IttageEntry &
    componentEntry(std::size_t component, trace::Addr pc) const
    {
        return components_[component].at(indexFor(component, pc));
    }

    /** The index and tag a lookup of @p pc computes for @p component
     *  under the current history (for tests). */
    std::uint64_t indexFor(std::size_t component, trace::Addr pc) const;
    std::uint32_t tagFor(std::size_t component, trace::Addr pc) const;

  private:
    /** One tagged component's probe coordinates for a lookup. */
    struct Slot
    {
        std::uint64_t index = 0;
        std::uint32_t tag = 0;
    };

    /** Everything one lookup of a pc resolves.  The histories only
     *  advance in observe(), so the slots a lookup computes are still
     *  current when the same branch trains; predict() stays side-
     *  effect free and update() recomputes nothing it can reuse. */
    struct Lookup
    {
        std::size_t provider = kBase;   ///< component index or kBase
        std::size_t altpred = kBase;    ///< next match below provider
        Prediction prediction;          ///< what predict() returns
        Prediction alternate;           ///< the alternate's target
        std::uint64_t baseIndex = 0;
        /** Every component's (index, tag); [0, numComponents) valid. */
        std::array<Slot, kMaxComponents> slots{};
    };

    /** The one lookup routine behind predict(), update(),
     *  predictAndUpdate() and providerComponent(). */
    Lookup lookupFor(trace::Addr pc) const;
    /** The one training routine behind update() and
     *  predictAndUpdate(), on the slots @p look resolved. */
    void train(const Lookup &look, trace::Addr target);
    void allocate(const Lookup &look, trace::Addr target);
    void advanceHistories(const trace::BranchRecord &record);
    /** A component's tag given the pc's fold (shared by all). */
    std::uint32_t tagWith(std::size_t component,
                          std::uint64_t pc_fold) const;

    IttageConfig config_;
    std::string name_;
    std::vector<unsigned> histLens_;
    SymbolHistory history_;
    util::DirectTable<TargetEntry> base_;
    std::vector<util::DirectTable<IttageEntry>> components_;
    std::vector<FoldedHistory> indexFolds_;
    std::vector<FoldedHistory> tagFoldsA_;
    std::vector<FoldedHistory> tagFoldsB_;
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
