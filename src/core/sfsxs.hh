/**
 * @file
 * Select-Fold-Shift-XOR-Select (SFSXS) indexing function (paper Fig. 2).
 *
 * From each of the m targets in the path-history register the function
 * Selects the low @c selectBits bits (above address alignment), Folds
 * them down to @c foldBits bits by XOR, Shifts the folded value left
 * by the target's recency (the most recent target gets the largest
 * shift, so it dominates the high end of the word), and XORs all the
 * shifted values into one word of width foldBits + m - 1.  The final
 * Select takes the j highest-order bits of that word as the index for
 * the j-th order Markov predictor — the alternative low-order select
 * mentioned in the paper's Section 4 is available as a config flag and
 * ablated in bench_ablation_hash.
 */

#ifndef IBP_CORE_SFSXS_HH_
#define IBP_CORE_SFSXS_HH_

#include <cstdint>

#include "util/bitops.hh"
#include "predictors/path_history.hh"

namespace ibp::core {

/** SFSXS parameters. */
struct SfsxsConfig
{
    unsigned order = 10;      ///< m: targets consumed from the PHR
    unsigned selectBits = 10; ///< bits selected from each target
    unsigned foldBits = 5;    ///< folded symbol width
    bool highOrderSelect = true; ///< final select: high (paper) or low
    bool xorPc = false;          ///< optionally mix the branch pc in
};

/** The SFSXS hash. */
class Sfsxs
{
  public:
    explicit Sfsxs(const SfsxsConfig &config);

    /** Width of the pre-select hash word: foldBits + order - 1. */
    unsigned wordBits() const { return wordBits_; }

    /** A path symbol selected and folded down to foldBits. */
    std::uint64_t
    foldedSymbol(std::uint32_t symbol) const
    {
        return util::foldXor(
            util::selectLow(symbol, config_.selectBits),
            config_.selectBits, config_.foldBits);
    }

    /** Final word fix-up: optional pc mix plus the width mask. */
    std::uint64_t
    mixPc(std::uint64_t word, trace::Addr pc) const
    {
        if (config_.xorPc)
            word ^= util::foldXor(pc >> 2, 32, wordBits_);
        return word & util::maskLow(wordBits_);
    }

    /**
     * The full hash word for a path-history register (and optional
     * pc, mixed in when configured).  Inline: this and index() are the
     * PPM probe loop's innermost arithmetic, and keeping them in the
     * header lets the per-order work reduce to shifts and masks.
     * (The replay hot path avoids even this O(order) loop by keeping
     * the word incrementally — see SfsxsWord below.)
     */
    std::uint64_t
    hashWord(const pred::SymbolHistory &phr, trace::Addr pc) const
    {
        ibp_table_check(phr.length() < config_.order,
                        "PHR shorter than the SFSXS order");
        std::uint64_t word = 0;
        for (unsigned i = 0; i < config_.order; ++i) {
            // Most recent target (i == 0) gets the largest shift.
            word ^= foldedSymbol(phr.symbol(i))
                    << (config_.order - 1 - i);
        }
        return mixPc(word, pc);
    }

    /**
     * The index for the order-@p j Markov predictor, in [0, 2^j).
     * Requires 1 <= j <= order.
     */
    std::uint64_t
    index(std::uint64_t hash_word, unsigned j) const
    {
        ibp_table_check(j == 0 || j > config_.order,
                        "SFSXS order index out of range: ", j);
        return (hash_word >> indexShift(j)) & util::maskLow(j);
    }

    /**
     * The final select's policy: how far index() shifts the hash word
     * down before keeping its low @p j bits — the j highest-order bits
     * (the paper) or the j lowest.
     */
    unsigned
    indexShift(unsigned j) const
    {
        return config_.highOrderSelect ? wordBits_ - j : 0;
    }

    const SfsxsConfig &config() const { return config_; }

  private:
    SfsxsConfig config_;
    unsigned wordBits_;
};

/**
 * An SFSXS hash word maintained incrementally as the path history
 * advances, replacing the O(order) rebuild in Sfsxs::hashWord() with
 * O(1) work per retired symbol.
 *
 * Pushing a symbol demotes every previous target's recency by one —
 * every folded contribution's shift drops by one — so the word simply
 * shifts right after the outgoing order-m contribution (held in a
 * small ring of folded symbols) is XOR-ed out, and the incoming
 * symbol's fold enters at the top shift:
 *
 *   word' = ((word ^ folded[oldest]) >> 1) ^ (folded(new) << (m-1))
 *
 * This is algebraically the same XOR sum hashWord() computes, so the
 * tracked word is bit-identical to a rebuild from the backing PHR at
 * every step (asserted by the unit tests).  The caller applies
 * Sfsxs::mixPc() at lookup time, since the pc is per-prediction.
 *
 * Every register of a PPM predictor shares one geometry, so a symbol
 * is folded (fold()) apart from being pushed (pushFolded()): a record
 * that enters several registers is folded once.  The fold geometry is resolved at
 * construction, and the ring is an inline array of 16-bit folds (no
 * heap ring whose slots the compiler must assume alias the word).
 */
class SfsxsWord
{
  public:
    /** Ring capacity: Sfsxs caps the word at 63 bits with at least
     *  one fold bit, so no legal order exceeds 63. */
    static constexpr unsigned kMaxOrder = 64;

    explicit SfsxsWord(const SfsxsConfig &config);

    /** A path symbol selected and folded down to foldBits; equal to
     *  Sfsxs::foldedSymbol() for this word's configuration. */
    std::uint32_t
    fold(std::uint32_t symbol) const
    {
        std::uint32_t rest = symbol & selectMask_;
        std::uint32_t folded = 0;
        for (unsigned chunk = 0; chunk < chunks_; ++chunk) {
            folded ^= rest & foldMask_;
            rest >>= foldBits_;
        }
        return folded;
    }

    /** Advance on a symbol already passed through fold(). */
    void
    pushFolded(std::uint32_t folded)
    {
        // The ring mirrors SymbolHistory: head_ walks backwards, and
        // the slot it lands on holds the outgoing oldest fold.
        head_ = (head_ == 0 ? order_ : head_) - 1;
        word_ = ((word_ ^ ring_[head_]) >> 1) ^
                (std::uint64_t{folded} << (order_ - 1));
        ring_[head_] = static_cast<std::uint16_t>(folded);
    }

    /** The current pre-mixPc hash word. */
    std::uint64_t word() const { return word_; }

    void reset();

    /** Serialize the fold ring (one U64 per slot), head and word. */
    void saveState(util::StateWriter &writer) const;

    /**
     * Restore a saved ring.  The order must match this word's, every
     * slot must fit the fold width, and the word must be the XOR sum
     * the ring and head imply; anything else fails the reader.
     */
    void loadState(util::StateReader &reader);

  private:
    /** The XOR sum of the ring's folds at their recency shifts. */
    std::uint64_t ringWord() const;

    std::uint64_t word_ = 0;
    std::uint32_t selectMask_ = 0;
    std::uint32_t foldMask_ = 0;
    unsigned foldBits_ = 0;
    unsigned chunks_ = 0; ///< foldBits-wide chunks in a selected symbol
    unsigned order_ = 0;
    unsigned head_ = 0; ///< ring slot of the most recent fold
    std::uint16_t ring_[kMaxOrder] = {};
};

} // namespace ibp::core

#endif // IBP_CORE_SFSXS_HH_
