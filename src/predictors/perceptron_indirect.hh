/**
 * @file
 * Hashed-perceptron indirect-target predictor.
 *
 * Direction perceptrons (Jimenez & Lin) sum small signed weights
 * selected by hashes of the branch pc and global-history segments and
 * compare the sum against zero.  The indirect-target variant keeps a
 * small per-branch *candidate cache* of recently seen targets and
 * scores every cached candidate with a perceptron sum whose feature
 * hashes mix the candidate target in; the highest-scoring candidate is
 * the prediction.  Training nudges the actual target's weights up and
 * a wrongly chosen candidate's weights down, and — the perceptron
 * trick — also trains on low-margin correct predictions, so weights
 * keep growing until the margin clears a threshold.
 *
 * Features split between the paper's two history kinds: half the
 * weight tables hash segments of a PIB (indirect-target) register and
 * half hash segments of a PB (all-branches) register, mirroring the
 * PB/PIB hybrid insight of the source paper.  Like ITTAGE this is a
 * post-1998 baseline, present so fig6 compares the paper's lineup
 * against what came later at the same hardware budget.
 */

#ifndef IBP_PREDICTORS_PERCEPTRON_INDIRECT_HH_
#define IBP_PREDICTORS_PERCEPTRON_INDIRECT_HH_

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "util/bitops.hh"
#include "util/probe.hh"
#include "util/table.hh"
#include "predictors/path_history.hh"
#include "predictors/predictor.hh"

namespace ibp::pred {

/** Configuration of one hashed-perceptron indirect predictor. */
struct PerceptronIndirectConfig
{
    std::size_t candidateSets = 256;  ///< candidate-cache geometry
    std::size_t candidateWays = 4;
    unsigned candidateTagBits = 12;   ///< folded-target partial tag
    std::size_t numTables = 8;        ///< weight tables (even: PIB+PB)
    std::size_t entriesPerTable = 512;
    unsigned weightBits = 8;          ///< signed weight width
    int trainingThreshold = 16;       ///< train-on-low-margin bound
    unsigned pibHistoryBits = 32;     ///< indirect-target register
    unsigned pibBitsPerTarget = 4;
    unsigned pbHistoryBits = 48;      ///< all-branches register
    unsigned pbBitsPerTarget = 2;
};

/**
 * Hashed-perceptron target selection over a candidate cache.
 *
 * Final, and on the engine's devirtualized replay path.  A feature
 * index is a per-table hash of the pc and history XOR-ed with a fold
 * of the candidate target, so one scoring pass hashes each table once
 * and each candidate once; training reuses the chosen candidate's
 * fold and score instead of rehashing them.
 *
 * The geometry is resolved at construction: each table's history
 * segment (shift and mask) and salt sit in one array, and the weights
 * in one flat table-major arena, so a weight's line is the table's
 * hash XOR-ed with the target fold and reduced once.
 */
class PerceptronIndirect final : public IndirectPredictor
{
  public:
    /** Upper bound on weight tables: a scoring pass keeps every
     *  table's key in a fixed array, so no scoring allocates. */
    static constexpr std::size_t kMaxTables = 16;

    explicit PerceptronIndirect(const PerceptronIndirectConfig &config,
                                std::string name = "Perceptron");

    std::string name() const override { return name_; }
    Prediction predict(trace::Addr pc) override;
    void update(trace::Addr pc, trace::Addr target) override;
    Prediction predictAndUpdate(trace::Addr pc,
                                trace::Addr target) override;

    /** predictAndUpdate() on the PB and PIB register values @p pb and
     *  @p pib, which a replay row's history lanes hold for this
     *  record, instead of on the registers' own. */
    Prediction predictAndUpdateOn(trace::Addr pc, trace::Addr target,
                                  std::uint64_t pb, std::uint64_t pib);

    void
    observe(const trace::BranchRecord &record) override
    {
        pibHistory_.observe(record);
        pbHistory_.observe(record);
    }

    /** The PB and PIB registers, in predictAndUpdateOn()'s word
     *  order: a replay row keys its history lanes on them and copies
     *  the lanes' state back in after each chunk. */
    std::tuple<ShiftHistory &, ShiftHistory &>
    historyRegisters()
    {
        return std::tie(pbHistory_, pibHistory_);
    }

    std::uint64_t storageBits() const override;
    void reset() override;
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;
    void saveProbes(util::StateWriter &writer) const override;
    void loadProbes(util::StateReader &reader) override;
    void snapshotProbes(obs::ProbeRegistry &registry) const override;

    /** Perceptron score of @p target for @p pc under the current
     *  weights and histories (for tests; touches nothing). */
    int score(trace::Addr pc, trace::Addr target) const;

    /** The weight table row @p table consults for (pc, target) under
     *  the current histories (for tests). */
    std::uint64_t featureIndex(std::size_t table, trace::Addr pc,
                               trace::Addr target) const;

    /** Largest representable weight magnitude. */
    int maxWeight() const { return maxWeight_; }

  private:
    /** One table's feature: which segment of its register (PIB for
     *  the first half of the tables, PB for the rest) its hash reads. */
    struct Feature
    {
        unsigned shift;          ///< the segment's lowest bit
        std::uint64_t mask;      ///< the segment's width
        std::uint64_t salt;      ///< per-table constant
        std::uint64_t firstLine; ///< the table's first arena line
    };

    /** Feature @p feature's hash of the pc bits @p addr and the
     *  register value @p history. */
    static std::uint64_t
    featureHash(const Feature &feature, std::uint64_t addr,
                std::uint64_t history)
    {
        return addr ^ (((history >> feature.shift) & feature.mask) << 1) ^
               feature.salt;
    }

    /** What one scoring pass over a pc's candidate set resolves. */
    struct Scoring
    {
        std::uint64_t set = 0;   ///< candidate-cache set of the pc
        Prediction prediction;   ///< best candidate (invalid: none)
        int score = 0;           ///< the best candidate's sum
        std::uint64_t fold = 0;  ///< the best candidate's target fold
        std::size_t way = util::Slot::kNoWay; ///< the best candidate's way
        /** Every table's key (see keyOf()); [0, numTables) written. */
        std::array<std::uint64_t, kMaxTables> keys;
    };

    std::uint64_t candidateSet(trace::Addr pc) const;
    std::uint64_t candidateTag(trace::Addr target) const;
    /** The register values predict() reads. */
    PathWords
    words() const
    {
        return {pbHistory_.value(), pibHistory_.value()};
    }
    /** The target-independent part of table @p table's feature hash
     *  for @p pc under the register values @p words. */
    std::uint64_t tableHash(std::size_t table, trace::Addr pc,
                            const PathWords &words) const;
    /** The candidate-target part of every feature hash. */
    static std::uint64_t targetFold(trace::Addr target);
    /** What a scoring pass keeps of table @p table's hash: on a
     *  power-of-two geometry the table's first line ORed with the
     *  masked hash, otherwise the hash itself. */
    std::uint64_t keyOf(std::size_t table, std::uint64_t hash) const;
    /** The arena line of table @p table's weight for a target with
     *  fold @p fold, given the table's key. */
    std::size_t
    lineOf(std::size_t table, std::uint64_t key, std::uint64_t fold) const
    {
        return rowMask_ ? key ^ (fold & rowMask_)
                        : table * rows_ +
                              util::reduceIndex(key ^ fold, rows_, rowMask_);
    }

    /** The one scoring routine behind predict(), update() and
     *  predictAndUpdate(); keeps each table's key in the result. */
    Scoring scoreCandidates(trace::Addr pc, const PathWords &words) const;
    /** The one training routine behind update() and
     *  predictAndUpdate(), on the keys @p scoring holds. */
    void train(const Scoring &scoring, trace::Addr target);
    /** Sum of the weights a target with fold @p fold selects. */
    int weightSum(const Scoring &scoring, std::uint64_t fold) const;

    PerceptronIndirectConfig config_;
    std::string name_;
    int maxWeight_;
    ShiftHistory pibHistory_;
    ShiftHistory pbHistory_;
    util::AssocTable<TargetEntry> candidates_;
    /** Weight tables, and how many of them (the first) read PIB. */
    std::size_t tables_;
    std::size_t pibTables_;
    /** Every table's feature, PIB tables first. */
    std::vector<Feature> features_;
    /** Rows per table, and the mask that reduces a hash to one (0:
     *  the row count is not a power of two, reduce by modulo). */
    std::size_t rows_;
    std::uint64_t rowMask_;
    /** The weights, table-major: line = table * rows_ + row. */
    std::vector<std::int8_t> weights_;
    util::Counter weightUpdates_;
};

} // namespace ibp::pred

#endif // IBP_PREDICTORS_PERCEPTRON_INDIRECT_HH_
