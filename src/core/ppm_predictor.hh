/**
 * @file
 * The paper's complete PPM indirect-branch predictors (Figure 4).
 *
 * Three variants share one Markov-table stack:
 *  - PPM-PIB: a single PIB path-history register (1-level predictor);
 *  - PPM-hyb: two registers (PB = all-branch path, PIB = indirect-only
 *    path) with a per-branch 2-bit selection counter in the BIU
 *    choosing between them (2-level predictor);
 *  - PPM-hyb-biased: PPM-hyb with the PIB-biased selection machine.
 *
 * The Figure-6 configuration is order 10, two 100-bit PHRs (10 targets
 * x 10 low-order bits), 2K total Markov entries, SFSXS indexing, and
 * per-branch selection counters.
 */

#ifndef IBP_CORE_PPM_PREDICTOR_HH_
#define IBP_CORE_PPM_PREDICTOR_HH_

#include <cstdint>
#include <string>
#include <tuple>

#include "predictors/path_history.hh"
#include "predictors/predictor.hh"
#include "core/biu.hh"
#include "core/correlation.hh"
#include "core/ppm.hh"

namespace ibp::core {

/** Which front-end drives the shared PPM stack. */
enum class PpmVariant : std::uint8_t
{
    PibOnly,      ///< PPM-PIB
    Hybrid,       ///< PPM-hyb
    HybridBiased, ///< PPM-hyb-biased
};

/** Full predictor configuration. */
struct PpmPredictorConfig
{
    PpmVariant variant = PpmVariant::Hybrid;
    PpmConfig ppm; ///< order/hash/tables

    unsigned phrBitsPerTarget = 10; ///< symbol width per PHR slot
    pred::StreamSel pbStream = pred::StreamSel::AllBranches;
    pred::StreamSel pibStream = pred::StreamSel::MtIndirect;

    BiuConfig biu; ///< selection-counter home (hybrid variants)
};

/** The complete PPM predictor.  Final so the replay engine's
 *  devirtualized fast path can inline the per-record observe(). */
class PpmPredictor final : public pred::IndirectPredictor
{
  public:
    explicit PpmPredictor(const PpmPredictorConfig &config,
                          std::string name = "");

    std::string name() const override { return name_; }

    /** Inline (with update and predictAndUpdate below): these run once
     *  per predicted indirect branch inside the engine's devirtualized
     *  replay loop, and everything but the Markov-stack probe itself
     *  flattens into that loop. */
    pred::Prediction
    predict(trace::Addr pc) override
    {
        return predictOn(words(), pc);
    }

    void
    update(trace::Addr pc, trace::Addr target) override
    {
        ppm_.update(target);
        if (config_.variant != PpmVariant::PibOnly) {
            const bool correct = lastPrediction.hit(target);
            BiuEntry &entry =
                lastBiuEntry ? *lastBiuEntry : biu_.lookup(pc);
            IBP_PROBE(const bool before = entry.selection.usePib();)
            entry.selection.update(correct, selectionMode());
            IBP_PROBE(if (entry.selection.usePib() != before)
                          selectorFlips_.bump();)
        }
    }

    /** Fused predict+update: one direct-call pair instead of two
     *  virtual dispatches; the state transitions are the two-call
     *  protocol's, verbatim. */
    pred::Prediction
    predictAndUpdate(trace::Addr pc, trace::Addr target) override
    {
        return predictAndUpdateOn(pc, target, pb_.value(), pib_.value());
    }

    /** predictAndUpdate() on the PB and PIB words @p pb and @p pib,
     *  which a replay row's history lanes hold for this record,
     *  instead of on the registers' own. */
    pred::Prediction
    predictAndUpdateOn(trace::Addr pc, trace::Addr target,
                       std::uint64_t pb, std::uint64_t pib)
    {
        const pred::Prediction prediction = predictOn({pb, pib}, pc);
        PpmPredictor::update(pc, target);
        return prediction;
    }

    /** Advance the two path-history registers.  Each is held directly
     *  in its SFSXS-hashed form (see SfsxsWord) — the hash is the
     *  registers' only consumer, so the folded ring is the complete
     *  architectural state and predict() reads a ready-made word in
     *  O(1). */
    void
    observe(const trace::BranchRecord &record) override
    {
        pb_.observe(record);
        pib_.observe(record);
    }

    /** The PB and PIB registers, in predictAndUpdateOn()'s word
     *  order: a replay row keys its history lanes on them and copies
     *  the lanes' state back in after each chunk. */
    std::tuple<SfsxsHistory &, SfsxsHistory &>
    historyRegisters()
    {
        return std::tie(pb_, pib_);
    }

    /** The register words predict() reads. */
    pred::PathWords words() const { return {pb_.value(), pib_.value()}; }

    /** predict() on the register words @p words. */
    pred::Prediction
    predictOn(const pred::PathWords &words, trace::Addr pc)
    {
        bool use_pib = true;
        if (config_.variant != PpmVariant::PibOnly) {
            BiuEntry &entry = biu_.lookup(pc);
            entry.multiTarget = true; // learned at first fetch in hw
            use_pib = entry.selection.usePib();
            lastBiuEntry = config_.biu.infinite ? &entry : nullptr;
        }
        ++selectTotal;
        if (use_pib)
            ++pibSelected;

        const std::uint64_t word = use_pib ? words.pib : words.pb;
        lastPrediction =
            ppm_.predictHashed(ppm_.hash().mixPc(word, pc), pc);
        return lastPrediction;
    }

    void snapshotProbes(obs::ProbeRegistry &registry) const override;
    std::uint64_t storageBits() const override;
    void reset() override;
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;
    void saveProbes(util::StateWriter &writer) const override;
    void loadProbes(util::StateReader &reader) override;

    /** The Markov stack (per-order stats live here). */
    const Ppm &core() const { return ppm_; }

    /** The BIU (selection counters; finite-BIU eviction stats). */
    const Biu &biu() const { return biu_; }

    /** Fraction of predictions that used the PIB register. */
    double pibSelectRatio() const;

  private:
    SelectionMode
    selectionMode() const
    {
        return config_.variant == PpmVariant::HybridBiased
                   ? SelectionMode::PibBiased
                   : SelectionMode::Normal;
    }

    PpmPredictorConfig config_;
    std::string name_;
    /** Hardware cost of the PHR behind one SFSXS word: m symbols of
     *  phrBitsPerTarget bits (the word itself is derived state). */
    std::uint64_t
    phrStorageBits(const SfsxsHistory &) const
    {
        return static_cast<std::uint64_t>(config_.ppm.hash.order) *
               config_.phrBitsPerTarget;
    }

    Ppm ppm_;
    /** The PB and PIB path-history registers, each maintained directly
     *  as its incremental SFSXS hash word (the hash is the registers'
     *  only reader, so no raw-symbol copy is kept): predict() reads
     *  the selected word in O(1) instead of folding all m symbols per
     *  prediction. */
    SfsxsHistory pb_;
    SfsxsHistory pib_;
    Biu biu_;

    pred::Prediction lastPrediction;
    /**
     * BIU entry resolved by the last predict(), reused by update() so
     * the entry is located once per branch.  Infinite-BIU only:
     * unordered_map references are stable, and skipping the second
     * lookup has no observable effect there — a finite BIU's lookup
     * touches LRU state, so the hybrid variants re-look it up.
     */
    BiuEntry *lastBiuEntry = nullptr;
    std::uint64_t pibSelected = 0;
    std::uint64_t selectTotal = 0;
    /** PB<->PIB preference changes of per-branch selection counters. */
    util::Counter selectorFlips_;
};

/** The paper's Figure-6 2K-entry PPM-hyb configuration. */
PpmPredictorConfig paperPpmConfig(PpmVariant variant);

} // namespace ibp::core

#endif // IBP_CORE_PPM_PREDICTOR_HH_
