/**
 * @file
 * GAp two-level indirect-branch predictor (Driesen & Holzle).
 *
 * A global path-history register records a few low-order bits of each
 * recent target; a gshare hash of the register and the branch pc
 * indexes per-address pattern history tables holding {target, 2-bit
 * replacement counter} entries.  The paper's Figure-6 configuration is
 * 2 tagless 1K-entry PHTs with a 10-bit register (5 targets x 2 bits).
 */

#ifndef IBP_PREDICTORS_GAP_HH_
#define IBP_PREDICTORS_GAP_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitops.hh"
#include "util/table.hh"
#include "predictors/path_history.hh"
#include "predictors/predictor.hh"

namespace ibp::pred {

/** Configuration of one GAp predictor. */
struct GapConfig
{
    std::size_t numPhts = 2;        ///< per-address PHT count
    std::size_t entriesPerPht = 1024;
    unsigned historyBits = 10;      ///< PHR width
    unsigned bitsPerTarget = 2;     ///< symbol width shifted per branch
};

/** Two-level GAp predictor with gshare indexing.  Final, and on the
 *  engine's devirtualized replay path. */
class Gap final : public IndirectPredictor
{
  public:
    explicit Gap(const GapConfig &config, std::string name = "GAp");

    std::string name() const override { return name_; }
    Prediction predict(trace::Addr pc) override;
    void update(trace::Addr pc, trace::Addr target) override;

    /** Fused path: one slot resolution for the read and the train.
     *  It still records lastSlot, which saveState() serializes, so the
     *  state after the call is identical to predict();update(). */
    Prediction
    predictAndUpdate(trace::Addr pc, trace::Addr target) override
    {
        lastSlot = slotFor(pc);
        TargetEntry &entry = phts_[lastSlot.pht].at(lastSlot.index);
        const Prediction prediction{entry.valid, entry.target};
        entry.train(target);
        return prediction;
    }

    /** The register records the predicted (PIB) stream. */
    void
    observe(const trace::BranchRecord &record) override
    {
        if (record.isPredictedIndirect())
            history_.push(record);
    }

    std::uint64_t storageBits() const override;
    void reset() override;
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;

    /** No gated probes yet; the explicit no-op override records that
     *  as a deliberate choice (serde-coverage lint) and keeps report
     *  schemas unchanged. */
    void snapshotProbes(obs::ProbeRegistry &registry) const override
    {
        (void)registry;
    }

    /** The history register (exposed for tests). */
    const ShiftHistory &history() const { return history_; }

  private:
    struct Slot
    {
        std::size_t pht;
        std::uint64_t index;
    };

    Slot
    slotFor(trace::Addr pc) const
    {
        // Per-address table selection uses pc bits above the ones the
        // gshare index consumes, so neighbouring branches spread
        // across PHTs.
        const std::uint64_t hashed = (pc >> 2) ^ history_.value();
        Slot slot;
        slot.index = util::reduceIndex(hashed, config_.entriesPerPht);
        slot.pht = util::reduceIndex((pc >> 2) / config_.entriesPerPht,
                                     config_.numPhts);
        return slot;
    }

    GapConfig config_;
    std::string name_;
    ShiftHistory history_;
    std::vector<util::DirectTable<TargetEntry>> phts_;
    Slot lastSlot{0, 0};
};

} // namespace ibp::pred

#endif // IBP_PREDICTORS_GAP_HH_
