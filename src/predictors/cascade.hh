/**
 * @file
 * Cascade predictor (Driesen & Holzle, MICRO '98).
 *
 * A small tagged filter stage sits in front of a dual-path hybrid.
 * Monomorphic and low-entropy branches are fully serviced by the
 * filter, which keeps them from polluting (and aliasing within) the
 * expensive path-indexed main tables.  The paper's Figure-6 Cascade is
 * a 128-entry leaky filter plus a Dpath with tagged 4-way PHTs of path
 * lengths 6 and 4.
 *
 * Filter protocols:
 *  - Leaky: the filter always trains; the main predictor trains only
 *    when the filter mispredicted the branch, so new branches "leak"
 *    into the main tables at their first filter miss.
 *  - Strict: the main predictor additionally requires the branch to
 *    have been proven polymorphic (its filter entry mispredicted
 *    before) before allocating.
 */

#ifndef IBP_PREDICTORS_CASCADE_HH_
#define IBP_PREDICTORS_CASCADE_HH_

#include <cstdint>
#include <string>

#include "util/table.hh"
#include "predictors/dpath.hh"
#include "predictors/predictor.hh"

namespace ibp::pred {

/** Filter training protocol. */
enum class FilterMode : std::uint8_t { Leaky, Strict };

/** Cascade configuration. */
struct CascadeConfig
{
    std::size_t filterEntries = 128;
    std::size_t filterWays = 4;
    unsigned filterTagBits = 16;
    FilterMode mode = FilterMode::Leaky;
    DpathConfig main{
        // Tagged 4-way PHTs, path lengths 6 and 4, 960 entries each:
        // with the 128-entry filter this is the paper's 2K budget.
        {960, 24, 4, StreamSel::MtIndirect, true, 4, 12},
        {960, 24, 6, StreamSel::MtIndirect, true, 4, 12},
        1024,
    };
};

/** The two-stage Cascade. */
class Cascade final : public IndirectPredictor
{
  public:
    explicit Cascade(const CascadeConfig &config,
                     std::string name = "Cascade");

    std::string name() const override { return name_; }
    Prediction predict(trace::Addr pc) override;
    void update(trace::Addr pc, trace::Addr target) override;

    /** Fused fast path: the filter way and the main-component slots
     *  resolved by predict() are consumed directly by update(), so
     *  each table is walked once per branch.  Bit-identical to split
     *  predict()+update(). */
    Prediction
    predictAndUpdate(trace::Addr pc, trace::Addr target) override
    {
        const Prediction predicted = Cascade::predict(pc);
        Cascade::update(pc, target);
        return predicted;
    }

    void observe(const trace::BranchRecord &record) override;
    void snapshotProbes(obs::ProbeRegistry &registry) const override;
    std::uint64_t storageBits() const override;
    void reset() override;
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;
    void saveProbes(util::StateWriter &writer) const override;
    void loadProbes(util::StateReader &reader) override;

    /** Fraction of predictions served by the filter (for analysis). */
    double filterServeRatio() const;

  private:
    struct FilterEntry
    {
        TargetEntry entry;
        bool provenPolymorphic = false;
    };

    std::uint64_t filterSet(trace::Addr pc) const;
    std::uint64_t filterTag(trace::Addr pc) const;

    CascadeConfig config_;
    std::string name_;
    util::AssocTable<FilterEntry> filter_;
    Dpath main_;

    Prediction lastFilter;
    Prediction lastMain;
    std::uint64_t servedByFilter = 0;
    std::uint64_t servedTotal = 0;

    // Filter slot resolved by the most recent predict(), consumed by
    // the next update() to skip re-hashing and the second tag scan.
    // Transient (never serialized): loadState()/reset() drop it so a
    // restored predictor rescans, exactly like the historical path.
    std::uint64_t lastFilterSet_ = 0;
    std::uint64_t lastFilterTag_ = 0;
    std::size_t lastFilterWay_ = 0;
    bool haveFilterSlot_ = false;
};

} // namespace ibp::pred

#endif // IBP_PREDICTORS_CASCADE_HH_
