/**
 * @file
 * Dual-path hybrid predictor (Driesen & Holzle, ISCA '98).
 *
 * Two two-level components with different path lengths (one short, one
 * long) share a table of 2-bit selection counters indexed by branch
 * pc.  Components use reverse-interleaving indexing of a 24-bit path
 * register.  The paper's Figure-6 Dpath uses tagless 1K-entry PHTs
 * with path lengths 1 and 3; the Cascade predictor reuses the same
 * component with tagged 4-way set-associative PHTs (path lengths 6
 * and 4).
 */

#ifndef IBP_PREDICTORS_DPATH_HH_
#define IBP_PREDICTORS_DPATH_HH_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/sat_counter.hh"
#include "util/table.hh"
#include "predictors/path_history.hh"
#include "predictors/predictor.hh"

namespace ibp::pred {

/** One two-level path component (a GAp with selectable indexing). */
struct PathComponentConfig
{
    std::size_t entries = 1024;
    unsigned historyBits = 24;
    unsigned bitsPerTarget = 24; ///< path length = history/bitsPerTarget
    StreamSel stream = StreamSel::MtIndirect;
    bool tagged = false;
    std::size_t ways = 4;  ///< associativity when tagged
    unsigned tagBits = 12; ///< tag width when tagged
};

/**
 * A single path-indexed target table.  With @c tagged=false it is a
 * tagless direct-mapped PHT; with @c tagged=true it is a set-
 * associative tagged PHT with true LRU, and predictions are only
 * produced on a tag hit.
 */
class PathComponent
{
  public:
    explicit PathComponent(const PathComponentConfig &config);

    /** Look up; caches the slot for the following update(). */
    Prediction predict(trace::Addr pc);

    /**
     * Train with the resolved target at the slot captured by the
     * preceding predict().
     * @param allocate tagged tables only: insert on tag miss
     */
    void update(trace::Addr target, bool allocate);

    void observe(const trace::BranchRecord &record);
    std::uint64_t storageBits() const;
    void reset();
    void saveState(util::StateWriter &writer) const;
    void loadState(util::StateReader &reader);
    void saveProbes(util::StateWriter &writer) const;
    void loadProbes(util::StateReader &reader);

    const ShiftHistory &history() const { return history_; }

  private:
    std::uint64_t indexHash(trace::Addr pc) const;
    std::uint64_t tagHash(trace::Addr pc) const;

    PathComponentConfig config_;
    ShiftHistory history_;
    util::DirectTable<TargetEntry> direct_;
    util::AssocTable<TargetEntry> assoc_;

    // Per-byte lookup tables for the across-targets interleave of the
    // path register: acrossLut_[b][v] is the interleaved image of
    // history byte b holding value v.  Built once from the geometry in
    // the constructor; OR-ing one entry per history byte replaces the
    // historical bit-at-a-time double loop on every index hash.
    std::vector<std::array<std::uint32_t, 256>> acrossLut_;

    // Slot captured at predict time for the follow-up update.
    std::uint64_t lastIndex = 0;
    std::uint64_t lastSet = 0;
    std::uint64_t lastTag = 0;
    // Way resolved by the most recent predict(), consumed by the next
    // update() to skip the second tag scan.  Transient (never
    // serialized): loadState()/reset() drop it so a restored component
    // falls back to the full scan, exactly like the historical path.
    std::size_t lastWay_ = 0;
    bool haveSlot_ = false;
};

/** Dual-path hybrid configuration. */
struct DpathConfig
{
    PathComponentConfig shortPath{
        1024, 24, 24, StreamSel::MtIndirect, false, 4, 12};
    PathComponentConfig longPath{
        1024, 24, 8, StreamSel::MtIndirect, false, 4, 12};
    std::size_t selectorEntries = 1024;
};

/** The dual-path hybrid. */
class Dpath final : public IndirectPredictor
{
  public:
    explicit Dpath(const DpathConfig &config, std::string name = "Dpath");

    std::string name() const override { return name_; }
    Prediction predict(trace::Addr pc) override;
    void update(trace::Addr pc, trace::Addr target) override;

    /** Fused fast path: one table walk per component per branch (the
     *  slot each predict() resolves is handed straight to update()).
     *  Bit-identical to split predict()+update(). */
    Prediction
    predictAndUpdate(trace::Addr pc, trace::Addr target) override
    {
        const Prediction predicted = Dpath::predict(pc);
        Dpath::update(pc, target);
        return predicted;
    }

    void observe(const trace::BranchRecord &record) override;
    std::uint64_t storageBits() const override;
    void reset() override;

    /**
     * Train without allocating new tagged entries (the Cascade filter
     * protocol calls this when the filter already handled the branch).
     */
    void updateWithAllocate(trace::Addr pc, trace::Addr target,
                            bool allocate);

    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;
    void saveProbes(util::StateWriter &writer) const override;
    void loadProbes(util::StateReader &reader) override;

    /** No gated probes yet (the component predictors keep their own);
     *  the explicit no-op override records that as a deliberate choice
     *  (serde-coverage lint). */
    void snapshotProbes(obs::ProbeRegistry &registry) const override
    {
        (void)registry;
    }

  private:
    struct Selector
    {
        util::SatCounter counter{2, 1};
    };

    DpathConfig config_;
    std::string name_;
    PathComponent short_;
    PathComponent long_;
    util::DirectTable<Selector> selector_;

    Prediction lastShort;
    Prediction lastLong;
};

} // namespace ibp::pred

#endif // IBP_PREDICTORS_DPATH_HH_
