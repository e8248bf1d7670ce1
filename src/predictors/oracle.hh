/**
 * @file
 * Oracle path-history predictor.
 *
 * An idealized predictor with unbounded storage that remembers, for
 * every exact (branch pc, complete path-history window) context, the
 * most recently seen target.  The paper uses such an oracle to bound
 * the PIB predictability of photon ("complete PIB path history ...
 * 99.1% accuracy with a path length of 8"); we use it the same way and
 * to upper-bound every synthetic profile's path predictability.
 */

#ifndef IBP_PREDICTORS_ORACLE_HH_
#define IBP_PREDICTORS_ORACLE_HH_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "predictors/predictor.hh"

namespace ibp::pred {

/** Oracle configuration. */
struct OracleConfig
{
    unsigned pathLength = 8; ///< full PIB targets kept
    bool usePc = true;       ///< include the branch pc in the context
};

/** Infinite-table exact-context predictor. */
class Oracle : public IndirectPredictor
{
  public:
    explicit Oracle(const OracleConfig &config, std::string name = "");

    std::string name() const override { return name_; }
    Prediction predict(trace::Addr pc) override;
    void update(trace::Addr pc, trace::Addr target) override;
    void observe(const trace::BranchRecord &record) override;

    /** Unbounded; reports the current table footprint. */
    std::uint64_t storageBits() const override;
    void reset() override;
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;

    /** No gated probes; the explicit no-op override records that as a
     *  deliberate choice (serde-coverage lint). */
    void snapshotProbes(obs::ProbeRegistry &registry) const override
    {
        (void)registry;
    }

    /** Number of distinct contexts seen so far. */
    std::size_t contexts() const { return table_.size(); }

  private:
    std::uint64_t contextKey(trace::Addr pc) const;

    OracleConfig config_;
    std::string name_;
    std::deque<trace::Addr> window_;
    std::unordered_map<std::uint64_t, trace::Addr> table_;
    std::uint64_t lastKey = 0;
};

} // namespace ibp::pred

#endif // IBP_PREDICTORS_ORACLE_HH_
