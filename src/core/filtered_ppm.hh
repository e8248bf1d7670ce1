/**
 * @file
 * Filtered PPM (paper Section 6 future work).
 *
 * The paper observes that Cascade beats PPM on eqn and one edg run
 * purely through *filtering*: monomorphic/low-entropy branches that a
 * BTB-like stage could absorb instead displace strongly correlated
 * branches inside the Markov tables.  It names "incorporate a filter
 * for monomorphic and low entropy branches such as the one used in the
 * Cascade predictor" as future work; this class implements it — a
 * leaky (or strict) tagged filter in front of any PPM variant.
 */

#ifndef IBP_CORE_FILTERED_PPM_HH_
#define IBP_CORE_FILTERED_PPM_HH_

#include <cstdint>
#include <string>

#include "predictors/filter_stage.hh"
#include "predictors/predictor.hh"
#include "core/ppm_predictor.hh"

namespace ibp::core {

/** Filtered-PPM configuration. */
struct FilteredPpmConfig
{
    pred::FilterConfig filter;
    PpmPredictorConfig ppm;
};

/** A Cascade-style filter stage in front of a PPM predictor. */
class FilteredPpm final : public pred::IndirectPredictor
{
  public:
    explicit FilteredPpm(const FilteredPpmConfig &config,
                         std::string name = "");

    std::string name() const override { return name_; }
    pred::Prediction predict(trace::Addr pc) override;
    void update(trace::Addr pc, trace::Addr target) override;

    /** Fused fast path: the filter way resolved by predict() is
     *  consumed directly by update(), and every inner-PPM call is
     *  statically dispatched.  Bit-identical to split
     *  predict()+update(). */
    pred::Prediction
    predictAndUpdate(trace::Addr pc, trace::Addr target) override
    {
        return predictAndUpdateOn(ppm_.words(), pc, target);
    }

    /** predictAndUpdate() on the inner PPM's register words @p words,
     *  which a replay row's history lanes hold for this record. */
    pred::Prediction
    predictAndUpdateOn(const pred::PathWords &words, trace::Addr pc,
                       trace::Addr target)
    {
        const pred::Prediction predicted = predictOn(words, pc);
        FilteredPpm::update(pc, target);
        return predicted;
    }

    /** The inner PPM's PB and PIB registers (see PpmPredictor). */
    SfsxsHistory &pbRegister() { return ppm_.pbRegister(); }
    SfsxsHistory &pibRegister() { return ppm_.pibRegister(); }

    void observe(const trace::BranchRecord &record) override;
    std::uint64_t storageBits() const override;
    void reset() override;
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;
    void saveProbes(util::StateWriter &writer) const override;
    void loadProbes(util::StateReader &reader) override;

    /** Forwards the wrapped PPM stack's probes and adds the filter
     *  table's eviction/conflict counters under "filter/...". */
    void snapshotProbes(obs::ProbeRegistry &registry) const override;

    /** Fraction of predictions served by the filter stage. */
    double filterServeRatio() const;

    const PpmPredictor &inner() const { return ppm_; }

  private:
    /** predict() on the inner PPM's register words @p words. */
    pred::Prediction predictOn(const pred::PathWords &words,
                               trace::Addr pc);

    FilteredPpmConfig config_;
    std::string name_;
    pred::FilterStage filter_;
    PpmPredictor ppm_;

    pred::Prediction lastFilter;
    pred::Prediction lastPpm;
    bool ppmPredicted = false; ///< PPM stack consulted this branch
    std::uint64_t servedByFilter = 0;
    std::uint64_t servedTotal = 0;
};

} // namespace ibp::core

#endif // IBP_CORE_FILTERED_PPM_HH_
