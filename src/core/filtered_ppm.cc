#include "core/filtered_ppm.hh"

namespace ibp::core {

FilteredPpm::FilteredPpm(const FilteredPpmConfig &config, std::string name)
    : config_(config),
      name_(name.empty() ? std::string("Filtered-") +
                               (config.ppm.variant == PpmVariant::PibOnly
                                    ? "PPM-PIB"
                                    : "PPM-hyb")
                         : std::move(name)),
      filter_(config.filter), ppm_(config.ppm)
{
}

pred::Prediction
FilteredPpm::predict(trace::Addr pc)
{
    const pred::FilterEntry *fentry = filter_.probe(pc);
    lastFilter = fentry ? pred::Prediction{fentry->entry.valid,
                                           fentry->entry.target}
                        : pred::Prediction{};

    ++servedTotal;
    // Branches stay in the filter until proven polymorphic; only the
    // promoted ones touch (and train) the Markov tables.  A branch
    // with no filter entry at all (cold, or repeatedly evicted by set
    // conflicts) must be served by the PPM stack — otherwise a
    // conflict-thrashed branch would be predicted by nobody.
    ppmPredicted = !fentry || fentry->provenPolymorphic;
    if (!ppmPredicted) {
        lastPpm = {};
        ++servedByFilter;
        return lastFilter;
    }
    lastPpm = ppm_.predict(pc);
    return lastPpm.valid ? lastPpm : lastFilter;
}

void
FilteredPpm::update(trace::Addr pc, trace::Addr target)
{
    // Promotion: leaky promotes at the first filter miss, strict only
    // once the hysteresis counter is exhausted (persistent
    // misbehaviour).
    filter_.train(pc, target,
                  config_.filter.mode == pred::FilterMode::Strict);
    if (ppmPredicted)
        ppm_.update(pc, target);
}

void
FilteredPpm::observe(const trace::BranchRecord &record)
{
    ppm_.observe(record);
}

std::uint64_t
FilteredPpm::storageBits() const
{
    return filter_.storageBits() + ppm_.storageBits();
}

void
FilteredPpm::reset()
{
    filter_.reset();
    ppm_.reset();
    lastFilter = {};
    lastPpm = {};
    ppmPredicted = false;
    servedByFilter = 0;
    servedTotal = 0;
}

void
FilteredPpm::saveState(util::StateWriter &writer) const
{
    filter_.saveState(writer);
    ppm_.saveState(writer);
    pred::savePrediction(writer, lastFilter);
    pred::savePrediction(writer, lastPpm);
    writer.writeBool(ppmPredicted);
    writer.writeU64(servedByFilter);
    writer.writeU64(servedTotal);
}

void
FilteredPpm::loadState(util::StateReader &reader)
{
    filter_.loadState(reader);
    ppm_.loadState(reader);
    pred::loadPrediction(reader, lastFilter);
    pred::loadPrediction(reader, lastPpm);
    ppmPredicted = reader.readBool();
    servedByFilter = reader.readU64();
    servedTotal = reader.readU64();
    if (reader.ok() && servedByFilter > servedTotal)
        reader.fail("filter serve counters inconsistent");
}

void
FilteredPpm::saveProbes(util::StateWriter &writer) const
{
    filter_.saveProbes(writer);
    ppm_.saveProbes(writer);
}

void
FilteredPpm::loadProbes(util::StateReader &reader)
{
    filter_.loadProbes(reader);
    ppm_.loadProbes(reader);
}

void
FilteredPpm::snapshotProbes(obs::ProbeRegistry &registry) const
{
    ppm_.snapshotProbes(registry);
    registry.counter("filter/evictions", filter_.evictions());
    registry.counter("filter/conflict_misses", filter_.conflictMisses());
}

double
FilteredPpm::filterServeRatio() const
{
    return servedTotal == 0
               ? 0.0
               : static_cast<double>(servedByFilter) /
                     static_cast<double>(servedTotal);
}

} // namespace ibp::core
