#include "predictors/cascade.hh"

namespace ibp::pred {

Cascade::Cascade(const CascadeConfig &config, std::string name)
    : config_(config), name_(std::move(name)), filter_(config.filter),
      main_(config.main, "Cascade-main")
{
}

Prediction
Cascade::predict(trace::Addr pc)
{
    const FilterEntry *fentry = filter_.probe(pc);
    lastFilter = fentry ? Prediction{fentry->entry.valid,
                                     fentry->entry.target}
                        : Prediction{};
    // A saturated hysteresis counter on a branch never yet caught
    // mispredicting marks a monomorphic/low-entropy branch: the
    // filter keeps serving it, isolating it from the path-indexed
    // main tables.  Proven-polymorphic branches always defer to the
    // main predictor.
    const bool filter_confident =
        fentry && !fentry->provenPolymorphic &&
        fentry->entry.counter.saturatedHigh();
    lastMain = main_.predict(pc);

    ++servedTotal;
    if (filter_confident) {
        ++servedByFilter;
        return lastFilter;
    }
    if (lastMain.valid)
        return lastMain;
    ++servedByFilter;
    return lastFilter;
}

void
Cascade::update(trace::Addr pc, trace::Addr target)
{
    const bool filter_right = lastFilter.hit(target);

    // Stage 1: the filter always learns, and any miss promotes.
    const bool proven = filter_.train(pc, target, false);

    // Stage 2: any filter failure — wrong target, cold miss, or a
    // set-conflict eviction — leaks the branch into the main
    // predictor.  (Branches that keep conflicting in the filter must
    // end up *somewhere*.)  Strict mode additionally requires the
    // branch to be proven polymorphic before it may allocate
    // main-table space.
    bool train_main = !filter_right;
    if (config_.filter.mode == FilterMode::Strict)
        train_main = train_main && proven;
    if (train_main) {
        main_.updateWithAllocate(pc, target, true);
    } else if (lastMain.valid) {
        // Keep existing main entries coherent without allocating.
        main_.updateWithAllocate(pc, target, false);
    }
}

void
Cascade::observe(const trace::BranchRecord &record)
{
    main_.observe(record);
}

void
Cascade::snapshotProbes(obs::ProbeRegistry &registry) const
{
    // Serve counts are architectural; the filter table's eviction and
    // conflict counters are probe-gated (zero in probes-off builds).
    registry.counter("cascade/served_total", servedTotal);
    registry.counter("cascade/filter_served", servedByFilter);
    registry.counter("cascade/filter_evictions", filter_.evictions());
    registry.counter("cascade/filter_conflict_misses",
                     filter_.conflictMisses());
}

std::uint64_t
Cascade::storageBits() const
{
    return filter_.storageBits() + main_.storageBits();
}

void
Cascade::reset()
{
    filter_.reset();
    main_.reset();
    lastFilter = {};
    lastMain = {};
    servedByFilter = 0;
    servedTotal = 0;
}

void
Cascade::saveState(util::StateWriter &writer) const
{
    filter_.saveState(writer);
    main_.saveState(writer);
    savePrediction(writer, lastFilter);
    savePrediction(writer, lastMain);
    writer.writeU64(servedByFilter);
    writer.writeU64(servedTotal);
}

void
Cascade::loadState(util::StateReader &reader)
{
    filter_.loadState(reader);
    main_.loadState(reader);
    loadPrediction(reader, lastFilter);
    loadPrediction(reader, lastMain);
    servedByFilter = reader.readU64();
    servedTotal = reader.readU64();
    if (reader.ok() && servedByFilter > servedTotal)
        reader.fail("Cascade serve counters inconsistent");
}

void
Cascade::saveProbes(util::StateWriter &writer) const
{
    filter_.saveProbes(writer);
    main_.saveProbes(writer);
}

void
Cascade::loadProbes(util::StateReader &reader)
{
    filter_.loadProbes(reader);
    main_.loadProbes(reader);
}

double
Cascade::filterServeRatio() const
{
    return servedTotal == 0
               ? 0.0
               : static_cast<double>(servedByFilter) /
                     static_cast<double>(servedTotal);
}

} // namespace ibp::pred
