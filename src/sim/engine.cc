#include "sim/engine.hh"

#include <algorithm>

#include "predictors/btb.hh"
#include "predictors/cascade.hh"
#include "predictors/dpath.hh"
#include "predictors/gap.hh"
#include "predictors/ittage.hh"
#include "predictors/perceptron_indirect.hh"
#include "predictors/target_cache.hh"
#include "core/filtered_ppm.hh"
#include "core/ppm_predictor.hh"

namespace ibp::sim {

namespace {

/**
 * The per-span replay loop, templated on the concrete predictor type.
 * For the hot predictor classes (see withConcreteType()) the compiler
 * devirtualizes and inlines predictAndUpdate()/observe() straight into
 * the loop; instantiated with the base class it degrades to exactly
 * one virtual call per predicted branch and one per observed record.
 * Either way the per-record protocol — predict -> update -> observe,
 * in trace order — is the same code, so metrics are bit-identical
 * across instantiations *and* across span sizes: no state outlives a
 * record beyond the RAS, metrics and predictor, so chunking a trace
 * differently cannot change a simulated number.
 */
template <typename Predictor>
inline void
replaySpan(const trace::BranchRecord *span, std::size_t n,
           const EngineConfig &config, Predictor &predictor,
           pred::ReturnAddressStack &ras, RunMetrics &metrics)
{
    // Loop-invariant configuration and the predictor's observe()
    // interest are hoisted out of the hot loop.
    const bool use_ras = config.useRas;
    const bool per_site = config.perSiteStats;
    const bool observes = predictor.wantsObserve();

    metrics.branches += n;
    for (std::size_t b = 0; b < n; ++b) {
        const trace::BranchRecord &record = span[b];

        if (record.isPredictedIndirect()) {
            ++metrics.mtIndirect;
            const pred::Prediction prediction =
                predictor.predictAndUpdate(record.pc, record.target);
            const bool miss = !prediction.hit(record.target);
            metrics.indirectMisses.sample(miss);
            metrics.noPrediction.sample(!prediction.valid);
            if (per_site) {
                SiteMetrics &site = metrics.perSite[record.pc];
                site.misses.sample(miss);
                site.lastTarget = record.target;
            }
        } else if (record.kind == trace::BranchKind::Return &&
                   use_ras) {
            trace::Addr predicted = 0;
            const bool got = ras.pop(predicted);
            metrics.returnMisses.sample(!got ||
                                        predicted != record.target);
        }

        if (record.call && use_ras)
            ras.push(record.pc + 4);

        if (observes)
            predictor.observe(record);
    }
}

/**
 * Type-switch devirtualization, the one list of hot concrete
 * predictors: calls @p fn with @p predictor cast to the first listed
 * type it is (one dynamic_cast each, per span — not per record), or
 * with the base class for anything else (composite predictors, test
 * doubles), which takes the generic virtual loop with identical
 * semantics.
 */
template <typename... Hot, typename Fn>
void
withConcreteType(pred::IndirectPredictor &predictor, Fn &&fn)
{
    const bool hot = ((dynamic_cast<Hot *>(&predictor) != nullptr &&
                       (fn(static_cast<Hot &>(predictor)), true)) ||
                      ...);
    if (!hot)
        fn(predictor);
}

} // namespace

Engine::Engine(const EngineConfig &config)
    : config_(config)
{
}

RunMetrics
Engine::run(trace::BranchSource &source,
            pred::IndirectPredictor &predictor,
            obs::ProbeRegistry *probes, obs::Timeline *timeline)
{
    ReplaySession session(config_);
    session.run(source, predictor);
    if (probes)
        session.snapshotProbes(*probes, predictor);
    if (timeline)
        *timeline = session.takeTimeline();
    return session.metrics();
}

ReplaySession::ReplaySession(const EngineConfig &config)
    : config_(config), ras_(config.rasDepth),
      sampler_(config.timeline)
{
}

std::uint64_t
ReplaySession::run(trace::BranchSource &source,
                   pred::IndirectPredictor &predictor,
                   std::uint64_t limit)
{
    // A span consumes the source's whole remainder (or its next decode
    // ring) and cannot stop at a record boundary, so bounded runs read
    // clamped batches instead.
    const bool unbounded = limit == kNoLimit;
    std::uint64_t consumed = 0;
    trace::BranchRecord batch[trace::kReplayChunk];
    while (consumed < limit) {
        const trace::BranchRecord *span = nullptr;
        std::size_t n = unbounded ? source.nextSpan(span) : 0;
        if (n == 0) {
            n = source.nextBatch(
                batch, static_cast<std::size_t>(std::min<std::uint64_t>(
                           trace::kReplayChunk, limit - consumed)));
            span = batch;
        }
        if (n == 0) {
            finish(predictor);
            break;
        }
        consumed += n;
        feed(span, n, predictor);
    }
    return consumed;
}

void
ReplaySession::feed(const trace::BranchRecord *span, std::size_t n,
                    pred::IndirectPredictor &predictor)
{
    withConcreteType<pred::Btb, pred::Btb2b, pred::Gap,
                     pred::TargetCache, core::PpmPredictor, pred::Dpath,
                     pred::Cascade, core::FilteredPpm, pred::Ittage,
                     pred::PerceptronIndirect>(
        predictor, [&](auto &concrete) {
            if (!sampler_.enabled()) {
                replaySpan(span, n, config_, concrete, ras_, metrics_);
                return;
            }
            // Split the span at window boundaries.  Boundaries are
            // absolute record counts, so the windows are identical
            // however the trace is sliced into spans, bounded runs or
            // checkpoint/resume cycles.
            std::size_t off = 0;
            while (off < n) {
                const std::uint64_t boundary =
                    sampler_.nextBoundary(metrics_.branches);
                const auto len =
                    static_cast<std::size_t>(std::min<std::uint64_t>(
                        n - off, boundary - metrics_.branches));
                replaySpan(span + off, len, config_, concrete, ras_,
                           metrics_);
                off += len;
                if (metrics_.branches == boundary)
                    sampleTimeline(predictor);
            }
        });
}

void
ReplaySession::finish(const pred::IndirectPredictor &predictor)
{
    // A no-op when the trace ended exactly on a boundary: the sampler
    // only closes a window holding records.
    if (sampler_.enabled())
        sampleTimeline(predictor);
}

void
ReplaySession::sampleTimeline(const pred::IndirectPredictor &predictor)
{
    obs::TimelineSample sample;
    sample.branches = metrics_.branches;
    sample.predictions = metrics_.mtIndirect;
    sample.misses = metrics_.indirectMisses.events();
    sample.noPredictions = metrics_.noPrediction.events();
    if (!sampler_.config().sampleProbes) {
        sampler_.sample(sample, nullptr);
        return;
    }
    obs::ProbeRegistry probes;
    snapshotProbes(probes, predictor);
    sampler_.sample(sample, &probes);
}

void
ReplaySession::snapshotProbes(obs::ProbeRegistry &registry,
                              const pred::IndirectPredictor &predictor)
    const
{
    registry.counter("ras/overflows", ras_.overflows());
    registry.counter("ras/underflows", ras_.underflows());
    predictor.snapshotProbes(registry);
}

void
ReplaySession::saveState(util::StateWriter &writer) const
{
    metrics_.saveState(writer);
    ras_.saveState(writer);
    // Timeline-off sessions keep the pre-timeline byte layout; both
    // sides condition on the same config, so a snapshot restores only
    // into an identically configured session (the checkpoint
    // contract).
    if (sampler_.enabled())
        sampler_.saveState(writer);
}

void
ReplaySession::loadState(util::StateReader &reader)
{
    metrics_.loadState(reader);
    ras_.loadState(reader);
    if (sampler_.enabled())
        sampler_.loadState(reader);
}

void
ReplaySession::saveProbes(util::StateWriter &writer) const
{
    ras_.saveProbes(writer);
}

void
ReplaySession::loadProbes(util::StateReader &reader)
{
    ras_.loadProbes(reader);
}

} // namespace ibp::sim
