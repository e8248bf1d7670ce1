#include "sim/engine.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"
#include "obs/cputime.hh"
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
 * The replay loop, templated on the concrete predictor type.  For the
 * hot predictor classes (see withHotType()) the compiler
 * devirtualizes and inlines predictAndUpdate()/observe() straight into
 * the loop; instantiated with the base class it degrades to exactly
 * one virtual call per predicted branch and one per observed record.
 *
 * The plan already holds the predicted offsets, so the loop jumps from
 * one predicted record to the next: it runs predict -> update ->
 * observe there, and in between it observes the records a predictor's
 * history can see — none when observe() is a no-op, none when
 * observe() only reacts to predicted records, every one otherwise —
 * with no kind branch and no RAS work.  The per-record protocol is the
 * same in trace order, so metrics are bit-identical across
 * instantiations, observe scopes and chunkings.
 */
template <typename Predictor>
inline void
replayPlanned(const ReplayPlan &plan, std::size_t from, bool per_site,
              Predictor &predictor, RunMetrics &metrics)
{
    const trace::BranchRecord *span = plan.records();
    const std::size_t n = plan.size();
    const bool observes = predictor.wantsObserve();
    const bool gaps = observes && !predictor.observesOnlyPredicted();

    const std::uint32_t *first = plan.predictedFrom(from);
    const std::uint32_t *last = plan.predictedEnd();
    // Counted in registers: the predictor calls cannot clobber them.
    std::uint64_t misses = 0;
    std::uint64_t abstentions = 0;
    std::size_t next = from; // the next record a gap observer sees
    for (const std::uint32_t *it = first;; ++it) {
        // A predicted record is observed as the head of the gap that
        // follows it, so observe() has one call site per scope.
        const std::size_t stop = it == last ? n : *it;
        if (gaps)
            for (; next < stop; ++next)
                predictor.observe(span[next]);
        if (it == last)
            break;
        const trace::BranchRecord &record = span[*it];
        const pred::Prediction prediction =
            predictor.predictAndUpdate(record.pc, record.target);
        const bool miss = !prediction.hit(record.target);
        misses += miss;
        abstentions += !prediction.valid;
        if (per_site) {
            SiteMetrics &site = metrics.perSite[record.pc];
            site.misses.sample(miss);
            site.lastTarget = record.target;
        }
        if (observes && !gaps)
            predictor.observe(record);
    }

    const auto predicted = static_cast<std::uint64_t>(last - first);
    metrics.branches += n - from;
    metrics.mtIndirect += predicted;
    metrics.indirectMisses.add(misses, predicted);
    metrics.noPrediction.add(abstentions, predicted);
}

/**
 * Type-switch devirtualization: calls @p fn with @p predictor cast to
 * the first listed type it is (one dynamic_cast each, per feed — not
 * per record), or with the base class for anything else (composite
 * predictors, test doubles), which takes the generic virtual loop with
 * identical semantics.
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

/** withConcreteType() over the one list of hot concrete predictors. */
template <typename Fn>
void
withHotType(pred::IndirectPredictor &predictor, Fn &&fn)
{
    withConcreteType<pred::Btb, pred::Btb2b, pred::Gap,
                     pred::TargetCache, core::PpmPredictor, pred::Dpath,
                     pred::Cascade, core::FilteredPpm, pred::Ittage,
                     pred::PerceptronIndirect>(predictor,
                                               std::forward<Fn>(fn));
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

void
ReplayPlan::build(const trace::BranchRecord *span, std::size_t n)
{
    panic_if(n > trace::kReplayChunk, "replay plan chunk too long: ", n);
    if (predicted_.size() < n) {
        predicted_.resize(n);
        returns_.resize(n);
        returnMisses_.resize(n + 1);
    }
    span_ = span;
    size_ = n;

    // Pass 1, branch-free: each offset is stored unconditionally and
    // kept only by a record of its class, so the record kinds never
    // steer a host branch.  The RAS's calls and returns are gathered
    // into returns_, which pass 2 compacts in place to the returns.
    std::uint32_t *predicted = predicted_.data();
    std::uint32_t *events = returns_.data();
    std::uint32_t np = 0;
    std::uint32_t ne = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const trace::BranchRecord &record = span[i];
        const trace::BranchKind kind = record.kind;
        const bool jmp_or_jsr = (kind == trace::BranchKind::IndirectJmp) |
                                (kind == trace::BranchKind::IndirectCall);
        predicted[np] = i;
        np += record.multiTarget & jmp_or_jsr;
        events[ne] = i;
        ne += (kind == trace::BranchKind::Return) | record.call;
    }
    predictedCount_ = np;

    // Pass 2: the RAS over its calls and returns only, in trace order.
    std::uint32_t returns = 0;
    std::uint32_t misses = 0;
    for (std::uint32_t e = 0; e < ne; ++e) {
        const std::uint32_t i = events[e];
        const trace::BranchRecord &record = span[i];
        if (record.kind == trace::BranchKind::Return) {
            trace::Addr target = 0;
            const bool got = ras_.pop(target);
            misses += !got || target != record.target;
            events[returns] = i; // returns <= e: nothing unread is lost
            returnMisses_[++returns] = misses;
        }
        if (record.call)
            ras_.push(record.pc + 4);
    }
    returnCount_ = returns;
}

const std::uint32_t *
ReplayPlan::predictedFrom(std::size_t from) const
{
    return std::lower_bound(predicted_.data(), predictedEnd(), from);
}

util::Ratio
ReplayPlan::returnsFrom(std::size_t from) const
{
    const std::uint32_t *first = returns_.data();
    const auto k = static_cast<std::size_t>(
        std::lower_bound(first, first + returnCount_, from) - first);
    util::Ratio outcomes;
    outcomes.add(returnMisses_[returnCount_] - returnMisses_[k],
                 returnCount_ - k);
    return outcomes;
}

ReplaySession::ReplaySession(const EngineConfig &config)
    : config_(config), sampler_(config.timeline)
{
}

std::uint64_t
ReplaySession::run(trace::BranchSource &source,
                   pred::IndirectPredictor &predictor,
                   std::uint64_t limit)
{
    ReplayRow row(config_, metrics_.branches);
    row.ras() = ras_;
    row.addColumn(predictor, *this);
    std::uint64_t consumed = 0;
    while (consumed < limit) {
        const trace::BranchRecord *span = nullptr;
        const std::size_t n = source.nextSpan(
            span, static_cast<std::size_t>(limit - consumed));
        if (n == 0) {
            finish(predictor);
            break;
        }
        consumed += n;
        row.feed(span, n);
    }
    return consumed;
}

void
ReplaySession::feed(const ReplayPlan &plan, std::size_t from,
                    pred::IndirectPredictor &predictor)
{
    panic_if(from > plan.size(), "replay plan offset past its chunk");
    const std::uint64_t boundary =
        sampler_.enabled() ? sampler_.nextBoundary(metrics_.branches)
                           : kNoLimit;
    withHotType(predictor, [&](auto &concrete) {
        replayPlanned(plan, from, config_.perSiteStats, concrete,
                      metrics_);
    });
    ras_ = plan.ras();
    metrics_.returnMisses.merge(plan.returnsFrom(from));
    panic_if(metrics_.branches > boundary,
             "replay plan crosses a timeline boundary");
    if (metrics_.branches == boundary)
        sampleTimeline(predictor);
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

void
ReplayRow::addColumn(pred::IndirectPredictor &predictor,
                     ReplaySession &session)
{
    panic_if(session.metrics().branches < position_,
             "replay column starts before its row");
    columns_.push_back(Column{&predictor, &session});
}

void
ReplayRow::feed(const trace::BranchRecord *span, std::size_t n)
{
    for (std::size_t off = 0; off < n;) {
        std::uint64_t end = position_ + std::min<std::uint64_t>(
                                            n - off, trace::kReplayChunk);
        if (window_ > 0)
            end = std::min(end, (position_ / window_ + 1) * window_);
        const auto len = static_cast<std::size_t>(end - position_);
        // One clock reading ends each interval and starts the next.
        double wall = obs::wallSeconds();
        plan_.build(span + off, len);
        double now = obs::wallSeconds();
        planSeconds_ += now - wall;
        wall = now;
        double cpu = obs::threadCpuSeconds();
        for (Column &column : columns_) {
            const std::uint64_t cursor = column.session->metrics().branches;
            if (cursor >= end)
                continue; // resumed ahead of this chunk
            column.session->feed(
                plan_, static_cast<std::size_t>(
                           std::max(position_, cursor) - position_),
                *column.predictor);
            now = obs::threadCpuSeconds();
            column.cpu += now - cpu;
            cpu = now;
            now = obs::wallSeconds();
            column.wall += now - wall;
            wall = now;
        }
        position_ = end;
        off += len;
    }
}

} // namespace ibp::sim
