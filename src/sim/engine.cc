#include "sim/engine.hh"

#include <algorithm>
#include <tuple>
#include <type_traits>
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
 * True for the predictors that take history lanes: their PB and PIB
 * registers are read only through predictAndUpdateOn(), so a row folds
 * them once per chunk in its plan (ReplayPlan::addLane()) and the
 * column replays only its predicted records.
 */
template <typename Predictor>
concept TakesLanes = requires(Predictor &predictor,
                              const pred::PathWords &words) {
    predictor.pbRegister();
    predictor.pibRegister();
    predictor.predictAndUpdateOn(words, trace::Addr{}, trace::Addr{});
};

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
 * with no kind branch and no RAS work.  A predictor that takes lanes
 * observes nothing: it predicts on the lanes' register words instead.
 * The per-record protocol is the same in trace order, so metrics are
 * bit-identical across instantiations, observe scopes and chunkings.
 */
template <typename Predictor>
inline void
replayPlanned(const ReplayPlan &plan, std::size_t from, bool per_site,
              Predictor &predictor, RunMetrics &metrics)
{
    constexpr bool lanes = TakesLanes<Predictor>;
    const trace::BranchRecord *span = plan.records();
    const std::size_t n = plan.size();
    const bool observes = !lanes && predictor.wantsObserve();
    const bool gaps = observes && !predictor.observesOnlyPredicted();

    const std::uint32_t *first = plan.predictedFrom(from);
    const std::uint32_t *last = plan.predictedEnd();
    [[maybe_unused]] const std::uint64_t *pb_words = nullptr;
    [[maybe_unused]] const std::uint64_t *pib_words = nullptr;
    if constexpr (lanes) {
        const auto k = static_cast<std::size_t>(first - plan.predictedBegin());
        pb_words = plan.lane(predictor.pbRegister()).words() + k;
        pib_words = plan.lane(predictor.pibRegister()).words() + k;
    }
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
        pred::Prediction prediction;
        if constexpr (lanes)
            prediction = predictor.predictAndUpdateOn(
                {*pb_words++, *pib_words++}, record.pc, record.target);
        else
            prediction =
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
 * Copy the lane state after @p plan's chunk into @p reg.  Checked
 * builds first require @p reg to hold the lane's state at @p from,
 * the record the column joins the chunk at: a column whose registers
 * disagree with its row's would replay another trace's history.
 */
template <typename Register>
void
takeLane(const ReplayPlan &plan, [[maybe_unused]] std::size_t from,
         Register &reg)
{
    const HistoryLane<Register> &lane = plan.lane(reg);
#ifdef IBP_CHECKED_TABLES
    panic_if(!(lane.stateAt(plan.records(), from) == reg),
             "a column's history registers differ from its row's "
             "history lane at chunk offset ", from);
#endif
    reg = lane.state();
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

template <typename Register>
void
HistoryLane<Register>::build(const trace::BranchRecord *span,
                             std::size_t n,
                             const std::uint32_t *predicted,
                             std::size_t count)
{
    if (words_.size() < count)
        words_.resize(count);
#ifdef IBP_CHECKED_TABLES
    start_ = state_;
#endif
    // A local copy: the stores to words_ cannot alias it, so the
    // register stays in host registers across the walk.
    Register reg = state_;
    std::uint64_t *words = words_.data();
    const auto walk = [&](auto advance) {
        std::size_t next = 0;
        for (std::size_t k = 0; k < count; ++k) {
            for (; next < predicted[k]; ++next)
                advance(span[next]);
            words[k] = reg.value();
        }
        for (; next < n; ++next)
            advance(span[next]);
    };
    switch (reg.stream()) {
      case pred::StreamSel::MtIndirect:
        // The stream is exactly the chunk's predicted records.
        for (std::size_t k = 0; k < count; ++k) {
            words[k] = reg.value();
            reg.push(span[predicted[k]]);
        }
        break;
      case pred::StreamSel::AllBranches:
        walk([&](const trace::BranchRecord &r) { reg.push(r); });
        break;
      default:
        walk([&](const trace::BranchRecord &r) { reg.observe(r); });
        break;
    }
    state_ = reg;
}

#ifdef IBP_CHECKED_TABLES
template <typename Register>
Register
HistoryLane<Register>::stateAt(const trace::BranchRecord *span,
                               std::size_t offset) const
{
    Register reg = start_;
    for (std::size_t i = 0; i < offset; ++i)
        reg.observe(span[i]);
    return reg;
}
#endif

template class HistoryLane<core::SfsxsHistory>;
template class HistoryLane<pred::ShiftHistory>;

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
    buildLanes();
}

void
ReplayPlan::buildLanes()
{
    const auto build = [this](auto &set) {
        for (std::size_t i = 0; i < set.active; ++i)
            set.lanes[i].build(span_, size_, predicted_.data(),
                               predictedCount_);
    };
    std::apply([&](auto &...sets) { (build(sets), ...); }, lanes_);
}

void
ReplayPlan::clearLanes()
{
    std::apply([](auto &...sets) { ((sets.active = 0), ...); }, lanes_);
}

std::size_t
ReplayPlan::laneCount() const
{
    return std::apply(
        [](const auto &...sets) { return (sets.active + ...); }, lanes_);
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
    : config_(config), sampler_(config.timeline), standalone_(config)
{
}

std::uint64_t
ReplaySession::run(trace::BranchSource &source,
                   pred::IndirectPredictor &predictor,
                   std::uint64_t limit)
{
    ReplayRow &row = standalone_;
    row.restart(metrics_.branches);
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
        if constexpr (TakesLanes<std::remove_reference_t<
                          decltype(concrete)>>) {
            takeLane(plan, from, concrete.pbRegister());
            takeLane(plan, from, concrete.pibRegister());
        }
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
ReplayRow::restart(std::uint64_t position)
{
    position_ = position;
    plan_.ras() = pred::ReturnAddressStack();
    plan_.clearLanes();
    columns_.clear();
    planSeconds_ = 0;
}

void
ReplayRow::addColumn(pred::IndirectPredictor &predictor,
                     ReplaySession &session)
{
    const std::uint64_t cursor = session.metrics().branches;
    panic_if(cursor < position_, "replay column starts before its row");
    withHotType(predictor, [&](auto &concrete) {
        if constexpr (TakesLanes<std::remove_reference_t<
                          decltype(concrete)>>) {
            // Registers ahead of the row say nothing about the row's
            // position; a row at record 0 starts from cold ones.
            panic_if(cursor > position_ && position_ > 0,
                     "a history-lane column ahead of a row that does "
                     "not start at record 0");
            const auto add = [&](auto reg) {
                if (cursor > position_)
                    reg.reset();
                plan_.addLane(reg);
            };
            add(concrete.pbRegister());
            add(concrete.pibRegister());
        }
    });
    columns_.push_back(Column{&predictor, &session});
}

void
ReplayRow::feed(const trace::BranchRecord *span, std::size_t n)
{
    const bool timed = timing_ == Timing::On;
    for (std::size_t off = 0; off < n;) {
        std::uint64_t end = position_ + std::min<std::uint64_t>(
                                            n - off, trace::kReplayChunk);
        if (window_ > 0)
            end = std::min(end, (position_ / window_ + 1) * window_);
        const auto len = static_cast<std::size_t>(end - position_);
        // One clock reading ends each interval and starts the next.
        double wall = timed ? obs::wallSeconds() : 0;
        plan_.build(span + off, len);
        double cpu = 0;
        if (timed) {
            const double now = obs::wallSeconds();
            planSeconds_ += now - wall;
            wall = now;
            cpu = obs::threadCpuSeconds();
        }
        for (Column &column : columns_) {
            const std::uint64_t cursor = column.session->metrics().branches;
            if (cursor >= end)
                continue; // resumed ahead of this chunk
            column.session->feed(
                plan_, static_cast<std::size_t>(
                           std::max(position_, cursor) - position_),
                *column.predictor);
            if (!timed)
                continue;
            double now = obs::threadCpuSeconds();
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

void
ReplayRow::finish()
{
    for (Column &column : columns_)
        column.session->finish(*column.predictor);
}

} // namespace ibp::sim
