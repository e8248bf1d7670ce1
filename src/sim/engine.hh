/**
 * @file
 * The trace-driven simulation engine.
 *
 * Drives one indirect predictor over a branch stream exactly as the
 * paper's methodology prescribes: returns go to a RAS, single-target
 * indirect branches are excluded (link-time-resolvable GOT/DLL stubs),
 * and every multi-target jmp/jsr is predicted at fetch and trained at
 * resolve.  Per-branch ordering is predict -> update -> observe, so
 * table training uses pre-shift history and the actual target enters
 * the PHRs afterwards ("the update step starts by shifting the actual
 * target into the PHR").
 */

#ifndef IBP_SIM_ENGINE_HH_
#define IBP_SIM_ENGINE_HH_

#include <cstdint>
#include <tuple>
#include <vector>

#include "util/stats.hh"
#include "trace/trace_buffer.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"
#include "predictors/path_history.hh"
#include "predictors/predictor.hh"
#include "predictors/ras.hh"
#include "core/sfsxs.hh"
#include "sim/metrics.hh"

namespace ibp::sim {

/**
 * Engine options.  Returns always go to one 16-entry RAS (the
 * pred::ReturnAddressStack default), outside every predictor.
 */
struct EngineConfig
{
    bool perSiteStats = false; ///< collect the per-site breakdown

    /**
     * Windowed timeline sampling (see obs/timeline.hh).  Disabled by
     * default; when enabled, the replay stops at every interval-th
     * record to close a timeline window — same records, same
     * per-record protocol, so no simulated number changes (span-size
     * invariance), only the sampled curves appear.
     */
    obs::TimelineConfig timeline;
};

/**
 * One path-history register advanced once per chunk for every column
 * of a row whose register has its geometry (Register::sameGeometry()).
 * A register's value at a record depends only on the trace before it,
 * so a lane keeps the value before each of the chunk's predicted
 * records, which is all a prediction reads, and the register's state
 * after the chunk, which its columns copy in when they close the chunk.
 * Register is core::SfsxsHistory or pred::ShiftHistory.
 */
template <typename Register>
class HistoryLane
{
  public:
    explicit HistoryLane(const Register &state) : state_(state) {}

    /**
     * Advance the register over @p span[0, n), keeping its value
     * before each record at @p predicted[0, count).
     */
    void build(const trace::BranchRecord *span, std::size_t n,
               const std::uint32_t *predicted, std::size_t count);

    /** The value before the k-th predicted record of the chunk. */
    const std::uint64_t *words() const { return words_.data(); }

    /** The register after the chunk; assign to seed the next build(). */
    const Register &state() const { return state_; }
    Register &state() { return state_; }

#ifdef IBP_CHECKED_TABLES
    /** The register before record @p offset of the chunk @p span last
     *  built (checked builds: it replays the chunk's prefix). */
    Register stateAt(const trace::BranchRecord *span,
                     std::size_t offset) const;
#endif

  private:
    Register state_;
    std::vector<std::uint64_t> words_;
#ifdef IBP_CHECKED_TABLES
    Register start_ = state_; ///< the register before the chunk
#endif
};

/**
 * One replay chunk classified once, independently of any predictor:
 * the offsets of its predicted (MT jmp/jsr) records, the outcomes of
 * one RAS over its returns, that RAS's state after the chunk, and one
 * history lane per distinct path-register geometry among the row's
 * columns.  None of this depends on the predictor, so a ReplayRow
 * builds one plan per chunk and every column replays from it
 * (ReplaySession::feed(plan, from, ...)) instead of re-walking the
 * records, re-branching on their kinds, re-running the same RAS and
 * re-folding the same histories.
 *
 * The plan's RAS and lanes carry over from one build() to the next, so
 * consecutive builds over consecutive chunks track the trace's RAS and
 * histories from wherever they were seeded.  Returns are kept as
 * offsets with prefix miss counts, and lane values per predicted
 * record, so a column that joins mid-chunk (resumed from a snapshot)
 * takes exactly the suffix's return outcomes and history values.
 */
class ReplayPlan
{
  public:
    /**
     * Classify @p span[0, n) (n <= trace::kReplayChunk) and advance the
     * plan's RAS and lanes over it.  The span must outlive every feed()
     * of this plan.  The offset and lane buffers grow to the longest
     * chunk built and are reused by every later build.
     */
    void build(const trace::BranchRecord *span, std::size_t n);

    const trace::BranchRecord *records() const { return span_; }
    std::size_t size() const { return size_; }

    /** Offsets of the predicted records at or after @p from. */
    const std::uint32_t *predictedFrom(std::size_t from) const;
    const std::uint32_t *predictedBegin() const { return predicted_.data(); }
    const std::uint32_t *
    predictedEnd() const
    {
        return predicted_.data() + predictedCount_;
    }

    /** RAS-predicted returns at or after @p from, and their misses. */
    util::Ratio returnsFrom(std::size_t from) const;

    /** The RAS after the chunk; assign to seed the next build(). */
    const pred::ReturnAddressStack &ras() const { return ras_; }
    pred::ReturnAddressStack &ras() { return ras_; }

    /**
     * Track @p seed's geometry from the next build() on, starting at
     * @p seed's state, unless a lane of that geometry already exists.
     */
    template <typename Register>
    void
    addLane(const Register &seed)
    {
        LaneSet<Register> &set = std::get<LaneSet<Register>>(lanes_);
        if (set.find(seed) != nullptr)
            return;
        if (set.active < set.lanes.size())
            set.lanes[set.active].state() = seed;
        else
            set.lanes.emplace_back(seed);
        ++set.active;
    }

    /** The lane of @p reg's geometry (panics when there is none). */
    template <typename Register>
    const HistoryLane<Register> &
    lane(const Register &reg) const
    {
        const HistoryLane<Register> *found =
            std::get<LaneSet<Register>>(lanes_).find(reg);
        panic_if(found == nullptr, "no history lane for a column");
        return *found;
    }

    /** Drop every lane (their buffers are kept for the next ones). */
    void clearLanes();

    /** Lanes tracked, of either register kind. */
    std::size_t laneCount() const;

  private:
    /** Advance every tracked lane over the chunk just classified. */
    void buildLanes();

    /** The lanes of one register kind; [0, active) are tracked. */
    template <typename Register>
    struct LaneSet
    {
        std::vector<HistoryLane<Register>> lanes;
        std::size_t active = 0;

        const HistoryLane<Register> *
        find(const Register &reg) const
        {
            for (std::size_t i = 0; i < active; ++i)
                if (lanes[i].state().sameGeometry(reg))
                    return &lanes[i];
            return nullptr;
        }
    };

    pred::ReturnAddressStack ras_;
    const trace::BranchRecord *span_ = nullptr;
    std::size_t size_ = 0;
    std::size_t predictedCount_ = 0;
    std::size_t returnCount_ = 0;
    std::vector<std::uint32_t> predicted_;    ///< predicted offsets
    std::vector<std::uint32_t> returns_;      ///< return offsets
    std::vector<std::uint32_t> returnMisses_; ///< misses in returns_[0, k)
    std::tuple<LaneSet<core::SfsxsHistory>, LaneSet<pred::ShiftHistory>>
        lanes_;
};

/** The trace-driven engine: one whole-trace ReplaySession run. */
class Engine
{
  public:
    explicit Engine(const EngineConfig &config = {});

    /**
     * Run @p predictor over @p source until exhaustion.
     * @param probes when non-null, receives the RAS and predictor
     *        probe snapshots after the replay (cold path; never read
     *        during it)
     * @param timeline when non-null and the config enables sampling,
     *        receives the run's windowed timeline
     * @return the collected metrics
     */
    RunMetrics run(trace::BranchSource &source,
                   pred::IndirectPredictor &predictor,
                   obs::ProbeRegistry *probes = nullptr,
                   obs::Timeline *timeline = nullptr);

  private:
    EngineConfig config_;
};

class ReplaySession;

/**
 * The one chunk loop: a trace replayed through a lineup of columns
 * (suite rows, lineups and ReplaySession::run()'s single column).
 * feed() cuts the trace at trace::kReplayChunk records and at absolute
 * multiples of the timeline interval, builds one ReplayPlan per chunk
 * and replays each column from its own cursor, its session's record
 * count, so a column resumed from a snapshot skips the chunks and the
 * part of a chunk it already replayed.  The plan holds one history
 * lane per distinct path-register geometry among the columns that
 * take lanes (the PPM family, Filtered-PPM and the perceptron), so a
 * row folds each history once per chunk however many columns read
 * it.  A timed row also times the plan pass and each column's replay.
 */
class ReplayRow
{
  public:
    /** Whether feed() reads the clocks for the accessors below. */
    enum class Timing : bool
    {
        Off,
        On,
    };

    /** A row at record 0 with an empty RAS and no columns. */
    explicit ReplayRow(const EngineConfig &config = {},
                       Timing timing = Timing::Off)
        : window_(config.timeline.interval), timing_(timing)
    {
    }

    /**
     * Drop every column and lane and continue at record @p position
     * with an empty RAS (see ras()); the plan keeps its buffers.
     */
    void restart(std::uint64_t position);

    /**
     * Add a column replaying @p predictor into @p session (configured
     * like the row) from the session's record count on, which must be
     * at least position().  Both must outlive the row.  Columns are
     * numbered in the order they are added.  A column whose predictor
     * takes lanes adds any lane its registers lack, seeded from them
     * when the column starts at position() and cold otherwise (which
     * needs a row at record 0).
     */
    void addColumn(pred::IndirectPredictor &predictor,
                   ReplaySession &session);

    /** Replay the trace's next @p n records through every column. */
    void feed(const trace::BranchRecord *span, std::size_t n);

    /** Close every column's final partial timeline window. */
    void finish();

    /** Records of the trace fed so far, counted from record 0. */
    std::uint64_t position() const { return position_; }

    /** The RAS after the records fed so far. */
    pred::ReturnAddressStack &ras() { return plan_.ras(); }

    /** The plan of the last chunk fed (and the row's lanes). */
    const ReplayPlan &plan() const { return plan_; }

    /** Wall seconds spent building plans (timed rows). */
    double planSeconds() const { return planSeconds_; }

    /** Wall and thread-CPU seconds column @p c spent replaying (timed
     *  rows). */
    double wallSeconds(std::size_t c) const { return columns_[c].wall; }
    double cpuSeconds(std::size_t c) const { return columns_[c].cpu; }

  private:
    struct Column
    {
        pred::IndirectPredictor *predictor;
        ReplaySession *session;
        double wall = 0;
        double cpu = 0;
    };

    std::uint64_t window_; ///< timeline interval, 0 when sampling is off
    Timing timing_;
    std::uint64_t position_ = 0;
    ReplayPlan plan_;
    std::vector<Column> columns_;
    double planSeconds_ = 0;
};

/**
 * The replay core: the engine state that persists across spans — the
 * RAS, the accumulated metrics and the timeline sampler — held as an
 * object, so a replay can be fed in pieces, stop between records,
 * serialize itself, and continue (possibly in a different process).
 *
 * Every replay goes through one loop over a ReplayPlan, dispatched once
 * per feed() to an instantiation templated on the concrete predictor
 * type.  The plans come from a ReplayRow: a suite row's or a lineup's,
 * shared by every column, or the one-column row run() drives.  Feeding
 * a trace in spans of any size is bit-identical to feeding it whole:
 * the loop carries no cross-span state beyond the RAS, metrics and
 * predictor.  Checkpoints land between full records — nothing stops
 * mid-record — which is what makes the predictors' transient
 * predict->update slots serializable.
 */
class ReplaySession
{
  public:
    /** No record limit: replay until the source is exhausted. */
    static constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};

    explicit ReplaySession(const EngineConfig &config = {});

    /**
     * Replay up to @p limit records from @p source (kNoLimit = until
     * exhaustion) with @p predictor, accumulating into this session's
     * metrics: one nextSpan() run at a time through an untimed
     * one-column ReplayRow that starts at this session's record count,
     * RAS and predictor registers.  The row is the session's own and
     * is restarted by every call, so a bounded run allocates nothing
     * once the row's buffers have grown.
     * Reaching the end of the source calls finish().
     * @return records consumed by this call; less than @p limit means
     *         the source is exhausted.
     */
    std::uint64_t run(trace::BranchSource &source,
                      pred::IndirectPredictor &predictor,
                      std::uint64_t limit = kNoLimit);

    /**
     * Replay @p plan's records [from, plan.size()) through
     * @p predictor, then take the plan's RAS state and the suffix's
     * return outcomes.  The plan must have been built from the RAS
     * state this session holds at record @p from (a row's plan is, for
     * every column of the row), and must not cross a timeline boundary
     * except at its end.
     */
    void feed(const ReplayPlan &plan, std::size_t from,
              pred::IndirectPredictor &predictor);

    /**
     * Close the final partial timeline window once the trace is done
     * (a no-op when sampling is off or nothing is pending).
     */
    void finish(const pred::IndirectPredictor &predictor);

    /** Metrics accumulated so far. */
    const RunMetrics &metrics() const { return metrics_; }

    /** RAS + predictor probe snapshots (Engine::run()'s cold path). */
    void snapshotProbes(obs::ProbeRegistry &registry,
                        const pred::IndirectPredictor &predictor) const;

    /**
     * The timeline sampled so far (empty when the config disables
     * sampling).  After a run to exhaustion, or finish(), this is the
     * complete series.
     */
    const obs::Timeline &timeline() const
    {
        return sampler_.timeline();
    }

    /** Move the sampled timeline out (the sampler resets empty). */
    obs::Timeline takeTimeline() { return sampler_.takeTimeline(); }

    /**
     * Serialize the engine-side state (metrics + RAS ring, plus the
     * timeline sampler when the config enables sampling — keeping the
     * timeline-off byte layout identical to pre-timeline sessions).
     */
    void saveState(util::StateWriter &writer) const;

    /** Restore a saved session of the same configuration. */
    void loadState(util::StateReader &reader);

    /** RAS probe counters (fixed-width). */
    void saveProbes(util::StateWriter &writer) const;
    void loadProbes(util::StateReader &reader);

  private:
    /** Close the timeline window ending at the current position. */
    void sampleTimeline(const pred::IndirectPredictor &predictor);

    EngineConfig config_;
    pred::ReturnAddressStack ras_;
    RunMetrics metrics_;
    obs::TimelineSampler sampler_;
    /** run()'s one-column row: scratch, restarted by every call. */
    ReplayRow standalone_;
};

} // namespace ibp::sim

#endif // IBP_SIM_ENGINE_HH_
