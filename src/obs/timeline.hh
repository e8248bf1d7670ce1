/**
 * @file
 * Deterministic timelines: windowed samples of a replay's metrics and
 * probe counters at a fixed branch-count cadence.
 *
 * Timelines answer "how did this predictor converge?" where the run
 * report's end-of-run aggregates answer "where did it end up?".  The
 * cadence is a *record count*, never a wall clock, so a timeline is a
 * pure function of (trace, predictor, interval): bit-identical across
 * thread counts, chunk sizes, reruns, and checkpoint/resume — the same
 * discipline that makes one-pass suite replay exact.  Wall-clock
 * spans exist too, but they live in the trace-event log
 * (obs/trace_event.hh) and never feed a gating comparison.
 *
 * The write side is a TimelineSampler owned by the replay machinery
 * (sim::ReplaySession); this layer never sees
 * simulator types — samples arrive as plain cumulative counts, keeping
 * the obs < sim layering intact.  A disabled sampler (interval 0) is a
 * single predictable branch on the replay path: the probe zero-cost
 * discipline.
 */

#ifndef IBP_OBS_TIMELINE_HH_
#define IBP_OBS_TIMELINE_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/serde.hh"
#include "obs/registry.hh"

namespace ibp::obs {

/** Sampling configuration carried by the engine config. */
struct TimelineConfig
{
    /** Records per window; 0 disables sampling entirely. */
    std::uint64_t interval = 0;

    /** Snapshot the probe registry at each window boundary (cumulative
     *  counter values per window; histograms are not sampled). */
    bool sampleProbes = true;

    bool enabled() const { return interval > 0; }
};

/** Cumulative replay counts at one instant (a window boundary). */
struct TimelineSample
{
    std::uint64_t branches = 0;      ///< records consumed
    std::uint64_t predictions = 0;   ///< MT-indirect predictions made
    std::uint64_t misses = 0;        ///< MT-indirect mispredictions
    std::uint64_t noPredictions = 0; ///< abstentions
};

/** One window of a timeline: deltas over [endBranch - n, endBranch). */
struct TimelineWindow
{
    std::uint64_t endBranch = 0;     ///< cumulative records at close
    std::uint64_t predictions = 0;   ///< within this window
    std::uint64_t misses = 0;
    std::uint64_t noPredictions = 0;

    /**
     * Cumulative probe counter values at the window close (ordered, so
     * serialization is canonical).  Empty when probe sampling is off.
     */
    std::map<std::string, std::uint64_t> counters;

    /** Window misprediction ratio in percent (0 when idle). */
    double
    missPercent() const
    {
        return predictions == 0 ? 0.0
                                : 100.0 * static_cast<double>(misses) /
                                      static_cast<double>(predictions);
    }

    double
    noPredictionPercent() const
    {
        return predictions == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(noPredictions) /
                         static_cast<double>(predictions);
    }
};

/** A finished (or in-progress) windowed time series. */
class Timeline
{
  public:
    std::uint64_t interval() const { return interval_; }
    void setInterval(std::uint64_t interval) { interval_ = interval; }

    const std::vector<TimelineWindow> &windows() const
    {
        return windows_;
    }

    void
    append(TimelineWindow window)
    {
        windows_.push_back(std::move(window));
    }

    bool empty() const { return windows_.empty(); }

    /** Total records covered (last window close; 0 when empty). */
    std::uint64_t
    endBranch() const
    {
        return windows_.empty() ? 0 : windows_.back().endBranch;
    }

    /** Per-window miss percentages, in order. */
    std::vector<double> missCurve() const;

    /** Per-window prediction counts (the natural curve weights). */
    std::vector<std::uint64_t> predictionWeights() const;

    /**
     * Serialize.  Windows and their counter maps are ordered, so equal
     * timelines encode to equal bytes regardless of how they were
     * produced — the basis of the cross-thread-count and
     * straight-vs-resumed byte-identity tests.
     */
    void saveState(util::StateWriter &writer) const;

    /** Replace this timeline with a saved one. */
    void loadState(util::StateReader &reader);

  private:
    std::uint64_t interval_ = 0;
    std::vector<TimelineWindow> windows_;
};

/**
 * The write side: owns the boundary arithmetic and the delta
 * bookkeeping.  The replay driver stops at nextBoundary() multiples
 * and calls sample() with its cumulative counts; sample() is
 * idempotent at an unchanged position, so a final flush after source
 * exhaustion can never double-count.
 */
class TimelineSampler
{
  public:
    TimelineSampler() = default;

    explicit TimelineSampler(const TimelineConfig &config)
        : config_(config)
    {
        timeline_.setInterval(config.interval);
    }

    bool enabled() const { return config_.enabled(); }
    const TimelineConfig &config() const { return config_; }

    /**
     * The next record count a replay should stop at: the smallest
     * multiple of the interval strictly greater than @p position.
     */
    std::uint64_t
    nextBoundary(std::uint64_t position) const
    {
        return (position / config_.interval + 1) * config_.interval;
    }

    /**
     * Close the window ending at @p cumulative.  A no-op when nothing
     * was consumed since the last sample.  @p probes, when non-null,
     * contributes cumulative counter values to the window.
     */
    void sample(const TimelineSample &cumulative,
                const ProbeRegistry *probes);

    const Timeline &timeline() const { return timeline_; }

    /** Move the collected timeline out (the sampler resets empty). */
    Timeline takeTimeline();

    /**
     * Serialize mid-run sampler state (the closed windows plus the
     * last boundary's cumulative counts), so a resumed replay
     * continues its partially filled window exactly where the
     * interrupted run left it.
     */
    void saveState(util::StateWriter &writer) const;
    void loadState(util::StateReader &reader);

  private:
    TimelineConfig config_;
    Timeline timeline_;
    TimelineSample last_;
};

/**
 * Warmup/steady-state segmentation of a windowed miss curve: the best
 * two-segment piecewise-constant (weighted least-squares) fit, kept
 * only when it explains materially more variance than a single mean.
 */
struct TimelineSegmentation
{
    bool hasChangePoint = false;
    /** First steady-state window index (0 when no change point). */
    std::size_t steadyStart = 0;
    double warmupMissPercent = 0; ///< weighted mean over the warmup
    double steadyMissPercent = 0; ///< weighted mean over the rest
    double overallMissPercent = 0;
};

/**
 * Segment @p miss_percents (one value per window) weighted by
 * @p weights (prediction counts; empty = uniform).  Deterministic:
 * pure double arithmetic in index order, ties broken toward the
 * earliest change point.
 */
TimelineSegmentation
segmentMissCurve(const std::vector<double> &miss_percents,
                 const std::vector<std::uint64_t> &weights = {});

/** segmentMissCurve() over a timeline's own curve and weights. */
TimelineSegmentation segmentTimeline(const Timeline &timeline);

/** A notable event derived from a timeline's counter series. */
struct TimelineMilestone
{
    std::uint64_t branch = 0; ///< close of the window it fired in
    std::string kind;         ///< "first" or "burst"
    std::string counter;      ///< probe counter name
    std::uint64_t value = 0;  ///< the window's delta for that counter
};

/**
 * Derive milestones from the sampled counters: the first window where
 * an eviction/overflow/underflow/flip/reset counter becomes non-zero,
 * and the first window where such a counter's delta exceeds 4x its
 * trailing per-window average (a "burst", e.g. a selector flip storm
 * at a phase change).  Purely a function of the timeline, so the
 * derived instants are as deterministic as the windows themselves.
 */
std::vector<TimelineMilestone>
timelineMilestones(const Timeline &timeline);

/**
 * Render @p values as a unicode sparkline (one block glyph per value,
 * scaled to the series min/max).  Used by `timeline_tool --sparkline`.
 */
std::string sparkline(const std::vector<double> &values);

} // namespace ibp::obs

#endif // IBP_OBS_TIMELINE_HH_
