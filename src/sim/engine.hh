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

#include "trace/trace_buffer.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"
#include "predictors/predictor.hh"
#include "predictors/ras.hh"
#include "sim/metrics.hh"

namespace ibp::sim {

/** Engine options. */
struct EngineConfig
{
    bool useRas = true;        ///< predict returns with a RAS
    std::size_t rasDepth = 16;
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

/**
 * The replay core: the engine state that persists across spans — the
 * RAS, the accumulated metrics and the timeline sampler — held as an
 * object, so a replay can be fed in pieces, stop between records,
 * serialize itself, and continue (possibly in a different process).
 *
 * Every replay goes through feed(), which dispatches once per span to
 * a loop templated on the concrete predictor type.  Feeding a trace in
 * spans of any size is bit-identical to feeding it whole: the loop
 * carries no cross-span state beyond the RAS, metrics and predictor.
 * Checkpoints land between full records — nothing stops mid-record —
 * which is what makes the predictors' transient predict->update slots
 * serializable.
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
     * metrics.  Unbounded runs read zero-copy spans; bounded runs read
     * batches clamped to the limit.  Reaching the end of the source
     * calls finish().
     * @return records consumed by this call; less than @p limit means
     *         the source is exhausted.
     */
    std::uint64_t run(trace::BranchSource &source,
                      pred::IndirectPredictor &predictor,
                      std::uint64_t limit = kNoLimit);

    /**
     * Replay @p n records through @p predictor, closing a timeline
     * window at every sampling boundary inside the span.
     */
    void feed(const trace::BranchRecord *span, std::size_t n,
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
};

} // namespace ibp::sim

#endif // IBP_SIM_ENGINE_HH_
