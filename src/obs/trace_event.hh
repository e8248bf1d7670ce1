/**
 * @file
 * Chrome trace-event collection and export ("ibp-trace-v1"): the
 * wall-clock half of the timeline layer.
 *
 * A TraceEventLog accumulates Chrome trace-event records — duration
 * spans ('X'), counter samples ('C'), instants ('i') and track
 * metadata ('M') — and writes them as trace-event JSON loadable in
 * Perfetto or chrome://tracing.  Two kinds of tracks share one file:
 *
 *  - wall-clock thread tracks (pid kWallPid): suite-cell and phase
 *    spans stamped with obs::wallSeconds()/threadCpuSeconds(), the
 *    only sanctioned clocks.  These are observability-only and never
 *    deterministic;
 *  - branch-time process tracks (pid >= kTimelinePidBase): counter
 *    curves and milestone instants derived from deterministic
 *    obs::Timeline windows, with "microseconds" reinterpreted as
 *    branch counts so the x axis is reproducible bit for bit.
 *
 * The process-global log is disabled by default; every recording call
 * is a single relaxed atomic load away from a no-op, so an untraced
 * run pays nothing (the probe discipline).  Recording is mutex-
 * serialized — spans are emitted per suite cell, not per record.
 */

#ifndef IBP_OBS_TRACE_EVENT_HH_
#define IBP_OBS_TRACE_EVENT_HH_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/timeline.hh"

namespace ibp::obs {

/** Schema tag written into every exported trace file. */
inline constexpr const char *kTraceSchema = "ibp-trace-v1";

/** Process id of the wall-clock thread tracks. */
inline constexpr std::uint64_t kWallPid = 1;

/** First process id handed to branch-time timeline tracks. */
inline constexpr std::uint64_t kTimelinePidBase = 1000;

/** One Chrome trace event. */
struct TraceEvent
{
    char phase = 'X'; ///< 'X' complete, 'C' counter, 'i' instant, 'M' meta
    std::string name;
    std::string category;
    std::uint64_t pid = kWallPid;
    std::uint64_t tid = 0;
    double timestampMicros = 0;
    double durationMicros = 0; ///< 'X' only
    /** args object: numbers first, then strings (both optional). */
    std::vector<std::pair<std::string, double>> numberArgs;
    std::vector<std::pair<std::string, std::string>> stringArgs;
};

/** A stable small id for the calling thread (first-use order). */
std::uint64_t threadTrackId();

/** Thread-safe trace-event accumulator. */
class TraceEventLog
{
  public:
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Append @p event; dropped silently when disabled. */
    void add(TraceEvent event);

    /**
     * Record a completed wall-clock span on the calling thread's
     * track.  @p begin_seconds / @p end_seconds are
     * obs::wallSeconds() readings; @p number_args become the span's
     * args.
     */
    void completeEvent(
        const std::string &name, const std::string &category,
        double begin_seconds, double end_seconds,
        std::vector<std::pair<std::string, double>> number_args = {});

    /** Copy out everything recorded so far. */
    std::vector<TraceEvent> snapshot() const;

    void clear();

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_; // ibp-lint: guarded_by(mutex_)
};

/** The process-global log the suite runner and drivers record into. */
TraceEventLog &globalTraceLog();

/**
 * RAII span against the global log.  Enabled-ness is latched at
 * construction, so a span never straddles an enable/disable edge.
 */
class ScopedTraceSpan
{
  public:
    ScopedTraceSpan(std::string name, std::string category);
    ScopedTraceSpan(const ScopedTraceSpan &) = delete;
    ScopedTraceSpan &operator=(const ScopedTraceSpan &) = delete;
    ~ScopedTraceSpan();

    /** Attach a numeric arg to the span when it closes. */
    void addNumber(std::string key, double value);

  private:
    std::string name_;
    std::string category_;
    std::vector<std::pair<std::string, double>> numberArgs_;
    double beginSeconds_ = 0;
    bool active_ = false;
};

/**
 * Convert one deterministic timeline into branch-time trace events on
 * process @p pid: a process_name metadata record (@p process_name),
 * per-window miss%% / no-prediction%% / predictions counter tracks,
 * one counter track per sampled probe counter (window deltas), and an
 * instant event per derived milestone.  Timestamps are the window
 * close record counts, so the exported events are as reproducible as
 * the timeline itself.
 */
void appendTimelineEvents(const Timeline &timeline,
                          const std::string &process_name,
                          std::uint64_t pid,
                          std::vector<TraceEvent> &events);

/**
 * Write @p events as "ibp-trace-v1" Chrome trace-event JSON.
 * Wall-clock events (pid kWallPid) are re-based so the earliest one
 * starts at t=0; branch-time events keep their record-count
 * timestamps untouched.
 */
void writeTraceEvents(std::ostream &out,
                      const std::vector<TraceEvent> &events);

/** writeTraceEvents() to @p path; fatal() when unwritable. */
void writeTraceEventsFile(const std::string &path,
                          const std::vector<TraceEvent> &events);

} // namespace ibp::obs

#endif // IBP_OBS_TRACE_EVENT_HH_
