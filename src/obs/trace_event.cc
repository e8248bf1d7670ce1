#include "obs/trace_event.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <set>

#include "util/json.hh"
#include "util/logging.hh"
#include "obs/cputime.hh"

namespace ibp::obs {

std::uint64_t
threadTrackId()
{
    static std::atomic<std::uint64_t> next{1};
    thread_local std::uint64_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
TraceEventLog::add(TraceEvent event)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
TraceEventLog::completeEvent(
    const std::string &name, const std::string &category,
    double begin_seconds, double end_seconds,
    std::vector<std::pair<std::string, double>> number_args)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.phase = 'X';
    event.name = name;
    event.category = category;
    event.pid = kWallPid;
    event.tid = threadTrackId();
    event.timestampMicros = begin_seconds * 1e6;
    event.durationMicros = (end_seconds - begin_seconds) * 1e6;
    event.numberArgs = std::move(number_args);
    add(std::move(event));
}

std::vector<TraceEvent>
TraceEventLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

void
TraceEventLog::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

TraceEventLog &
globalTraceLog()
{
    static TraceEventLog log;
    return log;
}

ScopedTraceSpan::ScopedTraceSpan(std::string name, std::string category)
    : name_(std::move(name)), category_(std::move(category)),
      active_(globalTraceLog().enabled())
{
    if (active_)
        beginSeconds_ = wallSeconds();
}

ScopedTraceSpan::~ScopedTraceSpan()
{
    if (active_)
        globalTraceLog().completeEvent(name_, category_, beginSeconds_,
                                       wallSeconds(),
                                       std::move(numberArgs_));
}

void
ScopedTraceSpan::addNumber(std::string key, double value)
{
    if (active_)
        numberArgs_.emplace_back(std::move(key), value);
}

// --- timeline -> events -----------------------------------------------

namespace {

TraceEvent
metadataEvent(std::uint64_t pid, std::uint64_t tid,
              const std::string &what, const std::string &value)
{
    TraceEvent event;
    event.phase = 'M';
    event.name = what;
    event.pid = pid;
    event.tid = tid;
    event.stringArgs.emplace_back("name", value);
    return event;
}

TraceEvent
counterEvent(std::uint64_t pid, const std::string &track,
             std::uint64_t branch, const std::string &series,
             double value)
{
    TraceEvent event;
    event.phase = 'C';
    event.name = track;
    event.category = "timeline";
    event.pid = pid;
    event.tid = 0;
    event.timestampMicros = static_cast<double>(branch);
    event.numberArgs.emplace_back(series, value);
    return event;
}

} // namespace

void
appendTimelineEvents(const Timeline &timeline,
                     const std::string &process_name, std::uint64_t pid,
                     std::vector<TraceEvent> &events)
{
    events.push_back(
        metadataEvent(pid, 0, "process_name", process_name));

    // Counter tracks get a t=0 zero so Perfetto draws the ramp from
    // the origin instead of starting mid-air at the first window.
    events.push_back(counterEvent(pid, "miss %", 0, "miss", 0));
    events.push_back(
        counterEvent(pid, "no-prediction %", 0, "no_prediction", 0));
    events.push_back(
        counterEvent(pid, "predictions/window", 0, "predictions", 0));

    std::set<std::string> counter_names;
    for (const TimelineWindow &window : timeline.windows())
        for (const auto &[name, value] : window.counters) {
            (void)value;
            counter_names.insert(name);
        }
    for (const std::string &name : counter_names)
        events.push_back(counterEvent(pid, name, 0, "delta", 0));

    std::map<std::string, std::uint64_t> previous;
    for (const TimelineWindow &window : timeline.windows()) {
        events.push_back(counterEvent(pid, "miss %", window.endBranch,
                                      "miss", window.missPercent()));
        events.push_back(counterEvent(
            pid, "no-prediction %", window.endBranch, "no_prediction",
            window.noPredictionPercent()));
        events.push_back(counterEvent(
            pid, "predictions/window", window.endBranch, "predictions",
            static_cast<double>(window.predictions)));
        for (const auto &[name, value] : window.counters) {
            std::uint64_t &last = previous[name];
            const std::uint64_t delta =
                value >= last ? value - last : 0;
            events.push_back(
                counterEvent(pid, name, window.endBranch, "delta",
                             static_cast<double>(delta)));
            last = value;
        }
    }

    for (const TimelineMilestone &milestone :
         timelineMilestones(timeline)) {
        TraceEvent event;
        event.phase = 'i';
        event.name = milestone.kind + " " + milestone.counter;
        event.category = "milestone";
        event.pid = pid;
        event.tid = 0;
        event.timestampMicros = static_cast<double>(milestone.branch);
        event.numberArgs.emplace_back(
            "value", static_cast<double>(milestone.value));
        events.push_back(std::move(event));
    }

    const TimelineSegmentation seg = segmentTimeline(timeline);
    if (seg.hasChangePoint &&
        seg.steadyStart < timeline.windows().size()) {
        TraceEvent event;
        event.phase = 'i';
        event.name = "steady state";
        event.category = "milestone";
        event.pid = pid;
        event.tid = 0;
        event.timestampMicros = static_cast<double>(
            timeline.windows()[seg.steadyStart].endBranch);
        event.numberArgs.emplace_back("warmup_miss_percent",
                                      seg.warmupMissPercent);
        event.numberArgs.emplace_back("steady_miss_percent",
                                      seg.steadyMissPercent);
        events.push_back(std::move(event));
    }
}

// --- JSON export ------------------------------------------------------

void
writeTraceEvents(std::ostream &out,
                 const std::vector<TraceEvent> &events)
{
    // Re-base the wall-clock tracks only: branch-time timestamps are
    // already anchored at record 0 and must survive byte-identically.
    double wall_base = std::numeric_limits<double>::infinity();
    for (const TraceEvent &event : events)
        if (event.pid == kWallPid && event.phase != 'M')
            wall_base = std::min(wall_base, event.timestampMicros);
    if (!std::isfinite(wall_base))
        wall_base = 0;

    util::JsonWriter json(out);
    json.beginObject();
    json.key("ibp_schema").value(kTraceSchema);
    json.key("displayTimeUnit").value("ms");
    json.key("traceEvents").beginArray();
    for (const TraceEvent &event : events) {
        json.beginObject();
        json.key("ph").value(std::string(1, event.phase));
        json.key("name").value(event.name);
        if (!event.category.empty())
            json.key("cat").value(event.category);
        json.key("pid").value(event.pid);
        json.key("tid").value(event.tid);
        if (event.phase != 'M') {
            double ts = event.timestampMicros;
            if (event.pid == kWallPid)
                ts -= wall_base;
            json.key("ts").value(ts);
        }
        if (event.phase == 'X')
            json.key("dur").value(event.durationMicros);
        if (event.phase == 'i')
            json.key("s").value("p"); // process-scoped instant
        if (!event.numberArgs.empty() || !event.stringArgs.empty()) {
            json.key("args").beginObject();
            for (const auto &[name, value] : event.numberArgs)
                json.key(name).value(value);
            for (const auto &[name, value] : event.stringArgs)
                json.key(name).value(value);
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    out << '\n';
}

void
writeTraceEventsFile(const std::string &path,
                     const std::vector<TraceEvent> &events)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot open trace file ", path, " for writing");
    writeTraceEvents(out, events);
    fatal_if(!out.good(), "error writing trace file ", path);
}

} // namespace ibp::obs
