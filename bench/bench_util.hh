/**
 * @file
 * Shared helpers for the table/figure-regenerating bench binaries.
 *
 * Every bench accepts an optional trace-scale argument (argv[1] or the
 * IBP_TRACE_SCALE environment variable, default 1.0) multiplying each
 * profile's record count, so quick smoke runs and full-fidelity runs
 * use the same binaries; and an optional thread-count argument
 * (argv[2] or IBP_THREADS, default 0 = hardware concurrency) selecting
 * the suite runner's worker count.  Thread count never changes any
 * figure or table number — only the wall-clock footer.
 */

#ifndef IBP_BENCH_BENCH_UTIL_HH_
#define IBP_BENCH_BENCH_UTIL_HH_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/thread_pool.hh"
#include "obs/report.hh"
#include "obs/trace_event.hh"
#include "sim/experiment.hh"

namespace ibp::bench {

/** Default timeline window when --timeline= is given alone. */
inline constexpr std::uint64_t kDefaultTimelineInterval = 100000;

/**
 * Where this driver writes its Perfetto trace ("" = no export).  Set
 * by suiteOptions() from --timeline=/IBP_TIMELINE; read back by
 * writeTimelineTrace().
 */
inline std::string &
timelineTracePath()
{
    static std::string path;
    return path;
}

/** Resolve the trace scale from argv/environment. */
inline double
traceScale(int argc, char **argv, double fallback = 1.0)
{
    if (argc > 1)
        return std::atof(argv[1]);
    if (const char *env = std::getenv("IBP_TRACE_SCALE"))
        return std::atof(env);
    return fallback;
}

/**
 * Resolve the suite worker count from argv/environment.
 * 0 = hardware concurrency, 1 = a single worker.
 */
inline unsigned
threadCount(int argc, char **argv, unsigned fallback = 0)
{
    const char *text = nullptr;
    if (argc > 2)
        text = argv[2];
    else if (const char *env = std::getenv("IBP_THREADS"))
        text = env;
    if (!text)
        return fallback;
    // Negative or unparsable input degrades to 0 (hardware concurrency);
    // the cap keeps a fat-fingered count from exhausting thread handles.
    const long value = std::strtol(text, nullptr, 10);
    if (value <= 0)
        return 0;
    return static_cast<unsigned>(std::min(value, 1024L));
}

/** Reject an unknown flag: print the usage line and exit(2). */
[[noreturn]] inline void
badArgument(const char *program, const std::string &arg)
{
    std::fprintf(stderr,
                 "%s: unknown option '%s'\n"
                 "usage: %s [scale] [threads] [--checkpoint=<path>] "
                 "[--checkpoint-every=<n>] [--resume] "
                 "[--timeline=<path>] [--timeline-interval=<n>]\n",
                 program, arg.c_str(), program);
    std::exit(2);
}

/**
 * Build SuiteOptions from the standard bench argv conventions.
 *
 * Positional arguments are trace scale then thread count, as always.
 * Checkpoint/resume is controlled by flags (anywhere on the command
 * line) with environment fallbacks:
 *   --checkpoint=<path>      (IBP_CHECKPOINT)    progress-file path
 *   --checkpoint-every=<n>   (IBP_CHECKPOINT_EVERY)  mid-row cadence
 *   --resume                 (IBP_RESUME=1)      resume from the file
 * An interrupted run restarted with the same path and --resume skips
 * every finished cell and produces a report that `report_tool --diff`
 * finds identical to an uninterrupted run's.
 *
 * Timeline tracing (see obs/timeline.hh):
 *   --timeline=<path>        (IBP_TIMELINE)  export a Perfetto trace
 *                            to <path> and enable sampling (at the
 *                            default interval unless overridden)
 *   --timeline-interval=<n>  (IBP_TIMELINE_INTERVAL)  records per
 *                            window; sampling on without any export
 * Sampling never changes a figure/table number — windows close at
 * record-count boundaries the replay already honours (span-size
 * invariance) — it only adds the timeline section to the run report
 * and, with a path, the exported trace.
 *
 * Any other argument starting with "--" is a typo, not a positional:
 * it prints the usage line and exits with status 2.
 */
inline ibp::sim::SuiteOptions
suiteOptions(int argc, char **argv, double scale_fallback = 1.0)
{
    ibp::sim::SuiteOptions options;

    if (const char *env = std::getenv("IBP_CHECKPOINT"))
        options.checkpointPath = env;
    if (const char *env = std::getenv("IBP_CHECKPOINT_EVERY"))
        options.checkpointEvery = std::strtoull(env, nullptr, 10);
    if (const char *env = std::getenv("IBP_RESUME"))
        options.resume = std::string(env) != "0";
    if (const char *env = std::getenv("IBP_TIMELINE"))
        timelineTracePath() = env;
    if (const char *env = std::getenv("IBP_TIMELINE_INTERVAL"))
        options.engine.timeline.interval =
            std::strtoull(env, nullptr, 10);

    // Split flags from positionals so `bench --resume 0.1` and
    // `bench 0.1 --resume` both work.
    std::vector<char *> positional = {argc > 0 ? argv[0] : nullptr};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--checkpoint=", 0) == 0)
            options.checkpointPath =
                arg.substr(std::string("--checkpoint=").size());
        else if (arg.rfind("--checkpoint-every=", 0) == 0)
            options.checkpointEvery = std::strtoull(
                arg.c_str() + std::string("--checkpoint-every=").size(),
                nullptr, 10);
        else if (arg == "--resume")
            options.resume = true;
        else if (arg.rfind("--timeline=", 0) == 0)
            timelineTracePath() =
                arg.substr(std::string("--timeline=").size());
        else if (arg.rfind("--timeline-interval=", 0) == 0)
            options.engine.timeline.interval = std::strtoull(
                arg.c_str() + std::string("--timeline-interval=").size(),
                nullptr, 10);
        else if (arg.rfind("--", 0) == 0)
            badArgument(argc > 0 ? argv[0] : "bench", arg);
        else
            positional.push_back(argv[i]);
    }
    if (!timelineTracePath().empty()) {
        if (options.engine.timeline.interval == 0)
            options.engine.timeline.interval = kDefaultTimelineInterval;
        ibp::obs::globalTraceLog().setEnabled(true);
    }
    const int pos_argc = static_cast<int>(positional.size());
    options.traceScale =
        traceScale(pos_argc, positional.data(), scale_fallback);
    options.threads = threadCount(pos_argc, positional.data());
    return options;
}

/** Print a banner line for a bench. */
inline void
banner(const std::string &what, double scale)
{
    std::printf("=== %s (trace scale %.2f) ===\n", what.c_str(), scale);
}

/** Banner variant that also reports the resolved worker count. */
inline void
banner(const std::string &what, const ibp::sim::SuiteOptions &options)
{
    std::printf("=== %s (trace scale %.2f, %u threads) ===\n",
                what.c_str(), options.traceScale,
                ibp::util::ThreadPool::resolveThreads(options.threads));
}

/** Print the suite wall-clock / speedup footer to stdout. */
inline void
timingFooter(const ibp::sim::SuiteTiming &timing)
{
    if (timing.threadsUsed <= 1) {
        std::printf("wall-clock  %.2f s (serial path)\n",
                    timing.wallSeconds);
        return;
    }
    std::printf("wall-clock  %.2f s on %u threads "
                "(serial-equivalent %.2f s, speedup %.1fx)\n",
                timing.wallSeconds, timing.threadsUsed,
                timing.serialEquivalentSeconds, timing.speedup());
}

/**
 * Write the driver's machine-readable run report.  The path comes
 * from the IBP_REPORT environment variable when set ("off" disables
 * emission); the default is ibp_report.json in the CWD.  Diff two of
 * these with `report_tool --diff`.
 */
inline void
writeRunReport(const ibp::obs::RunReport &report)
{
    std::string path = "ibp_report.json";
    if (const char *env = std::getenv("IBP_REPORT"))
        path = env;
    if (path.empty() || path == "off")
        return;
    ibp::obs::writeReportFile(path, report);
    std::printf("report: %s\n", path.c_str());
}

/**
 * Export the Perfetto trace requested by --timeline=/IBP_TIMELINE:
 * the global log's wall-clock spans plus one branch-time process per
 * report timeline cell.  No-op when no path was requested.
 */
inline void
writeTimelineTrace(const ibp::obs::RunReport &report)
{
    const std::string &path = timelineTracePath();
    if (path.empty())
        return;
    std::vector<ibp::obs::TraceEvent> events =
        ibp::obs::globalTraceLog().snapshot();
    std::uint64_t pid = ibp::obs::kTimelinePidBase;
    for (const auto &entry : report.timelines)
        ibp::obs::appendTimelineEvents(
            entry.timeline, entry.row + " x " + entry.predictor, pid++,
            events);
    ibp::obs::writeTraceEventsFile(path, events);
    std::printf("timeline trace: %s (%zu events, %zu cells)\n",
                path.c_str(), events.size(), report.timelines.size());
}

/** Print one paper-vs-measured comparison row. */
inline void
paperVsMeasured(const std::string &label, double paper, double measured)
{
    if (paper >= 0)
        std::printf("%-18s paper %6.2f%%   measured %6.2f%%\n",
                    label.c_str(), paper, measured);
    else
        std::printf("%-18s paper   n/a    measured %6.2f%%\n",
                    label.c_str(), measured);
}

} // namespace ibp::bench

#endif // IBP_BENCH_BENCH_UTIL_HH_
