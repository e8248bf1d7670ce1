/**
 * @file
 * Versioned machine-readable run reports (ibp_report.json).
 *
 * A RunReport captures everything one figure/table driver produced:
 * the suite matrix (accuracy + per-cell replay cost), optional seed
 * sweeps, free-form named scalars, per-predictor probe registries,
 * phase timers, and build/run metadata (compiler, flags, git sha,
 * whether probes were compiled in).  The schema is versioned
 * ("ibp-report-v1"); readers reject documents with a different major
 * schema so CI diffs never silently compare incompatible shapes.
 *
 * diffReports() is the comparison engine behind `ibp report --diff`:
 * accuracy deltas gate (tolerance in misprediction percentage points,
 * prediction-count mismatches always gate), while timing and probe
 * deltas are reported informationally — shared CI runners are too
 * noisy for hard wall-clock thresholds.
 */

#ifndef IBP_OBS_REPORT_HH_
#define IBP_OBS_REPORT_HH_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/phase_timer.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"

namespace ibp::obs {

inline constexpr const char *kReportSchema = "ibp-report-v1";

/** Compile-environment metadata stamped into every report. */
struct BuildInfo
{
    std::string compiler;  ///< "gcc 12.2.0", "clang 16.0.6", ...
    std::string buildType; ///< CMAKE_BUILD_TYPE
    std::string flags;     ///< compile flags summary
    std::string gitSha;    ///< HEAD at configure time ("unknown" if none)
    bool instrumented = util::kInstrumentEnabled;

    /** The values baked into this binary. */
    static BuildInfo current();
};

/** One (benchmark row, predictor column) suite cell. */
struct ReportCell
{
    std::string row;
    std::string predictor;
    double missPercent = 0;
    double noPredictionPercent = 0;
    std::uint64_t predictions = 0;
    double wallSeconds = 0; ///< replay wall time of this cell
    double cpuSeconds = 0;  ///< thread-CPU time incl. trace generation
};

/** One predictor column of a seed-sweep (robustness) report. */
struct ReportSweepColumn
{
    std::string predictor;
    double mean = 0;
    double stddev = 0;
};

/** One cell's windowed timeline embedded in a report. */
struct ReportTimeline
{
    std::string row;
    std::string predictor;
    Timeline timeline;
    /** Warmup/steady split, recomputed from the windows on read. */
    TimelineSegmentation segmentation;
};

/** Everything one driver run emits. */
struct RunReport
{
    std::string schema = kReportSchema;
    std::string tool; ///< emitting binary ("bench_fig6", ...)
    BuildInfo build;

    double traceScale = 1.0;
    unsigned threads = 0; ///< requested (0 = hardware concurrency)

    double wallSeconds = 0;
    double serialEquivalentSeconds = 0;
    double traceGenSeconds = 0;
    unsigned threadsUsed = 1;

    bool hasSuite = false;
    std::vector<std::string> predictors;
    std::vector<std::string> rows;
    std::vector<ReportCell> cells;

    bool hasSweep = false;
    std::vector<ReportSweepColumn> sweep;

    /** Windowed per-cell timelines (empty unless sampling was on). */
    std::vector<ReportTimeline> timelines;

    /** Free-form named numbers (table1 characteristics, ...). */
    std::map<std::string, double> scalars;

    /** Probe snapshots keyed by component (usually predictor name). */
    std::map<std::string, ProbeRegistry> probes;

    PhaseTimer phases;

    /** Cell lookup by names; nullptr when absent. */
    const ReportCell *findCell(const std::string &row,
                               const std::string &predictor) const;

    /** Timeline lookup by names; nullptr when absent. */
    const ReportTimeline *
    findTimeline(const std::string &row,
                 const std::string &predictor) const;
};

/** Serialize @p report as schema-versioned JSON. */
void writeReport(std::ostream &out, const RunReport &report);

/** Write to @p path; fatal() if the file cannot be opened. */
void writeReportFile(const std::string &path, const RunReport &report);

/** Parse a report; fatal() on malformed input or schema mismatch. */
RunReport readReport(std::istream &in);

/** Read from @p path; fatal() if missing or malformed. */
RunReport readReportFile(const std::string &path);

/** Outcome of comparing two reports. */
struct ReportDiff
{
    /** Gating deltas: accuracy beyond tolerance, prediction-count or
     *  matrix-shape mismatches.  Non-empty => regression. */
    std::vector<std::string> failures;
    /** Informational deltas (timing percent, probes, scalars). */
    std::vector<std::string> notes;

    bool clean() const { return failures.empty(); }
};

/**
 * Compare @p before and @p after.
 * @param tolerancePct accuracy gate in misprediction percentage points
 */
ReportDiff diffReports(const RunReport &before, const RunReport &after,
                       double tolerancePct);

/** Human-readable one-report summary (the `ibp report` view). */
void printReport(std::ostream &out, const RunReport &report);

/**
 * Render a diff; failures first, then notes.  The caller states the
 * verdict, since what a clean diff means depends on what was compared.
 */
void printDiff(std::ostream &out, const ReportDiff &diff);

} // namespace ibp::obs

#endif // IBP_OBS_REPORT_HH_
