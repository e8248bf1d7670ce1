/**
 * @file
 * Suite runner and table rendering: the machinery behind every
 * Figure/Table-regenerating bench binary.
 *
 * A suite run generates each benchmark profile's trace once and plays
 * it through a list of factory-built predictors, producing the
 * benchmark x predictor misprediction matrix the paper plots.
 *
 * One scheduler runs every suite: one task per benchmark row on a
 * ThreadPool (a pool of one when SuiteOptions::threads == 1).  Each
 * task streams its row's trace from a private workload walker: the
 * walker fills one trace::kReplayChunk-record scratch span at a time
 * and hands it to a ReplayRow, which plans the chunk once (predicted
 * offsets and the row's RAS; see ReplayPlan) and replays it through one
 * factory-fresh predictor and ReplaySession per column before the next
 * chunk is generated, so no row ever holds its whole trace.  Rows share
 * no simulation state and are
 * collected in row order, so the matrix, probes and timelines do not
 * depend on scheduling or thread count (enforced by
 * tests/test_parallel_suite.cc and the golden fixtures in
 * tests/golden/).
 */

#ifndef IBP_SIM_EXPERIMENT_HH_
#define IBP_SIM_EXPERIMENT_HH_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace/packed_trace.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "workload/profiles.hh"
#include "sim/engine.hh"
#include "sim/factory.hh"
#include "sim/metrics.hh"

namespace ibp::sim {

/** Suite-run options. */
struct SuiteOptions
{
    double traceScale = 1.0; ///< multiplies each profile's record count
    /**
     * Worker threads for the suite's row tasks: 1 (default) is a pool
     * of one, 0 uses hardware concurrency, any other value that many
     * workers.  At most one worker per benchmark row is ever busy.
     * The resulting matrix is bit-identical for every setting.
     */
    unsigned threads = 1;
    FactoryOptions factory;
    EngineConfig engine;

    /**
     * Progress-file path for checkpoint/resume (see sim/checkpoint.hh).
     * When non-empty, the runner records every completed cell there
     * (written atomically as each row finishes) and, with resume,
     * skips the cells a previous interrupted run already finished.
     * The file carries a fingerprint of the exact matrix
     * configuration; a mismatch or a corrupt file downgrades to a
     * warn() and a fresh run.  Empty (the default) disables
     * checkpointing entirely.
     */
    std::string checkpointPath;

    /**
     * Mid-row checkpoint cadence in replayed records (0 = row
     * granularity).  At every multiple of @c checkpointEvery records
     * each in-flight cell's full simulation state is snapshotted into
     * the progress file, so even a single long row resumes mid-replay
     * instead of restarting.
     */
    std::uint64_t checkpointEvery = 0;

    /** Resume from checkpointPath if it exists and matches. */
    bool resume = false;
};

/** Wall-clock accounting for one suite run (or an aggregate of runs). */
struct SuiteTiming
{
    double wallSeconds = 0;
    /**
     * Sum of the row tasks' thread-CPU time (trace generation plus
     * replay) — what the same work would have cost on one thread.
     * With one thread this equals wallSeconds.
     */
    double serialEquivalentSeconds = 0;
    /**
     * Wall time the row tasks spent in the workload walker: the sum of
     * every per-chunk fill, replay excluded.  Part of (not in addition
     * to) serialEquivalentSeconds.
     */
    double traceGenSeconds = 0;
    /**
     * Wall time the row tasks spent planning replay chunks: the sum of
     * every per-chunk ReplayPlan::build() (classification and the
     * row's RAS), paid once per row rather than per column.  Part of
     * serialEquivalentSeconds, like traceGenSeconds.
     */
    double planSeconds = 0;
    unsigned threadsUsed = 1;

    double
    speedup() const
    {
        return wallSeconds > 0 ? serialEquivalentSeconds / wallSeconds
                               : 1.0;
    }
};

/** One (benchmark, predictor) cell of the result matrix. */
struct CellResult
{
    double missPercent = 0;
    double noPredictionPercent = 0;
    std::uint64_t predictions = 0;
    double wallSeconds = 0; ///< this cell's replay wall time
    double cpuSeconds = 0;  ///< this cell's replay thread-CPU time
};

/** The full matrix. */
struct SuiteResult
{
    std::vector<std::string> predictorNames; ///< columns
    std::vector<std::string> rowNames;       ///< benchmark runs
    std::vector<std::vector<CellResult>> cells; ///< [row][col]

    /**
     * One merged probe registry per predictor column, aggregated over
     * the benchmark rows.  Empty registries in probes-off builds still
     * carry the counter names (values zero).
     */
    std::map<std::string, obs::ProbeRegistry> probes;

    /**
     * Per-cell deterministic timelines, [row name][predictor name].
     * Populated only when SuiteOptions::engine.timeline is enabled;
     * bit-identical across thread counts, execution paths and
     * checkpoint/resume, like the matrix itself.
     */
    std::map<std::string, std::map<std::string, obs::Timeline>>
        timelines;

    /** Column arithmetic means (the paper's "average" bars). */
    std::vector<double> averages() const;

    /** Cell lookup by names; fatal() if absent. */
    const CellResult &cell(const std::string &row,
                           const std::string &col) const;
};

/** Generate a profile's trace (honouring the scale factor). */
trace::TraceBuffer generateTrace(const workload::BenchmarkProfile &,
                                 double trace_scale = 1.0);

/**
 * Write the next @p records records of @p program to @p sink through
 * one trace::kReplayChunk-record span of Program::fill(), so a trace
 * of any length is streamed without being held (trace_tool gen).
 */
void streamTrace(workload::Program &program, std::uint64_t records,
                 trace::BranchSink &sink);

/**
 * Memoized generateTrace(): returns an immutable, shared trace for
 * (profile name, workload seed, record count, scale), generating it at
 * most once per cache residency even under concurrent requests — the
 * first caller generates while later callers block on the same entry.
 * The cache is process-global, mutex-guarded and LRU-bounded (see
 * setTraceCacheCapacity); eviction never invalidates already-returned
 * buffers, it only drops the cache's own reference.
 *
 * Cached traces are held packed (16 bytes/record instead of 24) —
 * halving both resident cache memory and the bandwidth each replaying
 * cell pulls; replay through a trace::PackedReplaySource cursor.
 *
 * @param generation_seconds when non-null, receives the time this call
 *        spent actually generating (0 on a cache hit or when another
 *        thread generated the entry)
 */
std::shared_ptr<const trace::PackedTraceBuffer>
generateTraceCached(const workload::BenchmarkProfile &,
                    double trace_scale = 1.0,
                    double *generation_seconds = nullptr);

/** Drop every cached trace (tests; long-lived tools between sweeps). */
void clearTraceCache();

/** Number of traces currently resident in the cache. */
std::size_t traceCacheSize();

/** Cap the cache at @p max_entries traces (>= 1); evicts LRU-first. */
void setTraceCacheCapacity(std::size_t max_entries);

/** Cumulative cache hits / generating misses (process lifetime). */
std::uint64_t traceCacheHits();
std::uint64_t traceCacheMisses();

/**
 * Run the full matrix: one task per benchmark row on a ThreadPool of
 * SuiteOptions::threads workers (0 = hardware concurrency), each
 * streaming its row's trace from the walker in kReplayChunk-record
 * chunks through one ReplayRow of the unfinished predictor columns,
 * with the checkpoint/resume behaviour SuiteOptions describes.  A
 * column resumed from a mid-row snapshot skips the chunks (and the
 * part of a chunk) before its cursor; the walker still regenerates
 * that prefix, because walker state is not checkpointed.
 * @p timing, when non-null, receives wall-clock accounting.
 */
SuiteResult runSuite(const std::vector<workload::BenchmarkProfile> &,
                     const std::vector<std::string> &predictor_names,
                     const SuiteOptions &options = {},
                     SuiteTiming *timing = nullptr);

/** Mean and spread of suite averages over re-seeded workloads. */
struct SeedSweepResult
{
    std::vector<std::string> predictorNames;
    std::vector<double> mean;   ///< suite-average miss% per predictor
    std::vector<double> stddev;
    /** Per-seed suite averages, [seed][predictor]. */
    std::vector<std::vector<double>> perSeed;
};

/**
 * Re-run the whole suite @p num_seeds times with perturbed workload
 * seeds (the profiles' structure is identical; only the RNG streams
 * change) and report the mean and standard deviation of each
 * predictor's suite average.  Used to show the Figure-6 ordering is a
 * property of the workload statistics, not of one lucky seed.
 */
SeedSweepResult
runSeedSweep(const std::vector<workload::BenchmarkProfile> &,
             const std::vector<std::string> &predictor_names,
             const SuiteOptions &options, unsigned num_seeds,
             SuiteTiming *timing = nullptr);

/**
 * Render the matrix as a fixed-width ASCII table with averages.  With
 * @p timing, append a wall-clock / speedup footer line.
 */
void printSuiteTable(std::ostream &out, const SuiteResult &result,
                     const SuiteTiming *timing = nullptr);

/** Just the wall-clock / speedup footer line (the table's footer). */
void printSuiteTimingFooter(std::ostream &out,
                            const SuiteTiming &timing);

/**
 * The paper's published per-predictor suite averages (Figure 6 / 7 /
 * Section 5 text), for paper-vs-measured reporting.  Returns a
 * negative value when the paper gives no number for @p predictor.
 */
double paperAverageFor(const std::string &predictor);

/**
 * Flatten a suite run into the versioned obs::RunReport shape
 * (matrix cells, per-predictor probe registries, timing, trace-cache
 * counters under "trace_cache", build metadata).  @p tool names the
 * emitting driver ("bench_fig6", ...).
 */
obs::RunReport buildRunReport(const std::string &tool,
                              const SuiteOptions &options,
                              const SuiteResult &result,
                              const SuiteTiming &timing);

/** RunReport for a seed sweep (fills the sweep section instead). */
obs::RunReport buildSweepReport(const std::string &tool,
                                const SuiteOptions &options,
                                const SeedSweepResult &sweep,
                                const SuiteTiming &timing);

/**
 * The golden matrix every regression fixture pins: perl/eon/gs.tig x
 * BTB/TC-PIB/Cascade/PPM-hyb/ITTAGE/Perceptron at trace scale 0.02 on
 * one thread, so its accuracy is bit-reproducible across runs and
 * machines (tests/golden/).
 */
struct GoldenMatrix
{
    std::vector<workload::BenchmarkProfile> profiles;
    std::vector<std::string> predictors;
    SuiteOptions options;
};

/**
 * @param timeline the timeline fixture's configuration: one window
 *        every 4000 records with probe sampling off, so the windows
 *        are identical across instrumented and probe-free builds
 */
GoldenMatrix goldenMatrix(bool timeline = false);

/**
 * Run the golden matrix from a cold trace cache and build the report
 * the committed fixture holds: tests/golden/report_small.json, or
 * tests/golden/timeline_small.json with @p timeline.
 */
obs::RunReport goldenReport(bool timeline = false);

} // namespace ibp::sim

#endif // IBP_SIM_EXPERIMENT_HH_
