/**
 * @file
 * Shared pieces of the suite benchmark: the workload table, seeded
 * profiles, the committed reference matrices, the out-of-engine
 * protocol loops the per-layer breakdown times, and the span log the
 * traced run writes as Perfetto-loadable trace-event JSON.
 */

#ifndef IBP_SUITEBENCH_HARNESS_HH_
#define IBP_SUITEBENCH_HARNESS_HH_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "trace/branch_record.hh"
#include "workload/profiles.hh"
#include "predictors/predictor.hh"
#include "sim/experiment.hh"

namespace ibp::suitebench {

/** Timeline window of fig7-timeline, in records. */
inline constexpr std::uint64_t kTimelineInterval = 100000;

/**
 * Mid-cell checkpoint cadence of the checkpointing run that the traced
 * run of fig7-timeline times against it.  Checkpoints stay out of the
 * timed workload: each one atomically rewrites the progress file, and
 * on a shared disk the waits on those rewrites moved suite wall time by
 * ~20% from run to run while CPU time moved 4%.
 */
inline constexpr std::uint64_t kCheckpointEvery = 100000;

/** Records per bounded ReplaySession::run() slice in the layer probes. */
inline constexpr std::uint64_t kBoundedSlice = 100000;

/**
 * Workload seeds with a committed reference matrix.  Seed 0 is the
 * canonical suite; seed s >= 1 is runSeedSweep()'s perturbation for
 * sweep index s - 1.  A benchmark seed maps to workload seed
 * (seed mod kReferenceSeeds).
 */
inline constexpr unsigned kReferenceSeeds = 16;

/** One benchmark workload: a suite run configuration. */
struct Workload
{
    std::string name;
    std::vector<std::string> predictors;
    double traceScale = 1.0;
    unsigned threads = 1;  ///< requested; capped at hardware concurrency
    bool timeline = false; ///< timeline window every kTimelineInterval
};

/** fig6-par, btb-par and fig7-timeline. */
const std::vector<Workload> &workloads();

/** nullptr when @p name is not a workload. */
const Workload *findWorkload(std::string_view name);

/** Worker threads the workload runs on, on this host. */
unsigned resolvedThreads(const Workload &workload);

/** The standard suite under workload seed @p workload_seed. */
std::vector<workload::BenchmarkProfile>
seededSuite(unsigned workload_seed);

/**
 * Suite options of @p workload with the timeline on or off; a
 * non-empty @p checkpoint_path adds checkpoints every kCheckpointEvery
 * records to that progress file.
 */
sim::SuiteOptions suiteOptions(const Workload &workload, bool timeline,
                               const std::string &checkpoint_path = "");

/** The union of every workload's lineup, in first-use order. */
std::vector<std::string> allLineupPredictors();

/** A committed expected matrix for one (workload, workload seed). */
struct Reference
{
    std::vector<std::string> predictors; ///< columns
    std::vector<std::string> rows;
    std::vector<std::vector<double>> missPercent;         ///< [row][col]
    std::vector<std::vector<std::uint64_t>> predictions;  ///< [row][col]
};

/**
 * Load the reference of @p workload at @p workload_seed from the
 * reference file at @p path.
 * @return "" on success, else what is wrong
 */
std::string loadReference(const std::string &path,
                          const Workload &workload,
                          unsigned workload_seed, Reference &reference);

/**
 * Cells of @p result whose miss % (bit for bit) or prediction count
 * differs from @p reference; a result of the wrong shape fails every
 * reference cell.
 */
std::size_t failedCells(const sim::SuiteResult &result,
                        const Reference &reference);

/**
 * Mean |measured - paper| suite-average miss % over the columns with a
 * paperAverageFor() value; negative when no column has one.
 */
double paperErrorPp(const Reference &reference);

/** Serialize matrices for the reference file (all seeds of a workload). */
std::string referenceJson(const Workload &workload,
                          const std::vector<sim::SuiteResult> &per_seed);

/**
 * A predictor that never predicts and keeps no state: drives the
 * engine's replay loop with the predictor's own cost removed.
 */
class NullPredictor final : public pred::IndirectPredictor
{
  public:
    std::string name() const override { return "null"; }
    pred::Prediction predict(trace::Addr) override { return {}; }
    void update(trace::Addr, trace::Addr) override {}
    pred::Prediction
    predictAndUpdate(trace::Addr, trace::Addr) override
    {
        return {};
    }
    void observe(const trace::BranchRecord &) override {}
    bool wantsObserve() const override { return false; }
    std::uint64_t storageBits() const override { return 0; }
    void reset() override {}
};

/** Outcome counts of a predictor-only pass. */
struct LoopCounts
{
    std::uint64_t records = 0;
    std::uint64_t mtIndirect = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/**
 * The predictor half of the engine protocol, outside the engine:
 * predictAndUpdate() for every MT-indirect record, then observe() for
 * every record when the predictor wants it.  No RAS, no metrics.
 */
LoopCounts predictorLoop(const trace::BranchRecord *records,
                         std::size_t n, pred::IndirectPredictor &predictor);

/** observe() alone over every record (no-op for BTB-family). */
void observeLoop(const trace::BranchRecord *records, std::size_t n,
                 pred::IndirectPredictor &predictor);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank percentile @p pct (0..100) of @p values. */
double percentile(std::vector<double> values, double pct);

/**
 * In-memory spans of one traced run: layer name, start, end and the
 * span that caused it, under one run id.  Thread-safe; written out
 * once, when the run ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = root
        std::string name;
        std::string layer;
        std::uint64_t thread = 0;
        double begin = 0; ///< obs::wallSeconds()
        double end = 0;
    };

    explicit SpanLog(std::string run_id) : runId_(std::move(run_id)) {}

    const std::string &runId() const { return runId_; }

    /** A fresh span id (ids start at 1). */
    std::uint64_t nextId() { return ++lastId_; }

    void add(Span span);

    std::vector<Span> spans() const;

    /** Sum of (duration - time covered by child spans) per layer. */
    std::vector<std::pair<std::string, double>> selfSeconds() const;

    /** Write Chrome trace-event JSON Perfetto loads. */
    void write(const std::string &path) const;

  private:
    std::string runId_;
    std::atomic<std::uint64_t> lastId_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
};

/** RAII span: records [construction, destruction) into a SpanLog. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, std::string layer,
               std::uint64_t parent = 0);
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    ~ScopedSpan();

    std::uint64_t id() const { return span_.id; }

    /** Rename the span once the call it wraps tells what it was. */
    void rename(std::string name) { span_.name = std::move(name); }

    /** Seconds since the span began. */
    double elapsed() const;

  private:
    SpanLog &log_;
    SpanLog::Span span_;
};

} // namespace ibp::suitebench

#endif // IBP_SUITEBENCH_HARNESS_HH_
