#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <iomanip>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "obs/cputime.hh"
#include "obs/trace_event.hh"
#include "workload/program.hh"
#include "sim/checkpoint.hh"

namespace ibp::sim {

namespace {

/** Seconds elapsed since a wallSeconds() reading. */
double
secondsSince(double start)
{
    return obs::wallSeconds() - start;
}

/** A profile's record count at @p trace_scale. */
std::uint64_t
scaledRecords(const workload::BenchmarkProfile &profile,
              double trace_scale)
{
    fatal_if(trace_scale <= 0, "trace scale must be positive");
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(profile.records) * trace_scale));
}

/**
 * The generateTraceCached() store.  Each entry is a shared_future so
 * concurrent requests for the same key rendezvous on one generation:
 * the first requester installs the entry and generates outside the
 * lock while everyone else blocks on the future.
 */
class TraceCache
{
  public:
    using Buffer = std::shared_ptr<const trace::PackedTraceBuffer>;

    Buffer
    get(const workload::BenchmarkProfile &profile, double trace_scale,
        double *generation_seconds)
    {
        if (generation_seconds)
            *generation_seconds = 0;
        const std::string key = keyFor(profile, trace_scale);

        std::promise<Buffer> promise;
        std::shared_future<Buffer> future;
        bool generate = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = entries_.find(key);
            if (it != entries_.end()) {
                ++hits_;
                it->second.lastUse = ++tick_;
                future = it->second.buffer;
            } else {
                ++misses_;
                generate = true;
                future = promise.get_future().share();
                evictLocked(capacity_ > 0 ? capacity_ - 1 : 0);
                entries_[key] = Entry{future, ++tick_};
            }
        }

        if (!generate)
            return future.get();

        const double start = obs::wallSeconds();
        try {
            // Generate unpacked, then pack for residency: the cache
            // holds (and every replaying cell streams) 16-byte
            // records; the 24-byte staging buffer dies right here.
            auto buffer =
                std::make_shared<const trace::PackedTraceBuffer>(
                    generateTrace(profile, trace_scale));
            if (generation_seconds)
                *generation_seconds = secondsSince(start);
            promise.set_value(std::move(buffer));
        } catch (...) {
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.erase(key);
        }
        return future.get();
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

    void
    setCapacity(std::size_t max_entries)
    {
        fatal_if(max_entries == 0,
                 "trace cache capacity must be at least 1");
        std::lock_guard<std::mutex> lock(mutex_);
        capacity_ = max_entries;
        evictLocked(capacity_);
    }

    std::uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    std::uint64_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return misses_;
    }

  private:
    struct Entry
    {
        std::shared_future<Buffer> buffer;
        std::uint64_t lastUse = 0;
    };

    static std::string
    keyFor(const workload::BenchmarkProfile &profile, double trace_scale)
    {
        // %a round-trips the scale exactly; nearby scales never alias.
        char scale_text[32];
        std::snprintf(scale_text, sizeof(scale_text), "%a", trace_scale);
        std::ostringstream key;
        key << profile.fullName() << '|' << profile.program.seed << '|'
            << profile.records << '|' << scale_text;
        return key.str();
    }

    /** Drop ready LRU entries until at most @p keep remain. */
    // ibp-lint: requires_lock(mutex_)
    void
    evictLocked(std::size_t keep)
    {
        while (entries_.size() > keep) {
            auto victim = entries_.end();
            for (auto it = entries_.begin(); it != entries_.end(); ++it) {
                if (it->second.buffer.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    continue; // never drop an in-flight generation
                if (victim == entries_.end() ||
                    it->second.lastUse < victim->second.lastUse)
                    victim = it;
            }
            if (victim == entries_.end())
                return;
            entries_.erase(victim);
        }
    }

    mutable std::mutex mutex_;
    // ibp-lint: guarded_by(mutex_)
    std::map<std::string, Entry> entries_;
    std::size_t capacity_ = 8; // ibp-lint: guarded_by(mutex_)
    std::uint64_t tick_ = 0;   // ibp-lint: guarded_by(mutex_)
    /** Requests satisfied by residency.  ibp-lint: guarded_by(mutex_) */
    std::uint64_t hits_ = 0;
    /** Requests that generated.  ibp-lint: guarded_by(mutex_) */
    std::uint64_t misses_ = 0;
};

TraceCache &
traceCache()
{
    static TraceCache cache;
    return cache;
}

} // namespace

std::vector<double>
SuiteResult::averages() const
{
    std::vector<double> avg(predictorNames.size(), 0.0);
    if (cells.empty())
        return avg;
    for (const auto &row : cells)
        for (std::size_t c = 0; c < row.size(); ++c)
            avg[c] += row[c].missPercent;
    for (auto &a : avg)
        a /= static_cast<double>(cells.size());
    return avg;
}

const CellResult &
SuiteResult::cell(const std::string &row, const std::string &col) const
{
    for (std::size_t r = 0; r < rowNames.size(); ++r) {
        if (rowNames[r] != row)
            continue;
        for (std::size_t c = 0; c < predictorNames.size(); ++c)
            if (predictorNames[c] == col)
                return cells[r][c];
    }
    fatal("no suite cell (", row, ", ", col, ")");
}

trace::TraceBuffer
generateTrace(const workload::BenchmarkProfile &profile,
              double trace_scale)
{
    const std::uint64_t records = scaledRecords(profile, trace_scale);
    return workload::synthesize(profile.program).collect(records);
}

void
streamTrace(workload::Program &program, std::uint64_t records,
            trace::BranchSink &sink)
{
    std::vector<trace::BranchRecord> chunk(trace::kReplayChunk);
    for (std::uint64_t pos = 0; pos < records; pos += chunk.size()) {
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk.size(), records - pos));
        program.fill(chunk.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            sink.push(chunk[i]);
    }
}

std::shared_ptr<const trace::PackedTraceBuffer>
generateTraceCached(const workload::BenchmarkProfile &profile,
                    double trace_scale, double *generation_seconds)
{
    return traceCache().get(profile, trace_scale, generation_seconds);
}

void
clearTraceCache()
{
    traceCache().clear();
}

std::size_t
traceCacheSize()
{
    return traceCache().size();
}

void
setTraceCacheCapacity(std::size_t max_entries)
{
    traceCache().setCapacity(max_entries);
}

std::uint64_t
traceCacheHits()
{
    return traceCache().hits();
}

std::uint64_t
traceCacheMisses()
{
    return traceCache().misses();
}

namespace {

CellResult
cellFromMetrics(const RunMetrics &metrics)
{
    CellResult cell;
    cell.missPercent = metrics.missPercent();
    cell.noPredictionPercent = metrics.noPrediction.percent();
    cell.predictions = metrics.mtIndirect;
    return cell;
}

/**
 * Load an existing progress file if resuming.  A missing file is a
 * normal first run (quiet); a corrupt file or one written by a
 * different suite configuration is downgraded to a warn() and a fresh
 * run — a stale checkpoint must never change what gets computed.
 */
void
loadSuiteProgressFor(const SuiteOptions &options,
                     SuiteProgress &progress)
{
    if (!options.resume)
        return;
    std::vector<std::uint8_t> bytes;
    if (!readCheckpointFile(options.checkpointPath, bytes).ok())
        return; // nothing to resume from
    SuiteProgress loaded;
    if (util::Status status = decodeSuiteProgress(bytes, loaded);
        !status.ok()) {
        warn("ignoring checkpoint ", options.checkpointPath, ": ",
             status.message());
        return;
    }
    if (loaded.fingerprint != progress.fingerprint) {
        warn("checkpoint ", options.checkpointPath,
             " was written by a different suite configuration; "
             "starting fresh");
        return;
    }
    progress = std::move(loaded);
}

/**
 * The live progress file of a checkpointing run, shared by every row
 * task.  Each update rewrites the whole file atomically.
 */
class ProgressFile
{
  public:
    ProgressFile(const std::string &path, SuiteProgress progress)
        : path_(path), progress_(std::move(progress))
    {
    }

    /** Replace @p row's in-flight snapshots with @p partials. */
    void
    snapshot(const std::string &row, std::vector<PartialCell> partials)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dropPartialsLocked(row);
        for (auto &partial : partials)
            progress_.partials.push_back(std::move(partial));
        writeLocked();
    }

    /** Record @p row's finished cells; its snapshots are obsolete. */
    void
    complete(const std::string &row, std::vector<CompletedCell> cells)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dropPartialsLocked(row);
        for (auto &cell : cells)
            progress_.cells.push_back(std::move(cell));
        writeLocked();
    }

  private:
    // ibp-lint: requires_lock(mutex_)
    void
    dropPartialsLocked(const std::string &row)
    {
        std::erase_if(progress_.partials, [&row](const PartialCell &p) {
            return p.row == row;
        });
    }

    /** Persist the file; failures warn but never stop the run. */
    // ibp-lint: requires_lock(mutex_)
    void
    writeLocked()
    {
        if (util::Status status = writeCheckpointFile(
                path_, encodeSuiteProgress(progress_));
            !status.ok())
            warn("checkpoint write failed: ", status.message());
    }

    const std::string path_;
    std::mutex mutex_;
    SuiteProgress progress_; // ibp-lint: guarded_by(mutex_)
};

/** One unfinished predictor column of a row task. */
struct Column
{
    Column(std::size_t column, const std::string &name,
           const SuiteOptions &options)
        : index(column), predictor(makePredictor(name, options.factory)),
          session(options.engine)
    {
    }

    std::size_t index; ///< position in the predictor list
    std::unique_ptr<pred::IndirectPredictor> predictor;
    ReplaySession session;
    PartialCell snapshot; ///< latest mid-row snapshot, if any
};

/** What a row task hands back to the collecting thread, per column. */
struct RowOutput
{
    std::vector<CellResult> cells;
    std::vector<obs::ProbeRegistry> probes;
    std::vector<obs::Timeline> timelines;
    double genSeconds = 0;
    double planSeconds = 0;
    double cpuSeconds = 0; ///< whole task: generation + replay
};

/**
 * Build a factory-fresh column, continuing from @p partial when it is
 * a usable snapshot for a trace of @p records records: its blobs
 * restore, and the restored session has replayed exactly the records
 * its cursor field claims.
 */
Column
makeColumn(std::size_t index, const std::string &name,
           const SuiteOptions &options, const PartialCell *partial,
           std::uint64_t records)
{
    Column column(index, name, options);
    if (partial == nullptr)
        return column;
    if (partial->cursor <= records &&
        restorePartialCell(*partial, *column.predictor,
                           column.session) &&
        column.session.metrics().branches == partial->cursor) {
        // Mid-replay resume: the prefix was consumed by the
        // interrupted run; its effects live in the restored state.
        column.snapshot = *partial;
        return column;
    }
    warn("mid-cell checkpoint for (", partial->row, ", ", name,
         ") is unusable; replaying the cell from the start");
    return makeColumn(index, name, options, nullptr, records);
}

/**
 * One row task: run the row's walker and feed its trace, one
 * kReplayChunk-record scratch span at a time, to a ReplayRow whose
 * columns are the predictors not already finished in @p resume, each
 * replaying from its own cursor.  No whole-row trace is ever held.
 * Spans end at every multiple of checkpointEvery (with a progress
 * file), so snapshots land between plans; there every in-flight column
 * is snapshotted, and the finished cells are recorded when the row
 * completes.
 */
RowOutput
runRow(const workload::BenchmarkProfile &profile,
       const std::vector<std::string> &predictor_names,
       const SuiteOptions &options, const SuiteProgress &resume,
       ProgressFile *progress)
{
    const double cpu_start = obs::threadCpuSeconds();
    const std::string row_name = profile.fullName();
    const std::size_t cols = predictor_names.size();
    RowOutput output;
    output.cells.resize(cols);
    output.probes.resize(cols);
    output.timelines.resize(cols);

    std::vector<std::size_t> pending;
    for (std::size_t c = 0; c < cols; ++c) {
        if (const CompletedCell *done =
                resume.find(row_name, predictor_names[c])) {
            output.cells[c] = done->cell;
            output.probes[c] = done->probes;
            output.timelines[c] = done->timeline;
        } else {
            pending.push_back(c);
        }
    }
    if (pending.empty())
        return output; // a fully resumed row needs no trace at all

    obs::ScopedTraceSpan row_span(row_name + " / row", "cell");
    const std::uint64_t total =
        scaledRecords(profile, options.traceScale);
    workload::Program program = workload::synthesize(profile.program);

    std::vector<Column> columns;
    columns.reserve(pending.size());
    for (std::size_t c : pending) {
        const PartialCell *partial = nullptr;
        for (const auto &candidate : resume.partials)
            if (candidate.row == row_name &&
                candidate.col == predictor_names[c])
                partial = &candidate;
        columns.push_back(makeColumn(c, predictor_names[c], options,
                                     partial, total));
    }

    // The walker always starts at record 0: the prefix a resumed
    // column already consumed is regenerated but not fed to it again.
    std::uint64_t resumed_at = total;
    ReplayRow row(options.engine, ReplayRow::Timing::On);
    for (auto &column : columns) {
        resumed_at = std::min(resumed_at, column.session.metrics().branches);
        row.addColumn(*column.predictor, column.session);
    }
    const std::uint64_t every =
        progress != nullptr ? options.checkpointEvery : 0;
    std::vector<trace::BranchRecord> chunk(trace::kReplayChunk);
    while (row.position() < total) {
        const std::uint64_t pos = row.position();
        std::uint64_t end = std::min<std::uint64_t>(
            total, pos + trace::kReplayChunk);
        if (every > 0)
            end = std::min(end, (pos / every + 1) * every);
        const auto n = static_cast<std::size_t>(end - pos);
        const double gen_start = obs::wallSeconds();
        program.fill(chunk.data(), n);
        output.genSeconds += secondsSince(gen_start);
        row.feed(chunk.data(), n);
        // Snapshots taken inside the regenerated prefix would only
        // rewrite the ones the resume started from.
        if (every > 0 && end % every == 0 && end > resumed_at &&
            end < total) {
            std::vector<PartialCell> partials;
            for (auto &column : columns) {
                if (column.session.metrics().branches == end)
                    column.snapshot = capturePartialCell(
                        row_name, predictor_names[column.index], end,
                        *column.predictor, column.session);
                if (column.snapshot.valid)
                    partials.push_back(column.snapshot);
            }
            progress->snapshot(row_name, std::move(partials));
        }
    }
    row.finish();
    output.planSeconds = row.planSeconds();
    row_span.addNumber("tracegen_s", output.genSeconds);
    row_span.addNumber("plan_s", output.planSeconds);

    std::vector<CompletedCell> finished;
    for (std::size_t i = 0; i < columns.size(); ++i) {
        Column &column = columns[i];
        const std::size_t c = column.index;
        column.session.snapshotProbes(output.probes[c],
                                      *column.predictor);
        output.cells[c] = cellFromMetrics(column.session.metrics());
        output.cells[c].wallSeconds = row.wallSeconds(i);
        output.cells[c].cpuSeconds = row.cpuSeconds(i);
        output.timelines[c] = column.session.takeTimeline();
        if (progress != nullptr)
            finished.push_back(CompletedCell{
                row_name, predictor_names[c], output.cells[c],
                output.probes[c], output.timelines[c]});
    }
    if (progress != nullptr)
        progress->complete(row_name, std::move(finished));
    output.cpuSeconds = obs::threadCpuSeconds() - cpu_start;
    return output;
}

} // namespace

SuiteResult
runSuite(const std::vector<workload::BenchmarkProfile> &profiles,
         const std::vector<std::string> &predictor_names,
         const SuiteOptions &options, SuiteTiming *timing)
{
    const double wall_start = obs::wallSeconds();
    SuiteResult result;
    result.predictorNames = predictor_names;
    result.rowNames.reserve(profiles.size());
    for (const auto &profile : profiles)
        result.rowNames.push_back(profile.fullName());

    SuiteProgress resume;
    std::unique_ptr<ProgressFile> progress;
    if (!options.checkpointPath.empty()) {
        resume.fingerprint =
            suiteFingerprint(profiles, predictor_names, options);
        loadSuiteProgressFor(options, resume);
        progress = std::make_unique<ProgressFile>(options.checkpointPath,
                                                  resume);
    }

    double serial_equivalent = 0;
    double trace_gen = 0;
    double plan = 0;
    unsigned threads = 1;
    {
        util::ThreadPool pool(
            util::ThreadPool::resolveThreads(options.threads));
        threads = pool.threadCount();
        std::vector<std::future<RowOutput>> futures;
        futures.reserve(profiles.size());
        for (std::size_t r = 0; r < profiles.size(); ++r)
            futures.push_back(pool.submit([&, r] {
                return runRow(profiles[r], predictor_names, options,
                              resume, progress.get());
            }));

        // Rows are collected in row order, so probe merges and the
        // timelines map are independent of which task finished first.
        for (std::size_t r = 0; r < futures.size(); ++r) {
            RowOutput output = futures[r].get();
            for (std::size_t c = 0; c < predictor_names.size(); ++c) {
                result.probes[predictor_names[c]].merge(
                    output.probes[c]);
                if (output.timelines[c].interval() > 0)
                    result.timelines[result.rowNames[r]]
                                    [predictor_names[c]] =
                        std::move(output.timelines[c]);
            }
            result.cells.push_back(std::move(output.cells));
            serial_equivalent += output.cpuSeconds;
            trace_gen += output.genSeconds;
            plan += output.planSeconds;
        }
    }
    if (timing) {
        timing->wallSeconds = secondsSince(wall_start);
        timing->serialEquivalentSeconds =
            threads <= 1 ? timing->wallSeconds : serial_equivalent;
        timing->traceGenSeconds = trace_gen;
        timing->planSeconds = plan;
        timing->threadsUsed = threads;
    }
    return result;
}

SeedSweepResult
runSeedSweep(const std::vector<workload::BenchmarkProfile> &profiles,
             const std::vector<std::string> &predictor_names,
             const SuiteOptions &options, unsigned num_seeds,
             SuiteTiming *timing)
{
    fatal_if(num_seeds == 0, "seed sweep needs at least one seed");
    SeedSweepResult sweep;
    sweep.predictorNames = predictor_names;
    if (timing)
        *timing = SuiteTiming{};

    for (unsigned s = 0; s < num_seeds; ++s) {
        std::vector<workload::BenchmarkProfile> reseeded = profiles;
        for (auto &profile : reseeded)
            profile.program.seed ^=
                0x9e3779b97f4a7c15ULL * (s + 1) >> 7;
        SuiteTiming seed_timing;
        const SuiteResult result = runSuite(
            reseeded, predictor_names, options, &seed_timing);
        sweep.perSeed.push_back(result.averages());
        if (timing) {
            timing->wallSeconds += seed_timing.wallSeconds;
            timing->serialEquivalentSeconds +=
                seed_timing.serialEquivalentSeconds;
            timing->traceGenSeconds += seed_timing.traceGenSeconds;
            timing->planSeconds += seed_timing.planSeconds;
            timing->threadsUsed = seed_timing.threadsUsed;
        }
    }

    const auto cols = predictor_names.size();
    sweep.mean.assign(cols, 0.0);
    sweep.stddev.assign(cols, 0.0);
    for (const auto &row : sweep.perSeed)
        for (std::size_t c = 0; c < cols; ++c)
            sweep.mean[c] += row[c];
    for (auto &m : sweep.mean)
        m /= static_cast<double>(num_seeds);
    if (num_seeds > 1) {
        for (const auto &row : sweep.perSeed)
            for (std::size_t c = 0; c < cols; ++c) {
                const double d = row[c] - sweep.mean[c];
                sweep.stddev[c] += d * d;
            }
        for (auto &sd : sweep.stddev)
            sd = std::sqrt(sd / static_cast<double>(num_seeds - 1));
    }
    return sweep;
}

void
printSuiteTable(std::ostream &out, const SuiteResult &result,
                const SuiteTiming *timing)
{
    constexpr int kLabelWidth = 12;
    constexpr int kCellWidth = 10;

    out << std::left << std::setw(kLabelWidth) << "benchmark"
        << std::right;
    for (const auto &name : result.predictorNames)
        out << std::setw(kCellWidth)
            << (name.size() > std::size_t(kCellWidth - 1)
                    ? name.substr(0, kCellWidth - 1)
                    : name);
    out << '\n';

    for (std::size_t r = 0; r < result.rowNames.size(); ++r) {
        out << std::left << std::setw(kLabelWidth) << result.rowNames[r]
            << std::right << std::fixed << std::setprecision(2);
        for (const auto &cell : result.cells[r])
            out << std::setw(kCellWidth) << cell.missPercent;
        out << '\n';
    }

    out << std::left << std::setw(kLabelWidth) << "average"
        << std::right << std::fixed << std::setprecision(2);
    for (double avg : result.averages())
        out << std::setw(kCellWidth) << avg;
    out << '\n';

    if (timing)
        printSuiteTimingFooter(out, *timing);
}

void
printSuiteTimingFooter(std::ostream &out, const SuiteTiming &timing)
{
    out << std::fixed << std::setprecision(2);
    if (timing.threadsUsed <= 1) {
        out << "wall-clock  " << timing.wallSeconds
            << " s (serial path)\n";
        return;
    }
    out << "wall-clock  " << timing.wallSeconds << " s on "
        << timing.threadsUsed << " threads (serial-equivalent "
        << timing.serialEquivalentSeconds << " s, speedup "
        << std::setprecision(1) << timing.speedup() << "x)\n";
}

namespace {

/** The metadata shared by every report shape. */
obs::RunReport
reportSkeleton(const std::string &tool, const SuiteOptions &options,
               const SuiteTiming &timing)
{
    obs::RunReport report;
    report.tool = tool;
    report.build = obs::BuildInfo::current();
    report.traceScale = options.traceScale;
    report.threads = options.threads;
    report.wallSeconds = timing.wallSeconds;
    report.serialEquivalentSeconds = timing.serialEquivalentSeconds;
    report.traceGenSeconds = timing.traceGenSeconds;
    report.threadsUsed = timing.threadsUsed;

    obs::ProbeRegistry cache;
    cache.counter("hits", traceCacheHits());
    cache.counter("misses", traceCacheMisses());
    report.probes.emplace("trace_cache", std::move(cache));
    return report;
}

} // namespace

obs::RunReport
buildRunReport(const std::string &tool, const SuiteOptions &options,
               const SuiteResult &result, const SuiteTiming &timing)
{
    obs::RunReport report = reportSkeleton(tool, options, timing);
    report.hasSuite = true;
    report.predictors = result.predictorNames;
    report.rows = result.rowNames;
    for (std::size_t r = 0; r < result.rowNames.size(); ++r) {
        for (std::size_t c = 0; c < result.predictorNames.size();
             ++c) {
            const CellResult &src = result.cells[r][c];
            obs::ReportCell cell;
            cell.row = result.rowNames[r];
            cell.predictor = result.predictorNames[c];
            cell.missPercent = src.missPercent;
            cell.noPredictionPercent = src.noPredictionPercent;
            cell.predictions = src.predictions;
            cell.wallSeconds = src.wallSeconds;
            cell.cpuSeconds = src.cpuSeconds;
            report.cells.push_back(std::move(cell));
        }
    }
    for (const auto &[name, registry] : result.probes)
        report.probes[name].merge(registry);
    // Timelines in suite order (row-major), not map order, so the
    // report section is deterministic and path-independent.
    for (const auto &row : result.rowNames) {
        const auto row_it = result.timelines.find(row);
        if (row_it == result.timelines.end())
            continue;
        for (const auto &predictor : result.predictorNames) {
            const auto cell_it = row_it->second.find(predictor);
            if (cell_it == row_it->second.end())
                continue;
            obs::ReportTimeline entry;
            entry.row = row;
            entry.predictor = predictor;
            entry.timeline = cell_it->second;
            entry.segmentation =
                obs::segmentTimeline(entry.timeline);
            report.timelines.push_back(std::move(entry));
        }
    }
    return report;
}

obs::RunReport
buildSweepReport(const std::string &tool, const SuiteOptions &options,
                 const SeedSweepResult &sweep,
                 const SuiteTiming &timing)
{
    obs::RunReport report = reportSkeleton(tool, options, timing);
    report.hasSweep = true;
    for (std::size_t c = 0; c < sweep.predictorNames.size(); ++c) {
        obs::ReportSweepColumn column;
        column.predictor = sweep.predictorNames[c];
        column.mean = sweep.mean[c];
        column.stddev = sweep.stddev[c];
        report.sweep.push_back(std::move(column));
    }
    report.scalars["seeds"] =
        static_cast<double>(sweep.perSeed.size());
    return report;
}

GoldenMatrix
goldenMatrix(bool timeline)
{
    GoldenMatrix golden;
    const auto suite = workload::standardSuite();
    for (const char *name : {"perl", "eon", "gs.tig"}) {
        const auto *profile = workload::findProfile(suite, name);
        fatal_if(profile == nullptr, "standard suite lost profile ",
                 name);
        golden.profiles.push_back(*profile);
    }
    golden.predictors = {"BTB",     "TC-PIB", "Cascade",
                         "PPM-hyb", "ITTAGE", "Perceptron"};
    golden.options.traceScale = 0.02;
    golden.options.threads = 1;
    if (timeline) {
        golden.options.engine.timeline.interval = 4000;
        golden.options.engine.timeline.sampleProbes = false;
    }
    return golden;
}

obs::RunReport
goldenReport(bool timeline)
{
    const GoldenMatrix golden = goldenMatrix(timeline);
    clearTraceCache();
    SuiteTiming timing;
    const SuiteResult result = runSuite(
        golden.profiles, golden.predictors, golden.options, &timing);
    // The fixtures record the labels of the tools that first wrote
    // them; keeping the labels keeps a regenerated fixture
    // byte-identical.
    return buildRunReport(timeline ? "timeline_tool --emit-golden"
                                   : "report_tool --emit-golden",
                          golden.options, result, timing);
}

double
paperAverageFor(const std::string &predictor)
{
    // Suite averages the paper states explicitly (Section 5): PPM-hyb
    // 9.47%, Cascade 11.48%, TC-PIB 13.0%.  The remaining predictors'
    // averages are only plotted, not printed, so no number is
    // reproduced for them.
    if (predictor == "PPM-hyb")
        return 9.47;
    if (predictor == "Cascade")
        return 11.48;
    if (predictor == "TC-PIB")
        return 13.0;
    return -1.0;
}

} // namespace ibp::sim
