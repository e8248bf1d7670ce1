/**
 * @file
 * The repository benchmark driver.
 *
 * --trace 0 times whole suite runs of one workload through
 * sim::runSuite(), exactly as the figure drivers call it, checks every
 * matrix against the committed reference, and reports the end-to-end
 * metrics.  --trace 1 is the separate traced run: it re-drives the
 * workload one public layer call at a time under spans, times each
 * layer's functions on the workload's own traces, reports the
 * per-layer breakdown and writes the spans as trace-event JSON.
 *
 * The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * where attempted/failed count suite cells (plus, in the traced run,
 * protocol and checkpoint round-trip checks).
 *
 * Usage:
 *   suitebench --workload W --seed N --seconds S --trace 0|1
 *              --reference FILE --workdir DIR
 *   suitebench --emit-reference --workload W [--seeds K] [--out FILE]
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/thread_pool.hh"
#include "trace/packed_trace.hh"
#include "trace/trace_buffer.hh"
#include "obs/cputime.hh"
#include "obs/report.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

#include "harness.hh"

namespace {

using namespace ibp;
using namespace ibp::suitebench;

/** Set-up repetitions before each suite run; setup_s is their median. */
constexpr int kSetupReps = 5;

/** Records per row for predictors outside the workload's lineup. */
constexpr std::size_t kProbePrefix = 65536;

/** Repetitions of each checkpoint micro-timing (median reported). */
constexpr int kCheckpointReps = 5;

/** Allocations at least this large are mapped (see main()). */
constexpr int kMmapThreshold = 1 << 20;
constexpr int kTrimThreshold = 64 << 20;

/** Untraced suite runs per configuration in the traced run. */
constexpr int kOverheadRounds = 3;

/** Where the trace drains leave their checksum. */
volatile std::uint64_t drainSink = 0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    std::string reference;
    std::string workdir = ".";
    bool emitReference = false;
    unsigned seeds = kReferenceSeeds;
    std::string out;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Pass/fail tally behind the result's attempted/failed fields. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(std::uint64_t tried, std::uint64_t bad)
    {
        attempted += tried;
        failed += bad;
    }
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "suitebench: " << problem << "\n"
              << "usage: suitebench --workload W --seed N --seconds S "
                 "--trace 0|1 --reference FILE --workdir DIR\n"
              << "       suitebench --emit-reference --workload W "
                 "[--seeds K] [--out FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--emit-reference") {
            args.emitReference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            args.trace = std::atoi(value.c_str());
        else if (flag == "--reference")
            args.reference = value;
        else if (flag == "--workdir")
            args.workdir = value;
        else if (flag == "--seeds")
            args.seeds = static_cast<unsigned>(std::atoi(value.c_str()));
        else if (flag == "--out")
            args.out = value;
        else
            usage("unknown flag " + flag);
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!args.emitReference && args.reference.empty())
        usage("--reference is required");
    if (args.seconds <= 0 || (args.trace != 0 && args.trace != 1))
        usage("--seconds must be positive and --trace 0 or 1");
    return args;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec) +
           static_cast<double>(usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Records one suite run replays per column. */
std::uint64_t
suiteRecords(const std::vector<workload::BenchmarkProfile> &profiles,
             double scale)
{
    std::uint64_t total = 0;
    for (const auto &profile : profiles)
        total += static_cast<std::uint64_t>(std::llround(
            static_cast<double>(profile.records) * scale));
    return total;
}

void
removeCheckpoint(const std::string &path)
{
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    std::filesystem::remove(path + ".tmp", ignored);
}

std::size_t
timelineWindows(const sim::SuiteResult &result)
{
    std::size_t windows = 0;
    for (const auto &[row, cells] : result.timelines)
        for (const auto &[col, timeline] : cells)
            windows += timeline.windows().size();
    return windows;
}

/** What one set-up repetition builds. */
struct Setup
{
    std::vector<workload::BenchmarkProfile> profiles;
    Reference reference;
};

/**
 * One set-up: build the seeded profiles, load the reference and
 * construct each lineup predictor once.  @return seconds taken.
 */
double
setUp(const Args &args, const Workload &workload, unsigned workload_seed,
      Setup &setup)
{
    const double start = obs::wallSeconds();
    setup.profiles = seededSuite(workload_seed);
    const std::string error = loadReference(
        args.reference, workload, workload_seed, setup.reference);
    if (!error.empty()) {
        std::cerr << "suitebench: " << error << "\n";
        std::exit(1);
    }
    for (const auto &name : workload.predictors)
        sim::makePredictor(name);
    return obs::wallSeconds() - start;
}

/** One timed sim::runSuite() call, checked against the reference. */
struct SuiteRun
{
    sim::SuiteResult result;
    sim::SuiteTiming timing;
    double wallSeconds = 0;
    double cpuSeconds = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

SuiteRun
timedSuite(const Setup &setup, const Workload &workload,
           const sim::SuiteOptions &options, Checks &checks)
{
    SuiteRun run;
    removeCheckpoint(options.checkpointPath);
    // Every run pays trace generation, as a user's run does.
    sim::clearTraceCache();
    const std::uint64_t hits = sim::traceCacheHits();
    const std::uint64_t misses = sim::traceCacheMisses();
    const double cpu_start = processCpuSeconds();
    const double start = obs::wallSeconds();
    run.result = sim::runSuite(setup.profiles, workload.predictors,
                               options, &run.timing);
    run.wallSeconds = obs::wallSeconds() - start;
    run.cpuSeconds = processCpuSeconds() - cpu_start;
    run.cacheHits = sim::traceCacheHits() - hits;
    run.cacheMisses = sim::traceCacheMisses() - misses;
    removeCheckpoint(options.checkpointPath);
    checks.add(setup.reference.rows.size() *
                   setup.reference.predictors.size(),
               failedCells(run.result, setup.reference));
    return run;
}

template <typename Fn>
double
timed(SpanLog &log, std::string name, std::string layer,
      std::uint64_t parent, Fn &&fn)
{
    ScopedSpan span(log, std::move(name), std::move(layer), parent);
    fn();
    return span.elapsed();
}

sim::CellResult
cellFromMetrics(const sim::RunMetrics &metrics)
{
    sim::CellResult cell;
    cell.missPercent = metrics.missPercent();
    cell.noPredictionPercent = metrics.noPrediction.percent();
    cell.predictions = metrics.mtIndirect;
    return cell;
}

/** Encode and atomically rewrite the progress file, one span each. */
void
writeProgress(SpanLog &log, std::uint64_t parent, const std::string &path,
              const sim::SuiteProgress &progress)
{
    std::vector<std::uint8_t> bytes;
    timed(log, "encodeSuiteProgress", "sim.checkpoint", parent,
          [&] { bytes = sim::encodeSuiteProgress(progress); });
    timed(log, "writeCheckpointFile", "sim.checkpoint", parent, [&] {
        if (!sim::writeCheckpointFile(path, bytes).ok())
            std::cerr << "suitebench: cannot write " << path << "\n";
    });
}

/**
 * A suite run re-driven from this file, one public layer call per
 * span: the serial path (with the bounded, checkpointing replay when
 * the options ask for it) or the per-cell parallel path over the
 * memoized trace cache.  @p progress receives the completed cells, as
 * a checkpointing run would record them.
 */
sim::SuiteResult
tracedSuite(const std::vector<workload::BenchmarkProfile> &profiles,
            const Workload &workload, const sim::SuiteOptions &options,
            SpanLog &log, std::uint64_t root, sim::SuiteProgress &progress,
            std::uint64_t &writes)
{
    const auto &names = workload.predictors;
    sim::SuiteResult result;
    result.predictorNames = names;
    for (const auto &profile : profiles)
        result.rowNames.push_back(profile.fullName());
    result.cells.assign(profiles.size(),
                        std::vector<sim::CellResult>(names.size()));
    progress.fingerprint = sim::suiteFingerprint(profiles, names, options);
    const bool checkpointing = !options.checkpointPath.empty();

    if (options.threads <= 1) {
        for (std::size_t r = 0; r < profiles.size(); ++r) {
            const std::string &row_name = result.rowNames[r];
            ScopedSpan row(log, row_name, "sim.suite", root);
            trace::TraceBuffer buffer;
            timed(log, "generateTrace", "workload", row.id(), [&] {
                buffer =
                    sim::generateTrace(profiles[r], options.traceScale);
            });
            for (std::size_t c = 0; c < names.size(); ++c) {
                ScopedSpan cell(log, row_name + " / " + names[c],
                                "sim.cell", row.id());
                std::unique_ptr<pred::IndirectPredictor> predictor;
                timed(log, "makePredictor", "predictors", cell.id(), [&] {
                    predictor =
                        sim::makePredictor(names[c], options.factory);
                });
                sim::ReplaySession session(options.engine);
                buffer.rewind();
                if (checkpointing) {
                    for (;;) {
                        std::uint64_t ran = 0;
                        timed(log, "ReplaySession::run", "sim.engine",
                              cell.id(), [&] {
                                  ran = session.run(
                                      buffer, *predictor,
                                      options.checkpointEvery);
                              });
                        if (ran < options.checkpointEvery)
                            break;
                        timed(log, "capturePartialCell", "sim.checkpoint",
                              cell.id(), [&] {
                                  progress.partial =
                                      sim::capturePartialCell(
                                          row_name, names[c],
                                          buffer.cursor(), *predictor,
                                          session);
                              });
                        writeProgress(log, cell.id(),
                                      options.checkpointPath, progress);
                        ++writes;
                    }
                } else {
                    timed(log, "ReplaySession::run", "sim.engine",
                          cell.id(),
                          [&] { session.run(buffer, *predictor); });
                }
                sim::CompletedCell done;
                done.row = row_name;
                done.col = names[c];
                done.cell = cellFromMetrics(session.metrics());
                session.snapshotProbes(done.probes, *predictor);
                done.timeline = session.takeTimeline();
                result.cells[r][c] = done.cell;
                progress.partial = sim::PartialCell{};
                progress.cells.push_back(std::move(done));
                if (checkpointing) {
                    writeProgress(log, cell.id(), options.checkpointPath,
                                  progress);
                    ++writes;
                }
            }
        }
        return result;
    }

    std::vector<std::future<sim::CompletedCell>> futures;
    {
        util::ThreadPool pool(options.threads);
        for (std::size_t r = 0; r < profiles.size(); ++r) {
            for (std::size_t c = 0; c < names.size(); ++c) {
                futures.push_back(pool.submit([&, r, c] {
                    sim::CompletedCell done;
                    done.row = result.rowNames[r];
                    done.col = names[c];
                    ScopedSpan cell(log, done.row + " / " + done.col,
                                    "sim.cell", root);
                    std::shared_ptr<const trace::PackedTraceBuffer> buffer;
                    {
                        ScopedSpan get(log, "generateTraceCached",
                                       "sim.trace_cache", cell.id());
                        double generated = 0;
                        buffer = sim::generateTraceCached(
                            profiles[r], options.traceScale, &generated);
                        if (generated == 0)
                            get.rename("trace cache hit or wait");
                    }
                    std::unique_ptr<pred::IndirectPredictor> predictor;
                    timed(log, "makePredictor", "predictors", cell.id(),
                          [&] {
                              predictor = sim::makePredictor(
                                  names[c], options.factory);
                          });
                    trace::PackedReplaySource source(*buffer);
                    timed(log, "Engine::run", "sim.engine", cell.id(), [&] {
                        done.cell = cellFromMetrics(
                            sim::Engine(options.engine)
                                .run(source, *predictor, &done.probes,
                                     &done.timeline));
                    });
                    return done;
                }));
            }
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
            sim::CompletedCell done = futures[i].get();
            result.cells[i / names.size()][i % names.size()] = done.cell;
            progress.cells.push_back(std::move(done));
            if (checkpointing) {
                writeProgress(log, root, options.checkpointPath, progress);
                ++writes;
            }
        }
    }
    return result;
}

/** Per-predictor unit costs gathered by the layer probes. */
struct PredictorCost
{
    std::string name;
    bool inLineup = false;
    std::uint64_t records = 0;
    std::uint64_t mtIndirect = 0;
    double loopSeconds = 0;    ///< predictAndUpdate + observe
    double observeSeconds = 0; ///< observe only
    double replaySeconds = 0;  ///< Engine::run with the predictor
    std::vector<double> captureMs;
    std::vector<double> restoreMs;
    std::size_t snapshotBytes = 0;
};

/** Totals of the layer probes over every row of the workload. */
struct LayerCosts
{
    double genSeconds = 0;
    double packSeconds = 0;
    double decodeSeconds = 0;
    double spanSeconds = 0;
    double engineSeconds = 0;
    double boundedSeconds = 0;
    std::uint64_t records = 0;
    std::uint64_t mtIndirect = 0;
    std::uint64_t returns = 0;
    std::uint64_t packedBytes = 0;
    std::vector<PredictorCost> predictors;
};

/** Snapshot and restore every predictor mid-trace (ckpt.<p>.*). */
void
probeCheckpoints(SpanLog &log, std::uint64_t parent,
                 const trace::TraceBuffer &buffer,
                 const std::string &row_name, LayerCosts &costs,
                 Checks &checks)
{
    const sim::EngineConfig plain;
    for (PredictorCost &cost : costs.predictors) {
        auto predictor = sim::makePredictor(cost.name);
        sim::ReplaySession session(plain);
        trace::ReplaySource source(buffer);
        session.run(source, *predictor, kBoundedSlice);
        for (int rep = 0; rep < kCheckpointReps; ++rep) {
            sim::PartialCell partial;
            cost.captureMs.push_back(
                1e3 * timed(log, "capturePartialCell " + cost.name,
                            "sim.checkpoint", parent, [&] {
                                partial = sim::capturePartialCell(
                                    row_name, cost.name, source.cursor(),
                                    *predictor, session);
                            }));
            cost.snapshotBytes = partial.predictorState.size() +
                                 partial.engineState.size() +
                                 partial.probeState.size();
            auto restored = sim::makePredictor(cost.name);
            sim::ReplaySession restored_session(plain);
            bool ok = false;
            cost.restoreMs.push_back(
                1e3 * timed(log, "restorePartialCell " + cost.name,
                            "sim.checkpoint", parent, [&] {
                                ok = sim::restorePartialCell(
                                    partial, *restored, restored_session);
                            }));
            const sim::PartialCell again = sim::capturePartialCell(
                row_name, cost.name, source.cursor(), *restored,
                restored_session);
            checks.add(1, ok && again.predictorState ==
                                    partial.predictorState &&
                                again.engineState == partial.engineState
                              ? 0
                              : 1);
        }
    }
}

/**
 * Time each layer's public functions on the workload's own traces,
 * row by row: trace generation, packing, packed decode, the span path,
 * the engine with a null predictor (unbounded and in bounded slices),
 * and per predictor the out-of-engine protocol loop, an observe-only
 * pass and Engine::run.  Lineup predictors run whole traces; the rest
 * a kProbePrefix-record prefix of each.  The loops' outcome counts are
 * checked against Engine::run's (protocol fidelity).
 */
LayerCosts
probeLayers(const std::vector<workload::BenchmarkProfile> &profiles,
            const Workload &workload, SpanLog &log, std::uint64_t root,
            Checks &checks)
{
    LayerCosts costs;
    for (const auto &name : allLineupPredictors()) {
        PredictorCost cost;
        cost.name = name;
        cost.inLineup =
            std::find(workload.predictors.begin(),
                      workload.predictors.end(),
                      name) != workload.predictors.end();
        costs.predictors.push_back(cost);
    }
    const sim::EngineConfig plain;
    std::uint64_t sink = 0;

    for (std::size_t r = 0; r < profiles.size(); ++r) {
        const std::string row_name = profiles[r].fullName();
        ScopedSpan row(log, row_name, "layer-probes", root);
        trace::TraceBuffer buffer;
        costs.genSeconds +=
            timed(log, "generateTrace", "workload", row.id(), [&] {
                buffer =
                    sim::generateTrace(profiles[r], workload.traceScale);
            });
        const std::size_t n = buffer.size();
        costs.records += n;

        std::unique_ptr<trace::PackedTraceBuffer> packed;
        costs.packSeconds +=
            timed(log, "PackedTraceBuffer", "trace", row.id(), [&] {
                packed = std::make_unique<trace::PackedTraceBuffer>(buffer);
            });
        costs.packedBytes += packed->storageBytes();
        costs.decodeSeconds += timed(
            log, "PackedReplaySource::nextSpan", "trace", row.id(), [&] {
                trace::PackedReplaySource source(*packed);
                const trace::BranchRecord *span = nullptr;
                std::size_t k = 0;
                while ((k = source.nextSpan(span)) != 0)
                    sink += span[k - 1].pc;
            });
        packed.reset();
        costs.spanSeconds +=
            timed(log, "ReplaySource::nextSpan", "trace", row.id(), [&] {
                trace::ReplaySource source(buffer);
                const trace::BranchRecord *span = nullptr;
                std::size_t k = 0;
                while ((k = source.nextSpan(span)) != 0)
                    for (std::size_t i = 0; i < k; ++i)
                        sink += span[i].pc;
            });

        NullPredictor null;
        sim::RunMetrics null_metrics;
        costs.engineSeconds +=
            timed(log, "Engine::run null", "sim.engine", row.id(), [&] {
                trace::ReplaySource source(buffer);
                null_metrics = sim::Engine(plain).run(source, null);
            });
        costs.mtIndirect += null_metrics.mtIndirect;
        costs.returns += null_metrics.returnMisses.total();
        checks.add(1, null_metrics.branches == n ? 0 : 1);
        costs.boundedSeconds +=
            timed(log, "ReplaySession::run null", "sim.engine", row.id(),
                  [&] {
                      trace::ReplaySource source(buffer);
                      sim::ReplaySession session(plain);
                      while (session.run(source, null, kBoundedSlice) ==
                             kBoundedSlice) {
                      }
                  });

        const std::size_t prefix_n = std::min(n, kProbePrefix);
        const trace::TraceBuffer prefix(std::vector<trace::BranchRecord>(
            buffer.records().begin(),
            buffer.records().begin() +
                static_cast<std::ptrdiff_t>(prefix_n)));
        for (PredictorCost &cost : costs.predictors) {
            const trace::TraceBuffer &input =
                cost.inLineup ? buffer : prefix;
            const trace::BranchRecord *records = input.records().data();
            const std::size_t count = input.size();
            cost.records += count;

            auto looped = sim::makePredictor(cost.name);
            LoopCounts loop;
            cost.loopSeconds += timed(
                log, cost.name + " predictAndUpdate+observe", "predictors",
                row.id(),
                [&] { loop = predictorLoop(records, count, *looped); });
            cost.mtIndirect += loop.mtIndirect;

            auto observed = sim::makePredictor(cost.name);
            cost.observeSeconds +=
                timed(log, cost.name + " observe", "predictors", row.id(),
                      [&] { observeLoop(records, count, *observed); });

            auto replayed = sim::makePredictor(cost.name);
            sim::RunMetrics metrics;
            cost.replaySeconds +=
                timed(log, cost.name + " Engine::run", "sim.engine",
                      row.id(), [&] {
                          trace::ReplaySource source(input);
                          metrics = sim::Engine(plain).run(source, *replayed);
                      });
            const bool same_protocol =
                metrics.branches == loop.records &&
                metrics.mtIndirect == loop.mtIndirect &&
                metrics.indirectMisses.events() == loop.misses &&
                metrics.indirectMisses.total() - metrics.indirectMisses.events() ==
                    loop.hits;
            const bool same_engine =
                &input != &buffer ||
                (null_metrics.branches == metrics.branches &&
                 null_metrics.returnMisses.total() ==
                     metrics.returnMisses.total() &&
                 null_metrics.returnMisses.events() ==
                     metrics.returnMisses.events());
            checks.add(1, same_protocol && same_engine ? 0 : 1);
        }
        if (r == 0)
            probeCheckpoints(log, row.id(), buffer, row_name, costs, checks);
    }
    drainSink = sink; // keeps the drain loops observable
    return costs;
}

void
printBuild(const obs::BuildInfo &build)
{
    std::cout << "build: compiler=" << build.compiler
              << " type=" << build.buildType << " flags=\"" << build.flags
              << "\" git=" << build.gitSha
              << " instrumented=" << (build.instrumented ? 1 : 0) << "\n";
}

double
finite(double value)
{
    return std::isfinite(value) ? value : 0.0;
}

std::string
number(double value)
{
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", finite(value));
    return text;
}

/** Everything a run reports: the human lines, a results file and the
 *  final JSON line. */
void
report(const Args &args, const obs::BuildInfo &build,
       const std::vector<Metric> &metrics,
       const std::vector<Metric> &extras, const Checks &checks)
{
    for (const Metric &metric : metrics)
        std::cout << "  " << metric.name << " " << number(metric.value)
                  << " " << metric.unit << "\n";
    for (const Metric &metric : extras)
        std::cout << "  (info) " << metric.name << " "
                  << number(metric.value) << " " << metric.unit << "\n";

    const std::string path = args.workdir + "/" + args.workload +
                             "-seed" + std::to_string(args.seed) +
                             "-trace" + std::to_string(args.trace) +
                             ".result.json";
    std::ofstream file(path);
    {
        util::JsonWriter json(file);
        json.beginObject();
        json.key("workload").value(args.workload);
        json.key("seed").value(args.seed);
        json.key("trace").value(args.trace);
        json.key("build").beginObject();
        json.key("compiler").value(build.compiler);
        json.key("build_type").value(build.buildType);
        json.key("flags").value(build.flags);
        json.key("git_sha").value(build.gitSha);
        json.key("instrumented").value(build.instrumented);
        json.endObject();
        json.key("attempted").value(checks.attempted);
        json.key("failed").value(checks.failed);
        json.key("metrics").beginObject();
        for (const auto *list : {&metrics, &extras})
            for (const Metric &metric : *list) {
                json.key(metric.name).beginObject();
                json.key("value").value(finite(metric.value));
                json.key("unit").value(metric.unit);
                json.endObject();
            }
        json.endObject();
        json.endObject();
    }
    file << '\n';
    std::cout << "result file: " << path << "\n";

    std::string line = "{\"correct\": ";
    line += checks.failed == 0 && checks.attempted > 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(checks.attempted);
    line += ", \"failed\": " + std::to_string(checks.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::cout << line << std::endl;
}

int
timedRuns(const Args &args, const Workload &workload,
          unsigned workload_seed, Setup &setup,
          const obs::BuildInfo &build)
{
    const sim::SuiteOptions options =
        suiteOptions(workload, workload.timeline);
    const double records =
        static_cast<double>(suiteRecords(setup.profiles,
                                         workload.traceScale) *
                            workload.predictors.size());

    Checks checks;
    std::vector<double> setups, walls, cpus, rates;
    const double start = obs::wallSeconds();
    do {
        // Set-ups are sampled before every suite run, not in one burst
        // at start-up: a burst lasting a few milliseconds caught one
        // core's momentary state and came out bimodal across runs.
        for (int rep = 0; rep < kSetupReps; ++rep)
            setups.push_back(setUp(args, workload, workload_seed, setup));
        const SuiteRun run = timedSuite(setup, workload, options, checks);
        walls.push_back(run.wallSeconds);
        cpus.push_back(run.cpuSeconds);
        rates.push_back(records / run.wallSeconds);
        std::cout << "run " << walls.size() << ": wall "
                  << number(run.wallSeconds) << " s, cpu "
                  << number(run.cpuSeconds) << " s\n";
    } while (obs::wallSeconds() - start < args.seconds);

    const double paper = paperErrorPp(setup.reference);
    std::vector<Metric> metrics = {
        {"wall_s", median(walls), "s"},
        {"sim_records_per_s", median(rates), "1/s"},
        {"setup_s", median(setups), "s"},
        {"cpu_s", median(cpus), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::vector<Metric> extras = {
        {"cells_failed_ratio",
         static_cast<double>(checks.failed) /
             static_cast<double>(checks.attempted),
         "ratio"},
        {"suite_runs", static_cast<double>(walls.size()), "count"},
    };
    if (paper >= 0)
        extras.push_back({"paper_error_pp", paper, "pp"});
    report(args, build, metrics, extras, checks);
    return 0;
}

int
tracedRun(const Args &args, const Workload &workload, const Setup &setup,
          const obs::BuildInfo &build)
{
    Checks checks;
    const std::string checkpoint = args.workdir + "/" + workload.name +
                                   "." + std::to_string(getpid()) +
                                   ".ibpc";
    const auto &names = workload.predictors;
    const double cells_per_run =
        static_cast<double>(setup.profiles.size() * names.size());

    // Untraced runSuite() calls, kOverheadRounds interleaved rounds:
    // the workload's own run and, for the timeline workload, the same
    // run with the timeline off and with checkpoints added.  Overheads
    // are differences of the median walls.
    const sim::SuiteOptions own = suiteOptions(workload, workload.timeline);
    const sim::SuiteOptions checkpointed =
        suiteOptions(workload, workload.timeline, checkpoint);
    std::vector<SuiteRun> fulls;
    std::vector<double> off_walls, checkpointed_walls;
    for (int round = 0; round < kOverheadRounds; ++round) {
        fulls.push_back(timedSuite(setup, workload, own, checks));
        if (!workload.timeline)
            continue;
        off_walls.push_back(
            timedSuite(setup, workload, suiteOptions(workload, false),
                       checks)
                .wallSeconds);
        checkpointed_walls.push_back(
            timedSuite(setup, workload, checkpointed, checks).wallSeconds);
    }
    std::sort(fulls.begin(), fulls.end(),
              [](const SuiteRun &a, const SuiteRun &b) {
                  return a.wallSeconds < b.wallSeconds;
              });
    const SuiteRun &full = fulls[fulls.size() / 2];
    double ckpt_overhead = 0;
    double timeline_overhead = 0;
    if (workload.timeline) {
        ckpt_overhead = median(checkpointed_walls) - full.wallSeconds;
        timeline_overhead = full.wallSeconds - median(off_walls);
    }

    SpanLog log(workload.name + "-seed" + std::to_string(args.seed) +
                "-pid" + std::to_string(getpid()));

    // The traced suite run; the timeline workload traces its
    // checkpointing variant, so the checkpoint layer shows in the spans.
    sim::SuiteProgress progress;
    std::uint64_t writes = 0;
    double trace_overhead = 0;
    {
        ScopedSpan root(log, "suite " + workload.name, "sim.suite");
        const sim::SuiteResult traced = tracedSuite(
            setup.profiles, workload,
            workload.timeline ? checkpointed : own, log, root.id(),
            progress, writes);
        trace_overhead = root.elapsed() - (workload.timeline
                                            ? median(checkpointed_walls)
                                            : full.wallSeconds);
        checks.add(static_cast<std::uint64_t>(cells_per_run),
                   failedCells(traced, setup.reference));
    }
    removeCheckpoint(checkpoint);

    // Layer probes, then the progress file's serde round trip.
    LayerCosts costs;
    std::vector<double> encode_ms, decode_ms, write_ms;
    std::size_t file_bytes = 0;
    {
        ScopedSpan root(log, "layer probes " + workload.name,
                        "layer-probes");
        costs = probeLayers(setup.profiles, workload, log, root.id(),
                            checks);
        for (int rep = 0; rep < kCheckpointReps; ++rep) {
            std::vector<std::uint8_t> bytes;
            encode_ms.push_back(
                1e3 * timed(log, "encodeSuiteProgress", "sim.checkpoint",
                            root.id(), [&] {
                                bytes = sim::encodeSuiteProgress(progress);
                            }));
            file_bytes = bytes.size();
            sim::SuiteProgress decoded;
            bool ok = false;
            decode_ms.push_back(
                1e3 * timed(log, "decodeSuiteProgress", "sim.checkpoint",
                            root.id(), [&] {
                                ok = sim::decodeSuiteProgress(bytes,
                                                              decoded)
                                         .ok();
                            }));
            write_ms.push_back(
                1e3 * timed(log, "writeCheckpointFile", "sim.checkpoint",
                            root.id(), [&] {
                                ok = ok && sim::writeCheckpointFile(
                                               checkpoint, bytes)
                                               .ok();
                            }));
            checks.add(1, ok && decoded.cells.size() ==
                                    progress.cells.size()
                              ? 0
                              : 1);
        }
        removeCheckpoint(checkpoint);
    }

    const std::string span_path = args.workdir + "/" + workload.name +
                                  "-seed" + std::to_string(args.seed) +
                                  ".trace.json";
    log.write(span_path);
    std::cout << "span file: " << span_path << " (run id " << log.runId()
              << ")\n";

    // Attribution of the untraced run's serial-equivalent time: trace
    // generation, packing and per-cell decode on the packed path, each
    // lineup predictor's Engine::run (engine + predictor together: the
    // two overlap in the core, so their separate loop times do not
    // add), and the timeline's cost (window-clamped bounded replay plus
    // sampling).  Whatever remains is unattributed.
    const double serial_equiv = full.timing.serialEquivalentSeconds;
    const double cols = static_cast<double>(names.size());
    double attributed = costs.genSeconds + timeline_overhead;
    if (resolvedThreads(workload) > 1)
        attributed += costs.packSeconds + cols * costs.decodeSeconds;
    for (const PredictorCost &cost : costs.predictors)
        if (cost.inLineup)
            attributed += cost.replaySeconds;

    std::vector<Metric> metrics;
    const double records = static_cast<double>(costs.records);
    const auto per_record_ns = [&](double seconds) {
        return records > 0 ? 1e9 * seconds / records : 0.0;
    };
    metrics.push_back({"workload.gen_s", costs.genSeconds, "s"});
    metrics.push_back(
        {"workload.gen_records_per_s", records / costs.genSeconds, "1/s"});
    metrics.push_back({"trace.pack_s", costs.packSeconds, "s"});
    metrics.push_back({"trace.decode_ns_per_record",
                       per_record_ns(costs.decodeSeconds), "ns"});
    metrics.push_back({"trace.span_ns_per_record",
                       per_record_ns(costs.spanSeconds), "ns"});
    metrics.push_back({"trace.packed_bytes",
                       static_cast<double>(costs.packedBytes), "B"});
    metrics.push_back({"engine.ns_per_record",
                       per_record_ns(costs.engineSeconds), "ns"});
    metrics.push_back({"engine.bounded_ns_per_record",
                       per_record_ns(costs.boundedSeconds), "ns"});
    metrics.push_back({"engine.records", records, "count"});
    metrics.push_back({"engine.mt_indirect",
                       static_cast<double>(costs.mtIndirect), "count"});
    metrics.push_back(
        {"engine.returns", static_cast<double>(costs.returns), "count"});
    for (const PredictorCost &cost : costs.predictors) {
        const std::string prefix = "pred." + cost.name + ".";
        const double mt = static_cast<double>(cost.mtIndirect);
        const double n = static_cast<double>(cost.records);
        metrics.push_back(
            {prefix + "predict_update_ns",
             mt > 0 ? 1e9 *
                          std::max(0.0,
                                   cost.loopSeconds - cost.observeSeconds) /
                          mt
                    : 0.0,
             "ns"});
        metrics.push_back(
            {prefix + "observe_ns", n > 0 ? 1e9 * cost.observeSeconds / n : 0,
             "ns"});
        metrics.push_back({prefix + "replay_ns_per_record",
                           n > 0 ? 1e9 * cost.replaySeconds / n : 0, "ns"});
        metrics.push_back(
            {prefix + "share",
             cost.inLineup ? cost.loopSeconds / serial_equiv : 0.0,
             "ratio"});
    }

    std::vector<double> cell_ms;
    for (const auto &row : full.result.cells)
        for (const auto &cell : row)
            cell_ms.push_back(1e3 * cell.wallSeconds);
    // The highest percentile with at least ten cells beyond it.
    double tail_pct = 50;
    for (double pct : {75.0, 80.0, 90.0, 95.0, 99.0})
        if (static_cast<double>(cell_ms.size()) * (1 - pct / 100) >= 10)
            tail_pct = pct;
    const double threads = static_cast<double>(full.timing.threadsUsed);
    const double lookups =
        static_cast<double>(full.cacheHits + full.cacheMisses);
    metrics.push_back(
        {"suite.tracegen_s", full.timing.traceGenSeconds, "s"});
    metrics.push_back({"suite.tracegen_share",
                       full.timing.traceGenSeconds / serial_equiv,
                       "ratio"});
    metrics.push_back({"suite.serial_equiv_s", serial_equiv, "s"});
    metrics.push_back({"suite.speedup", full.timing.speedup(), "x"});
    metrics.push_back(
        {"suite.wait_share",
         1 - serial_equiv / (full.timing.wallSeconds * threads), "ratio"});
    metrics.push_back(
        {"suite.cell_p50_ms", percentile(cell_ms, 50), "ms"});
    metrics.push_back(
        {"suite.cell_tail_ms", percentile(cell_ms, tail_pct), "ms"});
    metrics.push_back({"suite.cell_tail_pct", tail_pct, "pct"});
    metrics.push_back(
        {"suite.cells", static_cast<double>(cell_ms.size()), "count"});
    metrics.push_back({"suite.trace_cache_hits",
                       static_cast<double>(full.cacheHits), "count"});
    metrics.push_back({"suite.trace_cache_misses",
                       static_cast<double>(full.cacheMisses), "count"});
    metrics.push_back(
        {"suite.trace_cache_hit_ratio",
         lookups > 0 ? static_cast<double>(full.cacheHits) / lookups : 0.0,
         "ratio"});

    metrics.push_back({"ckpt.overhead_s", ckpt_overhead, "s"});
    metrics.push_back(
        {"ckpt.writes", static_cast<double>(writes), "count"});
    metrics.push_back(
        {"ckpt.file_bytes", static_cast<double>(file_bytes), "B"});
    metrics.push_back({"ckpt.encode_ms", median(encode_ms), "ms"});
    metrics.push_back({"ckpt.decode_ms", median(decode_ms), "ms"});
    metrics.push_back({"ckpt.write_ms", median(write_ms), "ms"});
    for (const PredictorCost &cost : costs.predictors) {
        const std::string prefix = "ckpt." + cost.name + ".";
        metrics.push_back({prefix + "snapshot_bytes",
                           static_cast<double>(cost.snapshotBytes), "B"});
        metrics.push_back(
            {prefix + "capture_ms", median(cost.captureMs), "ms"});
        metrics.push_back(
            {prefix + "restore_ms", median(cost.restoreMs), "ms"});
    }
    metrics.push_back(
        {"obs.timeline_overhead_s", timeline_overhead, "s"});
    metrics.push_back({"obs.timeline_windows",
                       static_cast<double>(timelineWindows(full.result)),
                       "count"});
    metrics.push_back({"layers.unattributed_share",
                       1 - attributed / serial_equiv, "ratio"});
    metrics.push_back(
        {"layers.trace_overhead_s", trace_overhead, "s"});

    std::cout << "layer self time in the traced run (s):\n";
    for (const auto &[layer, seconds] : log.selfSeconds())
        std::cout << "  " << layer << " " << number(seconds) << "\n";
    report(args, build, metrics, {}, checks);
    return 0;
}

int
emitReference(const Args &args, const Workload &workload)
{
    std::vector<sim::SuiteResult> per_seed;
    for (unsigned s = 0; s < args.seeds; ++s) {
        sim::SuiteOptions options = suiteOptions(workload, false);
        options.threads = 1; // the serial path is the reference path
        per_seed.push_back(sim::runSuite(seededSuite(s),
                                         workload.predictors, options));
        std::cerr << workload.name << ": workload seed " << s << " done\n";
    }
    const std::string json = referenceJson(workload, per_seed);
    if (args.out.empty()) {
        std::cout << json;
        return 0;
    }
    std::ofstream out(args.out);
    out << json;
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload *workload = findWorkload(args.workload);
    if (!workload)
        usage("unknown workload " + args.workload);
    if (args.emitReference)
        return emitReference(args, *workload);

    // A fixed mmap threshold turns off glibc's adaptive one, so every
    // trace buffer is mapped and unmapped like in a fresh process and
    // peak RSS does not depend on how many suite runs fit in a run; a
    // high trim threshold keeps the small-object heap from being
    // returned and re-faulted between allocations.
    mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
    mallopt(M_TRIM_THRESHOLD, kTrimThreshold);

    const obs::BuildInfo build = obs::BuildInfo::current();
    printBuild(build);
    if (build.buildType != "Release" || build.instrumented) {
        std::cerr << "suitebench: refusing to report host time from a "
                  << build.buildType << " build"
                  << (build.instrumented ? " with probes compiled in" : "")
                  << "; configure with -DCMAKE_BUILD_TYPE=Release and "
                     "probes off\n";
        return 3;
    }

    const unsigned workload_seed =
        static_cast<unsigned>(args.seed % kReferenceSeeds);
    std::cout << "workload " << workload->name << ": seed " << args.seed
              << " (workload seed " << workload_seed << "), "
              << workload->predictors.size() << " predictors x "
              << "standard suite, trace scale " << workload->traceScale
              << ", " << resolvedThreads(*workload) << " thread(s)"
              << (workload->timeline ? ", timeline window every 100000 "
                                       "records"
                                     : "")
              << "\n";
    std::filesystem::create_directories(args.workdir);

    Setup setup;
    setUp(args, *workload, workload_seed, setup);
    if (args.trace == 1)
        return tracedRun(args, *workload, setup, build);
    return timedRuns(args, *workload, workload_seed, setup, build);
}
