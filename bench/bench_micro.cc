/**
 * @file
 * google-benchmark microbenchmarks: lookup/update throughput of every
 * predictor, the fig6 and fig7 lineups replayed as one suite row (with
 * the plan pass and each column timed on their own), one-column rows
 * of the costliest columns on two suite rows, and the cost of
 * the shared primitives (SFSXS hashing, trace generation, trace
 * codecs).  These are engineering numbers for
 * users embedding the library, not paper results.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "util/table.hh"
#include "trace/trace_io.hh"
#include "workload/profiles.hh"
#include "core/sfsxs.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

const ibp::trace::TraceBuffer &
sharedTrace()
{
    static const ibp::trace::TraceBuffer trace = [] {
        auto profile = ibp::workload::smokeProfile();
        profile.records = 200'000;
        return ibp::sim::generateTrace(profile);
    }();
    return trace;
}

void
predictorThroughput(benchmark::State &state, const char *name)
{
    // A cursor over the shared immutable trace: rewindable without
    // copying the 200k-record buffer per benchmark registration.
    ibp::trace::ReplaySource source(sharedTrace());
    auto predictor = ibp::sim::makePredictor(name);
    ibp::sim::Engine engine;
    std::uint64_t branches = 0;
    for (auto _ : state) {
        source.rewind();
        const auto metrics = engine.run(source, *predictor);
        branches += metrics.branches;
        benchmark::DoNotOptimize(metrics.indirectMisses.events());
    }
    state.SetItemsProcessed(static_cast<int64_t>(branches));
}

/** A 200k-record prefix of the standard suite's row @p profile
 *  ("perl", "edg.pic", ...), generated once per profile. */
const ibp::trace::TraceBuffer &
suiteTrace(std::string_view profile)
{
    static std::map<std::string, ibp::trace::TraceBuffer, std::less<>>
        traces;
    auto it = traces.find(profile);
    if (it == traces.end()) {
        const auto suite = ibp::workload::standardSuite();
        const ibp::workload::BenchmarkProfile *found =
            ibp::workload::findProfile(suite, profile);
        if (found == nullptr)
            std::abort();
        ibp::workload::BenchmarkProfile prefix = *found;
        prefix.records = 200'000;
        it = traces.emplace(std::string(profile),
                            ibp::sim::generateTrace(prefix))
                 .first;
    }
    return it->second;
}

/**
 * A suite row: @p names replayed as the columns of one timed ReplayRow
 * over the suite trace @p profile, one plan per chunk, as runSuite()
 * replays a row.  Fresh predictors per iteration, built outside the
 * timing.  The counters split the row's time per record into the plan
 * pass (RAS, classification and history lanes) and each column's
 * replay.
 */
void
lineupRow(benchmark::State &state, const std::vector<std::string> &names,
          const char *profile)
{
    const ibp::trace::TraceBuffer &trace = suiteTrace(profile);
    double plan = 0;
    std::vector<double> columns(names.size());
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<std::unique_ptr<ibp::pred::IndirectPredictor>>
            predictors;
        std::vector<ibp::sim::ReplaySession> sessions(names.size());
        ibp::sim::ReplayRow row({}, ibp::sim::ReplayRow::Timing::On);
        for (std::size_t c = 0; c < names.size(); ++c) {
            predictors.push_back(ibp::sim::makePredictor(names[c]));
            row.addColumn(*predictors[c], sessions[c]);
        }
        state.ResumeTiming();
        row.feed(trace.records().data(), trace.size());
        row.finish();
        benchmark::DoNotOptimize(sessions[0].metrics().mtIndirect);
        plan += row.planSeconds();
        for (std::size_t c = 0; c < names.size(); ++c)
            columns[c] += row.wallSeconds(c);
    }
    const double records =
        static_cast<double>(state.iterations()) *
        static_cast<double>(trace.size());
    state.SetItemsProcessed(static_cast<int64_t>(records));
    state.counters["plan_ns"] = 1e9 * plan / records;
    for (std::size_t c = 0; c < names.size(); ++c)
        state.counters[names[c] + "_ns"] = 1e9 * columns[c] / records;
}

} // namespace

BENCHMARK_CAPTURE(lineupRow, fig6, ibp::sim::figure6Predictors(), "perl")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(lineupRow, fig7, ibp::sim::figure7Predictors(), "perl")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(lineupRow, all, ibp::sim::allPredictors(), "perl")
    ->Unit(benchmark::kMillisecond);
// One-column rows of the costliest columns, on perl and on edg.pic (a
// PIB-dominant row whose deep site only long histories resolve): each
// column's cost per record without the rest of the lineup around it.
BENCHMARK_CAPTURE(lineupRow, ITTAGE_perl,
                  std::vector<std::string>{"ITTAGE"}, "perl")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(lineupRow, ITTAGE_edg_pic,
                  std::vector<std::string>{"ITTAGE"}, "edg.pic")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(lineupRow, Perceptron_perl,
                  std::vector<std::string>{"Perceptron"}, "perl")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(lineupRow, Perceptron_edg_pic,
                  std::vector<std::string>{"Perceptron"}, "edg.pic")
    ->Unit(benchmark::kMillisecond);

#define PREDICTOR_BENCH(tag, name)                                     \
    static void BM_##tag(benchmark::State &state)                      \
    {                                                                  \
        predictorThroughput(state, name);                              \
    }                                                                  \
    BENCHMARK(BM_##tag)->Unit(benchmark::kMillisecond)

PREDICTOR_BENCH(Btb, "BTB");
PREDICTOR_BENCH(Btb2b, "BTB2b");
PREDICTOR_BENCH(Gap, "GAp");
PREDICTOR_BENCH(TargetCache, "TC-PIB");
PREDICTOR_BENCH(Dpath, "Dpath");
PREDICTOR_BENCH(Cascade, "Cascade");
PREDICTOR_BENCH(PpmHyb, "PPM-hyb");
PREDICTOR_BENCH(PpmPib, "PPM-PIB");
PREDICTOR_BENCH(FilteredPpm, "Filtered-PPM");
PREDICTOR_BENCH(Ittage, "ITTAGE");
PREDICTOR_BENCH(Perceptron, "Perceptron");

// --- AssocTable (SoA arena) primitives --------------------------------
// The tagged-table layout is the hot data structure under Dpath,
// Cascade and Filtered-PPM; these pin the per-operation cost of the
// structure-of-arrays planes so a layout regression shows up here
// before it shows up as predictor throughput.

/// A 512-set x 4-way table of 8-byte payloads (the Dpath-class shape).
constexpr std::size_t kTableSets = 512;
constexpr std::size_t kTableWays = 4;

static void
BM_AssocTableLookupHit(benchmark::State &state)
{
    ibp::util::AssocTable<std::uint64_t> table(kTableSets, kTableWays);
    // Populate every way so hit lookups scan a full set.
    for (std::uint64_t set = 0; set < kTableSets; ++set)
        for (std::uint64_t way = 0; way < kTableWays; ++way)
            table.insert({set, way + 1}, set * kTableWays + way);
    std::uint64_t key = 0;
    for (auto _ : state) {
        const std::uint64_t set = table.reduce(key);
        const std::uint64_t *entry =
            table.lookup(set, (key % kTableWays) + 1);
        benchmark::DoNotOptimize(entry);
        key += 0x9E3779B9;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AssocTableLookupHit);

static void
BM_AssocTableProbeMiss(benchmark::State &state)
{
    ibp::util::AssocTable<std::uint64_t> table(kTableSets, kTableWays);
    for (std::uint64_t set = 0; set < kTableSets; ++set)
        for (std::uint64_t way = 0; way < kTableWays; ++way)
            table.insert({set, way + 1}, 0);
    std::uint64_t key = 0;
    for (auto _ : state) {
        // Tag 0 is never inserted: every probe scans all ways and
        // misses — the worst case of the branch-free way scan.
        benchmark::DoNotOptimize(table.probe(table.reduce(key), 0));
        key += 0x9E3779B9;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AssocTableProbeMiss);

static void
BM_AssocTableInsertEvict(benchmark::State &state)
{
    ibp::util::AssocTable<std::uint64_t> table(kTableSets, kTableWays);
    std::uint64_t key = 0;
    for (auto _ : state) {
        // Distinct tags per insert keep every set at capacity, so the
        // steady state is one LRU eviction per insert.
        table.insert({table.reduce(key), key + 1}, key);
        benchmark::DoNotOptimize(table);
        key += 0x9E3779B9;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AssocTableInsertEvict);

static void
BM_SfsxsHash(benchmark::State &state)
{
    ibp::core::Sfsxs hash(ibp::core::SfsxsConfig{});
    ibp::pred::SymbolHistory phr(10, 10,
                                 ibp::pred::StreamSel::MtIndirect);
    ibp::trace::BranchRecord r;
    r.kind = ibp::trace::BranchKind::IndirectJmp;
    r.multiTarget = true;
    std::uint64_t pc = 0x120000040;
    for (auto _ : state) {
        r.target = 0x120000000 + (pc % 4096) * 4;
        phr.observe(r);
        const auto word = hash.hashWord(phr, pc);
        benchmark::DoNotOptimize(hash.index(word, 10));
        pc += 68;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SfsxsHash);

static void
BM_TraceGeneration(benchmark::State &state)
{
    auto profile = ibp::workload::smokeProfile();
    for (auto _ : state) {
        auto program = ibp::workload::synthesize(profile.program);
        auto trace = program.collect(50'000);
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(state.iterations() * 50'000);
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

static void
BM_BinaryTraceRoundTrip(benchmark::State &state)
{
    ibp::trace::ReplaySource source(sharedTrace());
    for (auto _ : state) {
        std::stringstream ss;
        ibp::trace::TraceWriter writer(ss);
        source.rewind();
        ibp::trace::pump(source, writer);
        ibp::trace::TraceReader reader(ss);
        ibp::trace::TraceBuffer out;
        benchmark::DoNotOptimize(ibp::trace::pump(reader, out));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(sharedTrace().size()));
}
BENCHMARK(BM_BinaryTraceRoundTrip)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
