/**
 * @file
 * Engine-level throughput baseline: branches/second for the standard
 * predictor set and records/s (and MB/s) for synthetic trace
 * generation, emitted both as a human-readable table and as
 * machine-readable JSON (BENCH_throughput.json) for CI artifacts and
 * regression tracking.
 *
 * Trace generation is timed the way suite rows consume it: the walker
 * refills one kReplayChunk-record span through Program::fill() until
 * kMinSeconds of wall time accumulates.
 *
 * Unlike bench_micro (google-benchmark per-predictor wall times), this
 * binary measures the production replay path end to end.  Two replay
 * configurations are timed per predictor:
 *
 *  - branches_per_sec (headline): Engine::run() over a ReplaySource,
 *    whose one nextSpan() run is the whole trace, read in place as
 *    24-byte records;
 *  - packed_branches_per_sec: the same engine over a
 *    PackedReplaySource, whose nextSpan() unpacks the 16-byte records
 *    the trace cache keeps resident into one kReplayChunk-record
 *    decode ring per run.
 *
 * The pair prices the packed format's memory savings (unpack
 * arithmetic vs. 1.5x less trace traffic) instead of hiding it.
 *
 * Usage: bench_throughput [records] [out.json] [--baseline=FILE]
 *   records  trace length (default 200000)
 *   out.json output path (default BENCH_throughput.json in the CWD)
 *   --baseline=FILE  gate this run against a committed baseline JSON:
 *     per-predictor span/packed throughput ratios are normalized by
 *     the run's median ratio (cancelling machine-speed differences
 *     between the baseline host and this one) and the process exits
 *     nonzero if any predictor, or trace generation's records/s
 *     under the same normalization, fell more than 15% below the
 *     pack.
 * Any other argument starting with "--" prints the usage line and
 * exits with status 2.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/logging.hh"
#include "trace/packed_trace.hh"
#include "obs/report.hh"
#include "workload/profiles.hh"
#include "workload/program.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Minimum measured wall time per predictor; repeat replays until hit.
constexpr double kMinSeconds = 0.5;

/// The bench_micro predictor set — engineering baselines, not a paper
/// figure, so additions are cheap and encouraged.
const std::vector<std::string> kPredictors = {
    "BTB",          "BTB2b",   "GAp",     "TC-PIB",
    "Dpath",        "Cascade", "PPM-hyb", "PPM-PIB",
    "PPM-hyb-biased", "Filtered-PPM", "ITTAGE", "Perceptron",
};

struct Timing
{
    double branchesPerSec = 0;
    std::uint64_t branches = 0;
    unsigned iterations = 0;
};

/** Replay @p source into @p engine/@p predictor until kMinSeconds of
 *  measured wall time accumulates (after one untimed warm-up). */
template <typename Source>
Timing
timeReplay(ibp::sim::Engine &engine,
           ibp::pred::IndirectPredictor &predictor, Source &source)
{
    // One untimed warm-up replay (faults pages, warms caches and the
    // predictor's own tables into their steady-state layout).
    engine.run(source, predictor);

    Timing timing;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
        source.rewind();
        const auto metrics = engine.run(source, predictor);
        timing.branches += metrics.branches;
        ++timing.iterations;
        elapsed = secondsSince(start);
    } while (elapsed < kMinSeconds);
    timing.branchesPerSec = timing.branches / elapsed;
    return timing;
}

/** Stream @p profile's walker through one replay-chunk span until
 *  kMinSeconds of wall time accumulates; returns records/s. */
double
timeTraceGeneration(const ibp::workload::BenchmarkProfile &profile)
{
    ibp::workload::Program program =
        ibp::workload::synthesize(profile.program);
    std::vector<ibp::trace::BranchRecord> chunk(
        ibp::trace::kReplayChunk);
    program.fill(chunk.data(), chunk.size()); // untimed warm-up

    std::uint64_t records = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
        program.fill(chunk.data(), chunk.size());
        records += chunk.size();
        elapsed = secondsSince(start);
    } while (elapsed < kMinSeconds);
    return records / elapsed;
}

struct PredictorResult
{
    std::string name;
    Timing span;   ///< headline: zero-copy in-place replay
    Timing packed; ///< trace-cache path: packed records, span-unpacked
};

/** Per-predictor regression tolerance after median normalization. */
constexpr double kGateTolerance = 0.85;

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Compare this run against a committed baseline JSON (schema v2 or
 * v3 — the measurement keys are unchanged).  Raw branches/s are not
 * comparable across hosts, so each predictor's fresh/baseline ratio
 * is normalized by the run's median ratio: a uniformly faster or
 * slower machine scales every ratio alike and cancels out, while one
 * predictor regressing relative to the pack stands out.  A predictor
 * is flagged when either its span or its packed normalized ratio
 * drops below kGateTolerance.  Trace generation's records/s ratio is
 * normalized by the same median and held to the same tolerance.
 * @return how many predictors (plus trace generation) were flagged
 * (0 = gate passes).
 */
int
gateAgainstBaseline(const std::vector<PredictorResult> &results,
                    double gen_records_per_sec,
                    const std::string &baseline_path)
{
    std::ifstream in(baseline_path);
    fatal_if(!in, "cannot open baseline ", baseline_path);
    const ibp::util::JsonValue root = ibp::util::parseJson(in);
    const ibp::util::JsonValue *baseline_preds =
        root.find("predictors");
    fatal_if(!baseline_preds,
             "baseline ", baseline_path, " has no predictors object");

    struct Ratio
    {
        std::string name;
        double span = 0;
        double packed = 0;
    };
    std::vector<Ratio> ratios;
    std::vector<double> all;
    for (const auto &result : results) {
        const ibp::util::JsonValue *entry =
            baseline_preds->find(result.name);
        if (!entry)
            continue; // newly added predictor: nothing to gate against
        Ratio ratio;
        ratio.name = result.name;
        ratio.span = result.span.branchesPerSec /
                     entry->get("branches_per_sec").asDouble();
        ratio.packed = result.packed.branchesPerSec /
                       entry->get("packed_branches_per_sec").asDouble();
        all.push_back(ratio.span);
        all.push_back(ratio.packed);
        ratios.push_back(ratio);
    }
    fatal_if(all.empty(),
             "baseline ", baseline_path,
             " shares no predictors with this run");

    const double scale = median(all);
    std::cout << "\nbaseline gate vs " << baseline_path
              << " (median speed ratio " << scale
              << ", tolerance " << kGateTolerance << "):\n";
    int flagged = 0;
    if (const ibp::util::JsonValue *gen = root.find("trace_gen")) {
        const double gen_norm =
            gen_records_per_sec /
            gen->get("records_per_sec").asDouble() / scale;
        const bool bad = gen_norm < kGateTolerance;
        flagged += bad ? 1 : 0;
        std::cout << "  trace_gen     records/s x" << gen_norm
                  << (bad ? "  REGRESSED\n" : "\n");
    }
    for (const auto &ratio : ratios) {
        const double span_norm = ratio.span / scale;
        const double packed_norm = ratio.packed / scale;
        const bool bad = span_norm < kGateTolerance ||
                         packed_norm < kGateTolerance;
        flagged += bad ? 1 : 0;
        std::cout << "  " << ratio.name;
        for (std::size_t pad = ratio.name.size(); pad < 14; ++pad)
            std::cout << ' ';
        std::cout << "span x" << span_norm << "  packed x"
                  << packed_norm << (bad ? "  REGRESSED\n" : "\n");
    }
    if (flagged)
        std::cout << flagged << " gated entry(ies) regressed >15% vs "
                  << "the baseline\n";
    else
        std::cout << "gate passed\n";
    return flagged;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t records = 200'000;
    std::string out_path = "BENCH_throughput.json";
    std::string baseline_path;
    std::vector<char *> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--baseline=", 0) == 0) {
            baseline_path =
                arg.substr(std::string("--baseline=").size());
        } else if (arg.rfind("--", 0) == 0) {
            // A typo (or `--baseline FILE`) is not a positional: it
            // would name the output file and skip the gate.
            std::cerr << argv[0] << ": unknown option '" << arg
                      << "'\nusage: " << argv[0]
                      << " [records] [out.json] [--baseline=FILE]\n";
            return 2;
        } else {
            positional.push_back(argv[i]);
        }
    }
    if (positional.size() > 0)
        records = std::strtoull(positional[0], nullptr, 10);
    if (positional.size() > 1)
        out_path = positional[1];
    fatal_if(records == 0, "bench_throughput: records must be > 0");

    auto profile = ibp::workload::smokeProfile();
    profile.records = records;

    // --- trace generation -----------------------------------------------
    const double gen_records_per_sec = timeTraceGeneration(profile);
    const double gen_mb_per_sec = gen_records_per_sec *
                                  sizeof(ibp::trace::BranchRecord) /
                                  (1024.0 * 1024.0);
    const ibp::trace::TraceBuffer trace =
        ibp::sim::generateTrace(profile);
    const ibp::trace::PackedTraceBuffer packed(trace);

    std::cout << "trace: " << trace.size() << " records; generation "
              << gen_records_per_sec / 1e6 << " M records/s ("
              << gen_mb_per_sec << " MB/s)\n";
    std::cout << "packed: " << packed.storageBytes() << " bytes ("
              << sizeof(ibp::trace::PackedBranchRecord)
              << " B/record)\n\n";

    // --- predictor replay -----------------------------------------------
    std::vector<PredictorResult> results;
    ibp::sim::Engine engine;
    for (const auto &name : kPredictors) {
        auto predictor = ibp::sim::makePredictor(name);

        PredictorResult result;
        result.name = name;
        {
            ibp::trace::ReplaySource source(trace);
            result.span = timeReplay(engine, *predictor, source);
        }
        predictor->reset();
        {
            ibp::trace::PackedReplaySource source(packed);
            result.packed = timeReplay(engine, *predictor, source);
        }
        results.push_back(result);

        std::cout << "  " << name;
        for (std::size_t pad = name.size(); pad < 16; ++pad)
            std::cout << ' ';
        std::cout << result.span.branchesPerSec / 1e6
                  << " M branches/s  (packed "
                  << result.packed.branchesPerSec / 1e6 << ", "
                  << result.span.iterations << "+"
                  << result.packed.iterations << " replays)\n";
    }

    // --- JSON -------------------------------------------------------------
    // v3: v2's measurement and build keys, plus per-predictor
    // iteration/branch counts so the committed file doubles as a
    // self-documenting baseline for the --baseline gate (how much
    // signal each number carries is visible in the file itself).
    const auto build = ibp::obs::BuildInfo::current();
    std::ofstream out(out_path);
    fatal_if(!out, "cannot open ", out_path, " for writing");
    {
        ibp::util::JsonWriter json(out);
        json.beginObject();
        json.key("schema").value("ibp-bench-throughput-v3");
        json.key("build").beginObject();
        json.key("compiler").value(build.compiler);
        json.key("build_type").value(build.buildType);
        json.key("flags").value(build.flags);
        json.key("git_sha").value(build.gitSha);
        json.key("instrumented").value(build.instrumented);
        json.endObject();
        json.key("records").value(std::uint64_t{trace.size()});
        json.key("trace_gen").beginObject();
        json.key("records_per_sec").value(gen_records_per_sec);
        json.key("mb_per_sec").value(gen_mb_per_sec);
        json.endObject();
        json.key("predictors").beginObject();
        for (const auto &result : results) {
            json.key(result.name).beginObject();
            json.key("branches_per_sec")
                .value(result.span.branchesPerSec);
            json.key("packed_branches_per_sec")
                .value(result.packed.branchesPerSec);
            json.key("span_iterations")
                .value(std::uint64_t{result.span.iterations});
            json.key("packed_iterations")
                .value(std::uint64_t{result.packed.iterations});
            json.endObject();
        }
        json.endObject();
        json.endObject();
    }
    out << '\n';

    std::cout << "\nwrote " << out_path << "\n";

    if (!baseline_path.empty() &&
        gateAgainstBaseline(results, gen_records_per_sec,
                            baseline_path) > 0)
        return 1;
    return 0;
}
