/**
 * @file
 * One-pass suite replay and fused fast-path differential tests.
 *
 * The suite scheduler feeds every predictor column of a row from one
 * shared trace, chunk by chunk; it must produce the *bit-identical*
 * matrix and probe registries an independent whole-trace Engine::run
 * per cell produces (thread-count invariance is pinned in
 * test_parallel_suite.cc).  Separately, the engine's devirtualized
 * fused replay loops (Dpath / Cascade / Filtered-PPM) are checked
 * against a split predict()-then-update() reference replay over every
 * committed adversarial regression profile — the workloads fuzzing
 * found most likely to expose a predictor-state divergence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "util/serde.hh"
#include "workload/adversarial.hh"
#include "workload/profiles.hh"
#include "predictors/ras.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

namespace fs = std::filesystem;

using namespace ibp::sim;
using ibp::workload::BenchmarkProfile;

/** Three distinct profiles, small enough for many repeated runs. */
std::vector<BenchmarkProfile>
miniSuite()
{
    auto first = ibp::workload::smokeProfile();
    first.records = 15000;
    auto second = first;
    second.benchmark = "mini2";
    second.program.seed = 4242;
    auto third = first;
    third.benchmark = "mini3";
    third.program.seed = 777;
    third.program.sites.front().numTargets = 8;
    return {first, second, third};
}

/** Columns spanning every fused fast path plus the generic loop. */
const std::vector<std::string> kPredictors = {
    "BTB", "Dpath", "Cascade", "Filtered-PPM", "PPM-hyb",
};

/** Assert two suite results are bitwise equal: cells *and* probes.
 *  Timing fields are excluded — they are the only thing the replay
 *  schedule is allowed to change. */
void
expectIdentical(const SuiteResult &expected, const SuiteResult &actual,
                const std::string &label)
{
    ASSERT_EQ(expected.rowNames, actual.rowNames) << label;
    ASSERT_EQ(expected.predictorNames, actual.predictorNames) << label;
    ASSERT_EQ(expected.cells.size(), actual.cells.size()) << label;
    for (std::size_t r = 0; r < expected.cells.size(); ++r) {
        ASSERT_EQ(expected.cells[r].size(), actual.cells[r].size())
            << label;
        for (std::size_t c = 0; c < expected.cells[r].size(); ++c) {
            const CellResult &want = expected.cells[r][c];
            const CellResult &got = actual.cells[r][c];
            // Exact doubles, deliberately: the contract is
            // bit-identity, not closeness.
            EXPECT_EQ(want.missPercent, got.missPercent)
                << label << " cell (" << r << ", " << c << ")";
            EXPECT_EQ(want.noPredictionPercent, got.noPredictionPercent)
                << label << " cell (" << r << ", " << c << ")";
            EXPECT_EQ(want.predictions, got.predictions)
                << label << " cell (" << r << ", " << c << ")";
        }
    }
    // Probe registries serialize canonically (ordered maps), so two
    // registries are equal iff their bytes are.
    ASSERT_EQ(expected.probes.size(), actual.probes.size()) << label;
    for (const auto &[name, registry] : expected.probes) {
        const auto it = actual.probes.find(name);
        ASSERT_NE(it, actual.probes.end()) << label << " " << name;
        ibp::util::StateWriter want_bytes, got_bytes;
        registry.saveState(want_bytes);
        it->second.saveState(got_bytes);
        EXPECT_EQ(want_bytes.bytes(), got_bytes.bytes())
            << label << " probes for " << name;
    }
}

/** The per-cell reference: one whole-trace Engine::run per cell. */
SuiteResult
perCellReference(const std::vector<BenchmarkProfile> &suite,
                 const std::vector<std::string> &predictors)
{
    SuiteResult result;
    result.predictorNames = predictors;
    for (const BenchmarkProfile &profile : suite) {
        result.rowNames.push_back(profile.fullName());
        const ibp::trace::TraceBuffer trace = generateTrace(profile);
        std::vector<CellResult> row;
        for (const std::string &name : predictors) {
            auto predictor = makePredictor(name);
            ibp::trace::ReplaySource source(trace);
            ibp::obs::ProbeRegistry probes;
            const RunMetrics metrics =
                Engine().run(source, *predictor, &probes);
            CellResult cell;
            cell.missPercent = metrics.missPercent();
            cell.noPredictionPercent = metrics.noPrediction.percent();
            cell.predictions = metrics.mtIndirect;
            row.push_back(cell);
            result.probes[name].merge(probes);
        }
        result.cells.push_back(std::move(row));
    }
    return result;
}

TEST(OnePassSuite, SerialMatchesPerCellBitwise)
{
    const auto suite = miniSuite();
    SuiteOptions options;
    options.threads = 1;
    SuiteTiming timing;
    const auto one_pass = runSuite(suite, kPredictors, options, &timing);
    expectIdentical(perCellReference(suite, kPredictors), one_pass,
                    "one-pass serial");
    EXPECT_EQ(timing.threadsUsed, 1u);
    EXPECT_GT(timing.wallSeconds, 0.0);
}

// --- fused fast paths over the adversarial regression corpus ---------

std::vector<fs::path>
committedProfiles()
{
    std::vector<fs::path> paths;
    for (const auto &entry :
         fs::directory_iterator(IBP_REGRESSION_PROFILES_DIR))
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    return paths;
}

std::vector<std::uint8_t>
stateBytes(const ibp::pred::IndirectPredictor &predictor)
{
    ibp::util::StateWriter writer;
    predictor.saveState(writer);
    return writer.bytes();
}

/**
 * The replay protocol with *split* predict()/update() calls — the
 * reference the engine's fused, devirtualized loops must match state
 * bit for state bit.
 */
RunMetrics
splitReplay(const ibp::trace::TraceBuffer &trace,
            ibp::pred::IndirectPredictor &predictor,
            const EngineConfig &config)
{
    RunMetrics metrics;
    ibp::pred::ReturnAddressStack ras(config.rasDepth);
    const bool observes = predictor.wantsObserve();
    for (const ibp::trace::BranchRecord &record : trace.records()) {
        ++metrics.branches;
        if (record.isPredictedIndirect()) {
            ++metrics.mtIndirect;
            const auto prediction = predictor.predict(record.pc);
            predictor.update(record.pc, record.target);
            const bool miss = !prediction.hit(record.target);
            metrics.indirectMisses.sample(miss);
            metrics.noPrediction.sample(!prediction.valid);
        } else if (record.kind == ibp::trace::BranchKind::Return &&
                   config.useRas) {
            ibp::trace::Addr predicted = 0;
            const bool got = ras.pop(predicted);
            metrics.returnMisses.sample(!got ||
                                        predicted != record.target);
        }
        if (record.call && config.useRas)
            ras.push(record.pc + 4);
        if (observes)
            predictor.observe(record);
    }
    return metrics;
}

TEST(FusedRegressionProfiles, EngineFastPathsMatchSplitReplay)
{
    // The fuzzer-pinned profiles are the workloads most likely to
    // expose a divergence between the fused fast paths (slot caching,
    // LUT hashing) and the plain split protocol: they were
    // selected for perverse target churn and ranking sensitivity.
    const auto paths = committedProfiles();
    ASSERT_FALSE(paths.empty());
    const std::vector<std::string> fused_predictors = {
        "Dpath", "Cascade", "Filtered-PPM",
    };
    const EngineConfig config;
    for (const fs::path &path : paths) {
        const BenchmarkProfile profile =
            ibp::workload::loadProfileFile(path.string());
        const ibp::trace::TraceBuffer trace = generateTrace(profile);
        for (const std::string &name : fused_predictors) {
            auto fused = makePredictor(name);
            auto split = makePredictor(name);

            Engine engine(config);
            ibp::trace::ReplaySource source(trace);
            const RunMetrics via_engine = engine.run(source, *fused);
            const RunMetrics reference =
                splitReplay(trace, *split, config);

            const std::string label =
                name + " over " + path.stem().string();
            EXPECT_EQ(via_engine.branches, reference.branches)
                << label;
            EXPECT_EQ(via_engine.mtIndirect, reference.mtIndirect)
                << label;
            EXPECT_EQ(via_engine.indirectMisses.events(),
                      reference.indirectMisses.events())
                << label;
            EXPECT_EQ(via_engine.noPrediction.events(),
                      reference.noPrediction.events())
                << label;
            EXPECT_EQ(stateBytes(*fused), stateBytes(*split))
                << label << ": fused fast path diverged from the "
                << "split protocol";
        }
    }
}

} // namespace
