/**
 * @file
 * End-to-end integration tests: whole-pipeline shape checks on
 * reduced-size suite runs.  The full-suite counterparts are the bench
 * binaries; these keep the defining orderings under ctest.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "trace/trace_io.hh"
#include "workload/profiles.hh"
#include "core/ppm_predictor.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"

namespace {

using namespace ibp::sim;
using ibp::workload::BenchmarkProfile;

SuiteOptions
fastOptions()
{
    SuiteOptions options;
    options.traceScale = 0.1; // 10% of each profile's records
    return options;
}

/** Miss% of @p better and @p worse over @p profile, as one suite row. */
std::pair<double, double>
missPair(const BenchmarkProfile &profile, const std::string &better,
         const std::string &worse)
{
    const SuiteResult result =
        runSuite({profile}, {better, worse}, fastOptions());
    return {result.cells[0][0].missPercent,
            result.cells[0][1].missPercent};
}

const BenchmarkProfile &
profileNamed(const std::vector<BenchmarkProfile> &suite,
             const char *name)
{
    const auto *p = ibp::workload::findProfile(suite, name);
    EXPECT_NE(p, nullptr) << name;
    return *p;
}

TEST(Integration, PathPredictorsBeatBtbOnCorrelatedProfiles)
{
    const auto suite = ibp::workload::standardSuite();
    for (const char *name : {"perl", "photon", "troff.ped"}) {
        const auto [ppm, btb] =
            missPair(profileNamed(suite, name), "PPM-hyb", "BTB");
        EXPECT_LT(ppm, btb * 0.7) << name;
    }
}

TEST(Integration, PibOnlyWinsOnEon)
{
    // eon is built strongly PIB-correlated; the paper reports PPM-PIB
    // ahead of PPM-hyb there.
    const auto suite = ibp::workload::standardSuite();
    const auto [pib, hyb] =
        missPair(profileNamed(suite, "eon"), "PPM-PIB", "PPM-hyb");
    EXPECT_LE(pib, hyb * 1.1);
}

TEST(Integration, PhotonIsNearlyPerfectlyPredictable)
{
    const auto suite = ibp::workload::standardSuite();
    const double oracle =
        runSuite({profileNamed(suite, "photon")}, {"Oracle-PIB@8"},
                 fastOptions())
            .cells[0][0]
            .missPercent;
    // Paper: a path-length-8 PIB oracle reaches ~99.1% accuracy.
    EXPECT_LT(oracle, 3.0);
}

TEST(Integration, RasNailsReturns)
{
    ibp::trace::TraceBuffer trace =
        generateTrace(ibp::workload::smokeProfile());
    auto predictor = makePredictor("BTB");
    const RunMetrics metrics = Engine().run(trace, *predictor);
    EXPECT_GT(metrics.returnMisses.total(), 100u);
    EXPECT_LT(metrics.returnMisses.percent(), 1.0);
}

TEST(Integration, MarkovAccessesConcentrateAtHighestOrder)
{
    // Paper Section 5: ">= 98% of the accesses (and misses) occur in
    // the highest order Markov component".
    const auto profile = ibp::workload::smokeProfile();
    auto trace = generateTrace(profile);
    auto config = ibp::core::paperPpmConfig(
        ibp::core::PpmVariant::Hybrid);
    ibp::core::PpmPredictor ppm(config);
    Engine engine;
    engine.run(trace, ppm);
    const auto &accesses = ppm.core().accessHistogram();
    EXPECT_GE(accesses.fraction(10), 0.90);
}

TEST(Integration, TraceRoundTripPreservesSimulationResults)
{
    // Serialize a generated trace, read it back, and verify that a
    // predictor sees the identical stream (same misprediction count).
    const auto profile = ibp::workload::smokeProfile();
    auto trace = generateTrace(profile);

    std::stringstream ss;
    ibp::trace::TraceWriter writer(ss);
    trace.rewind();
    ibp::trace::pump(trace, writer);

    auto direct_pred = makePredictor("TC-PIB");
    Engine engine;
    trace.rewind();
    const RunMetrics direct = engine.run(trace, *direct_pred);

    ibp::trace::TraceReader reader(ss);
    auto replay_pred = makePredictor("TC-PIB");
    const RunMetrics replay = engine.run(reader, *replay_pred);

    EXPECT_EQ(direct.indirectMisses.events(),
              replay.indirectMisses.events());
    EXPECT_EQ(direct.indirectMisses.total(),
              replay.indirectMisses.total());
    EXPECT_EQ(direct.branches, replay.branches);
}

TEST(Integration, MonomorphicHeavyProfileFavoursFiltering)
{
    // eqn is built to reward the Cascade filter; the gap between
    // Cascade and the plain two-level GAp must be visible.
    const auto suite = ibp::workload::standardSuite();
    const auto [cascade, gap] =
        missPair(profileNamed(suite, "eqn"), "Cascade", "GAp");
    EXPECT_LT(cascade, gap);
}

TEST(Integration, EveryFigure6PredictorRunsOnEveryProfile)
{
    // Smoke coverage: no crashes, sane percentages, for the whole
    // matrix at tiny scale.
    auto suite = ibp::workload::standardSuite();
    SuiteOptions options;
    options.traceScale = 0.02;
    const auto result = runSuite(suite, figure6Predictors(), options);
    for (std::size_t r = 0; r < result.cells.size(); ++r) {
        for (std::size_t c = 0; c < result.cells[r].size(); ++c) {
            const auto &cell = result.cells[r][c];
            EXPECT_GE(cell.missPercent, 0.0);
            EXPECT_LE(cell.missPercent, 100.0);
            EXPECT_GT(cell.predictions, 0u);
        }
    }
}

} // namespace
