/**
 * @file
 * obs::RunReport: JSON round-trip fidelity, the diff engine's gating
 * policy, and a golden-report regression fixture.
 *
 * The golden test runs the golden matrix (sim::goldenMatrix(), as
 * `ibp report --emit-golden` does).  Its report must diff clean
 * (tolerance 0) against the committed
 * tests/golden/report_small.json in every build configuration —
 * timing and probe deltas are notes, never failures, which is exactly
 * what lets one fixture serve both instrumented and probe-free
 * builds.  Regenerate with IBP_REGEN_GOLDEN=1 (same knob as the suite
 * fixture).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report.hh"
#include "sim/experiment.hh"

#ifndef IBP_GOLDEN_DIR
#error "tests/CMakeLists.txt must define IBP_GOLDEN_DIR"
#endif

namespace {

using namespace ibp;

using ::testing::ExitedWithCode;

const char *const kReportFixture = IBP_GOLDEN_DIR "/report_small.json";

/** A small synthetic report exercising every section. */
obs::RunReport
sampleReport()
{
    obs::RunReport report;
    report.tool = "test_report";
    report.build.compiler = "testc 1.0";
    report.build.buildType = "Debug";
    report.build.flags = "-O0";
    report.build.gitSha = "abc123";
    report.traceScale = 0.25;
    report.threads = 2;
    report.wallSeconds = 1.5;
    report.serialEquivalentSeconds = 2.5;
    report.traceGenSeconds = 0.5;
    report.threadsUsed = 2;

    report.hasSuite = true;
    report.predictors = {"BTB", "PPM-hyb"};
    report.rows = {"perl"};
    report.cells.push_back(
        {"perl", "BTB", 30.5, 1.25, 1000, 0.1, 0.2});
    report.cells.push_back(
        {"perl", "PPM-hyb", 9.470000000000001, 0.5, 1000, 0.3, 0.4});

    report.hasSweep = true;
    report.sweep.push_back({"BTB", 30.0, 0.75});

    report.scalars["seeds"] = 5;

    report.probes["PPM-hyb"].counter("ppm/selector_flips", 42);
    report.probes["PPM-hyb"].histogram(
        "ppm/order_depth", std::vector<std::uint64_t>{1, 2, 3});

    report.phases.add("replay", 1.25, 2.5);
    return report;
}

TEST(RunReport, JsonRoundTripPreservesEverything)
{
    const obs::RunReport report = sampleReport();
    std::stringstream stream;
    obs::writeReport(stream, report);
    const obs::RunReport back = obs::readReport(stream);

    EXPECT_EQ(back.schema, obs::kReportSchema);
    EXPECT_EQ(back.tool, report.tool);
    EXPECT_EQ(back.build.compiler, report.build.compiler);
    EXPECT_EQ(back.build.buildType, report.build.buildType);
    EXPECT_EQ(back.build.flags, report.build.flags);
    EXPECT_EQ(back.build.gitSha, report.build.gitSha);
    EXPECT_EQ(back.build.instrumented, report.build.instrumented);
    EXPECT_EQ(back.traceScale, report.traceScale);
    EXPECT_EQ(back.threads, report.threads);
    EXPECT_EQ(back.wallSeconds, report.wallSeconds);
    EXPECT_EQ(back.serialEquivalentSeconds,
              report.serialEquivalentSeconds);
    EXPECT_EQ(back.traceGenSeconds, report.traceGenSeconds);
    EXPECT_EQ(back.threadsUsed, report.threadsUsed);

    ASSERT_TRUE(back.hasSuite);
    EXPECT_EQ(back.predictors, report.predictors);
    EXPECT_EQ(back.rows, report.rows);
    ASSERT_EQ(back.cells.size(), report.cells.size());
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        // Doubles must survive exactly (%.17g round-trip).
        EXPECT_EQ(back.cells[i].row, report.cells[i].row);
        EXPECT_EQ(back.cells[i].predictor,
                  report.cells[i].predictor);
        EXPECT_EQ(back.cells[i].missPercent,
                  report.cells[i].missPercent);
        EXPECT_EQ(back.cells[i].noPredictionPercent,
                  report.cells[i].noPredictionPercent);
        EXPECT_EQ(back.cells[i].predictions,
                  report.cells[i].predictions);
        EXPECT_EQ(back.cells[i].wallSeconds,
                  report.cells[i].wallSeconds);
        EXPECT_EQ(back.cells[i].cpuSeconds,
                  report.cells[i].cpuSeconds);
    }

    ASSERT_TRUE(back.hasSweep);
    ASSERT_EQ(back.sweep.size(), 1u);
    EXPECT_EQ(back.sweep[0].predictor, "BTB");
    EXPECT_EQ(back.sweep[0].mean, 30.0);
    EXPECT_EQ(back.sweep[0].stddev, 0.75);

    EXPECT_EQ(back.scalars.at("seeds"), 5.0);

    const auto &probes = back.probes.at("PPM-hyb");
    EXPECT_EQ(probes.counterValue("ppm/selector_flips"), 42u);
    const auto &depth = probes.histograms().at("ppm/order_depth");
    EXPECT_EQ(depth, (std::vector<std::uint64_t>{1, 2, 3}));

    const auto &replay = back.phases.phases().at("replay");
    EXPECT_EQ(replay.wallSeconds, 1.25);
    EXPECT_EQ(replay.cpuSeconds, 2.5);
    EXPECT_EQ(replay.entries, 1u);
}

TEST(RunReport, FindCellByNames)
{
    const obs::RunReport report = sampleReport();
    const obs::ReportCell *cell = report.findCell("perl", "BTB");
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->missPercent, 30.5);
    EXPECT_EQ(report.findCell("perl", "TAGE"), nullptr);
    EXPECT_EQ(report.findCell("eon", "BTB"), nullptr);
}

TEST(RunReport, SchemaMismatchIsFatal)
{
    obs::RunReport report = sampleReport();
    report.schema = "ibp-report-v999";
    std::stringstream stream;
    obs::writeReport(stream, report);
    EXPECT_EXIT(obs::readReport(stream), ExitedWithCode(1), "schema");
}

TEST(ReportDiff, SelfDiffIsClean)
{
    const obs::RunReport report = sampleReport();
    const obs::ReportDiff diff = obs::diffReports(report, report, 0.0);
    EXPECT_TRUE(diff.clean()) << (diff.failures.empty()
                                      ? ""
                                      : diff.failures.front());
}

TEST(ReportDiff, AccuracyDeltaBeyondToleranceFails)
{
    const obs::RunReport before = sampleReport();
    obs::RunReport after = sampleReport();
    after.cells[0].missPercent += 0.3;
    EXPECT_FALSE(obs::diffReports(before, after, 0.1).clean());
    // The same delta inside the tolerance gate passes.
    EXPECT_TRUE(obs::diffReports(before, after, 0.5).clean());
}

TEST(ReportDiff, PredictionCountMismatchAlwaysFails)
{
    const obs::RunReport before = sampleReport();
    obs::RunReport after = sampleReport();
    after.cells[1].predictions += 1;
    // A workload change gates regardless of the accuracy tolerance.
    EXPECT_FALSE(obs::diffReports(before, after, 100.0).clean());
}

TEST(ReportDiff, MissingCellFails)
{
    const obs::RunReport before = sampleReport();
    obs::RunReport after = sampleReport();
    after.cells.pop_back();
    EXPECT_FALSE(obs::diffReports(before, after, 1.0).clean());
}

TEST(ReportDiff, SweepMeanBeyondToleranceFails)
{
    const obs::RunReport before = sampleReport();
    obs::RunReport after = sampleReport();
    after.sweep[0].mean += 2.0;
    EXPECT_FALSE(obs::diffReports(before, after, 0.5).clean());
}

TEST(ReportDiff, TimingAndProbeDeltasAreNotesOnly)
{
    const obs::RunReport before = sampleReport();
    obs::RunReport after = sampleReport();
    after.wallSeconds *= 10;
    after.scalars["seeds"] = 7;
    after.probes["PPM-hyb"].counter("ppm/selector_flips", 100);
    const obs::ReportDiff diff = obs::diffReports(before, after, 0.0);
    EXPECT_TRUE(diff.clean());
    EXPECT_FALSE(diff.notes.empty());
}

// --- golden report fixture ---------------------------------------------

/** Declared before the comparison so a regen run rewrites first. */
TEST(GoldenReport, Regenerate)
{
    if (std::getenv("IBP_REGEN_GOLDEN") == nullptr)
        GTEST_SKIP() << "set IBP_REGEN_GOLDEN=1 to regenerate";
    obs::writeReportFile(kReportFixture, sim::goldenReport());
    std::cout << "regenerated " << kReportFixture << "\n";
}

TEST(GoldenReport, MatchesFixture)
{
    std::ifstream probe(kReportFixture);
    ASSERT_TRUE(probe) << "missing fixture " << kReportFixture
                       << " — regenerate with IBP_REGEN_GOLDEN=1";
    probe.close();

    const obs::RunReport fixture = obs::readReportFile(kReportFixture);
    const obs::RunReport fresh = sim::goldenReport();

    // Accuracy must match the fixture exactly in both directions (a
    // zero-tolerance diff also catches shape drift); timing and probe
    // deltas surface as notes and never gate.
    const obs::ReportDiff forward =
        obs::diffReports(fixture, fresh, 0.0);
    for (const auto &failure : forward.failures)
        ADD_FAILURE() << failure;
    const obs::ReportDiff backward =
        obs::diffReports(fresh, fixture, 0.0);
    for (const auto &failure : backward.failures)
        ADD_FAILURE() << failure;
}

} // namespace
