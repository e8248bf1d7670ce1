/**
 * @file
 * Tests for the suite runner and table renderer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "trace/trace_io.hh"
#include "sim/experiment.hh"

namespace {

using namespace ibp::sim;
using ibp::workload::BenchmarkProfile;

std::vector<BenchmarkProfile>
tinySuite()
{
    auto smoke = ibp::workload::smokeProfile();
    smoke.records = 20000;
    auto second = smoke;
    second.benchmark = "smoke2";
    second.program.seed = 999;
    return {smoke, second};
}

TEST(Experiment, GenerateTraceHonoursScale)
{
    const auto suite = tinySuite();
    auto full = generateTrace(suite[0], 1.0);
    auto half = generateTrace(suite[0], 0.5);
    EXPECT_EQ(full.size(), 20000u);
    EXPECT_EQ(half.size(), 10000u);
}

TEST(Experiment, GenerateTraceDeterministic)
{
    const auto suite = tinySuite();
    auto a = generateTrace(suite[0]);
    auto b = generateTrace(suite[0]);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]);
}

TEST(Experiment, StreamedTraceContainerBytesArePinned)
{
    // `trace_tool gen smoke` writes exactly these container bytes.
    // The size and FNV-1a hash were taken from the tool before it
    // streamed through Program::fill, so the file format and the
    // generated trace both stay fixed.
    const auto smoke = ibp::workload::smokeProfile();
    ibp::workload::Program program =
        ibp::workload::synthesize(smoke.program);
    std::ostringstream out;
    ibp::trace::TraceWriter writer(out);
    streamTrace(program, smoke.records, writer);
    EXPECT_EQ(writer.count(), 50'000u);

    const std::string bytes = out.str();
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (char byte : bytes)
        hash = (hash ^ static_cast<std::uint8_t>(byte)) * 0x100000001b3ULL;
    EXPECT_EQ(bytes.size(), 222'336u);
    EXPECT_EQ(hash, 0xab5b4e4c128f2fe0ULL) << std::hex << hash;
}

TEST(Experiment, RunOneProducesMetrics)
{
    const auto suite = tinySuite();
    auto trace = generateTrace(suite[0]);
    auto predictor = makePredictor("BTB");
    const RunMetrics metrics = Engine().run(trace, *predictor);
    EXPECT_GT(metrics.mtIndirect, 1000u);
    EXPECT_GT(metrics.branches, metrics.mtIndirect);
    EXPECT_GE(metrics.missPercent(), 0.0);
    EXPECT_LE(metrics.missPercent(), 100.0);
}

TEST(Experiment, SuiteMatrixShape)
{
    const auto suite = tinySuite();
    const auto result =
        runSuite(suite, {"BTB", "PPM-hyb"}, SuiteOptions{});
    ASSERT_EQ(result.rowNames.size(), 2u);
    ASSERT_EQ(result.predictorNames.size(), 2u);
    ASSERT_EQ(result.cells.size(), 2u);
    ASSERT_EQ(result.cells[0].size(), 2u);
    EXPECT_EQ(result.rowNames[0], "smoke");
    EXPECT_EQ(result.rowNames[1], "smoke2");
}

TEST(Experiment, AveragesAreColumnMeans)
{
    const auto suite = tinySuite();
    const auto result =
        runSuite(suite, {"BTB", "PPM-hyb"}, SuiteOptions{});
    const auto avg = result.averages();
    ASSERT_EQ(avg.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
        const double expect = (result.cells[0][c].missPercent +
                               result.cells[1][c].missPercent) /
                              2.0;
        EXPECT_NEAR(avg[c], expect, 1e-12);
    }
}

TEST(Experiment, CellLookupByName)
{
    const auto suite = tinySuite();
    const auto result = runSuite(suite, {"BTB"}, SuiteOptions{});
    const auto &cell = result.cell("smoke2", "BTB");
    EXPECT_EQ(&cell, &result.cells[1][0]);
}

TEST(Experiment, PpmBeatsBtbOnCorrelatedSmoke)
{
    // The smoke profile is strongly path-correlated with tiny noise:
    // the defining qualitative result must already show here.
    const auto suite = tinySuite();
    const auto result =
        runSuite(suite, {"BTB", "PPM-hyb"}, SuiteOptions{});
    for (std::size_t r = 0; r < result.cells.size(); ++r) {
        EXPECT_LT(result.cells[r][1].missPercent,
                  result.cells[r][0].missPercent)
            << result.rowNames[r];
    }
}

TEST(Experiment, PrintedTableWellFormed)
{
    const auto suite = tinySuite();
    const auto result = runSuite(suite, {"BTB"}, SuiteOptions{});
    std::ostringstream os;
    printSuiteTable(os, result);
    const std::string text = os.str();
    EXPECT_NE(text.find("benchmark"), std::string::npos);
    EXPECT_NE(text.find("smoke"), std::string::npos);
    EXPECT_NE(text.find("average"), std::string::npos);
    EXPECT_NE(text.find("BTB"), std::string::npos);
}

TEST(Experiment, SeedSweepShapesAndStats)
{
    const auto suite = tinySuite();
    SuiteOptions options;
    const auto sweep =
        runSeedSweep(suite, {"BTB", "PPM-hyb"}, options, 3);
    ASSERT_EQ(sweep.perSeed.size(), 3u);
    ASSERT_EQ(sweep.mean.size(), 2u);
    ASSERT_EQ(sweep.stddev.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
        double lo = 1e9;
        double hi = -1e9;
        for (const auto &row : sweep.perSeed) {
            lo = std::min(lo, row[c]);
            hi = std::max(hi, row[c]);
        }
        EXPECT_GE(sweep.mean[c], lo);
        EXPECT_LE(sweep.mean[c], hi);
        EXPECT_GE(sweep.stddev[c], 0.0);
    }
    // Different seeds must actually change the workload.
    EXPECT_NE(sweep.perSeed[0][0], sweep.perSeed[1][0]);
    // The qualitative result survives reseeding on this workload.
    for (const auto &row : sweep.perSeed)
        EXPECT_LT(row[1], row[0]); // PPM beats BTB on every seed
}

TEST(Experiment, SeedSweepSingleSeedMatchesSuiteRunShape)
{
    const auto suite = tinySuite();
    SuiteOptions options;
    const auto sweep =
        runSeedSweep(suite, {"BTB"}, options, 1);
    ASSERT_EQ(sweep.perSeed.size(), 1u);
    EXPECT_DOUBLE_EQ(sweep.mean[0], sweep.perSeed[0][0]);
    EXPECT_DOUBLE_EQ(sweep.stddev[0], 0.0);
}

TEST(Experiment, TraceGenerationTimeIsPartOfTheSuiteTime)
{
    // Generation is interleaved with replay chunk by chunk; its summed
    // fill time must still show, and must stay a share of the whole.
    SuiteOptions options;
    options.threads = 1;
    SuiteTiming timing;
    runSuite(tinySuite(), {"BTB", "PPM-hyb"}, options, &timing);
    EXPECT_GT(timing.traceGenSeconds, 0.0);
    EXPECT_LT(timing.traceGenSeconds, timing.serialEquivalentSeconds);
}

TEST(Experiment, PlanTimeIsPartOfTheSuiteTime)
{
    // Each chunk is planned once per row, between generation and the
    // columns' replays; its summed time shows and stays a share.
    SuiteOptions options;
    options.threads = 1;
    SuiteTiming timing;
    runSuite(tinySuite(), {"BTB", "PPM-hyb"}, options, &timing);
    EXPECT_GT(timing.planSeconds, 0.0);
    EXPECT_LT(timing.planSeconds, timing.serialEquivalentSeconds);
}

TEST(Experiment, PaperAveragesKnown)
{
    EXPECT_DOUBLE_EQ(paperAverageFor("PPM-hyb"), 9.47);
    EXPECT_DOUBLE_EQ(paperAverageFor("Cascade"), 11.48);
    EXPECT_DOUBLE_EQ(paperAverageFor("TC-PIB"), 13.0);
    EXPECT_LT(paperAverageFor("BTB"), 0.0);
}

} // namespace
