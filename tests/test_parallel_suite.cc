/**
 * @file
 * Differential determinism tests for the suite scheduler: the
 * (benchmark x predictor) matrix and its probe registries must be
 * *bit-identical* for every thread count, across repeated runs, or
 * parallel sweeps cannot be trusted to reproduce the paper's figures.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/serde.hh"
#include "sim/experiment.hh"

namespace {

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

const std::vector<std::string> kPredictors = {
    "BTB", "TC-PIB", "Cascade", "PPM-hyb",
};

/** Assert two matrices are bitwise equal, cell by cell, probes too. */
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
            // EXPECT_EQ on doubles is exact comparison — deliberately:
            // the guarantee is bit-identity, not closeness.
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

class ParallelSuite : public ::testing::Test
{
  protected:
    void SetUp() override { clearTraceCache(); }
    void TearDown() override { clearTraceCache(); }
};

TEST_F(ParallelSuite, ThreadCountsProduceBitIdenticalMatrices)
{
    const auto suite = miniSuite();
    SuiteOptions options;

    options.threads = 1;
    SuiteTiming serial_timing;
    const auto serial =
        runSuite(suite, kPredictors, options, &serial_timing);
    EXPECT_EQ(serial_timing.threadsUsed, 1u);

    for (unsigned threads : {2u, 3u, 8u}) {
        options.threads = threads;
        SuiteTiming timing;
        const auto parallel =
            runSuite(suite, kPredictors, options, &timing);
        expectIdentical(serial, parallel,
                        "threads=" + std::to_string(threads));
        EXPECT_EQ(timing.threadsUsed, threads);
        EXPECT_GT(timing.wallSeconds, 0.0);
        EXPECT_GE(timing.serialEquivalentSeconds, 0.0);
    }
}

TEST_F(ParallelSuite, RepeatedRunsShakeOutSchedulingDependence)
{
    const auto suite = miniSuite();
    SuiteOptions options;
    options.threads = 1;
    const auto serial = runSuite(suite, kPredictors, options);

    // Five repetitions at varying worker counts: any dependence on
    // scheduling order would show as a flaky mismatch here.
    const unsigned counts[] = {2, 3, 4, 5, 8};
    for (unsigned threads : counts) {
        options.threads = threads;
        const auto parallel = runSuite(suite, kPredictors, options);
        expectIdentical(serial, parallel,
                        "repeat threads=" + std::to_string(threads));
    }
}

TEST_F(ParallelSuite, ZeroThreadsResolvesToHardwareConcurrency)
{
    const auto suite = miniSuite();
    SuiteOptions options;
    options.threads = 1;
    const auto serial = runSuite(suite, kPredictors, options);

    options.threads = 0;
    SuiteTiming timing;
    const auto automatic =
        runSuite(suite, kPredictors, options, &timing);
    expectIdentical(serial, automatic, "threads=0");
    EXPECT_GE(timing.threadsUsed, 1u);
}

TEST_F(ParallelSuite, SerialTimingReportsSerialPath)
{
    const auto suite = miniSuite();
    SuiteOptions options;
    options.threads = 1;
    SuiteTiming timing;
    runSuite(suite, {"BTB"}, options, &timing);
    EXPECT_EQ(timing.threadsUsed, 1u);
    EXPECT_DOUBLE_EQ(timing.wallSeconds,
                     timing.serialEquivalentSeconds);
}

TEST_F(ParallelSuite, SeedSweepInvariantToThreads)
{
    const auto suite = miniSuite();
    SuiteOptions options;
    options.threads = 1;
    const auto serial = runSeedSweep(suite, {"BTB", "PPM-hyb"},
                                     options, 3);

    options.threads = 4;
    SuiteTiming timing;
    const auto parallel = runSeedSweep(suite, {"BTB", "PPM-hyb"},
                                       options, 3, &timing);
    ASSERT_EQ(serial.perSeed.size(), parallel.perSeed.size());
    for (std::size_t s = 0; s < serial.perSeed.size(); ++s)
        for (std::size_t c = 0; c < serial.perSeed[s].size(); ++c)
            EXPECT_EQ(serial.perSeed[s][c], parallel.perSeed[s][c])
                << "seed " << s << " col " << c;
    EXPECT_EQ(timing.threadsUsed, 4u);
}

} // namespace
