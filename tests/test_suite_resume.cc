/**
 * @file
 * Resume semantics of the suite runner's checkpoint/restore path.
 *
 * The contract under test: a suite run that resumes from a progress
 * file — whatever that file holds — produces a result matrix
 * bit-identical (cells and probe registries; timing excepted) to an
 * uninterrupted run of the same configuration.  That covers resuming
 * from a half-finished file (the kill-and-restart case), from mid-row
 * snapshots of several in-flight cells at different cursors, at one
 * and at several threads, and — crucially — from files that must
 * NOT be trusted: corrupt bytes and checkpoints written by a different
 * configuration both downgrade to a warn() and a fresh, correct run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/serde.hh"
#include "workload/profiles.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

using namespace ibp;
using namespace ibp::sim;

const std::vector<std::string> kPredictors = {"BTB", "PPM-hyb",
                                              "Cascade"};

/** Two small, distinct benchmark rows (same substrate, re-seeded). */
std::vector<workload::BenchmarkProfile>
testProfiles()
{
    auto first = workload::smokeProfile();
    auto second = workload::smokeProfile();
    second.benchmark = first.benchmark + "-alt";
    second.program.seed ^= 0x9e3779b9ULL;
    return {first, second};
}

SuiteOptions
baseOptions()
{
    SuiteOptions options;
    options.traceScale = 0.2; // 10k records per row: fast, non-trivial
    options.threads = 1;
    return options;
}

/** A scratch progress-file path unique to the calling test. */
std::string
scratchPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "ibp_resume_" +
                             name + ".ckpt";
    std::remove(path.c_str());
    return path;
}

/** Timing-insensitive equality of two suite results. */
void
expectSameResult(const SuiteResult &want, const SuiteResult &got,
                 const char *label)
{
    ASSERT_EQ(want.rowNames, got.rowNames) << label;
    ASSERT_EQ(want.predictorNames, got.predictorNames) << label;
    for (std::size_t r = 0; r < want.rowNames.size(); ++r) {
        for (std::size_t c = 0; c < want.predictorNames.size(); ++c) {
            const CellResult &a = want.cells[r][c];
            const CellResult &b = got.cells[r][c];
            const std::string where = std::string(label) + ": (" +
                                      want.rowNames[r] + ", " +
                                      want.predictorNames[c] + ")";
            EXPECT_EQ(a.missPercent, b.missPercent) << where;
            EXPECT_EQ(a.noPredictionPercent, b.noPredictionPercent)
                << where;
            EXPECT_EQ(a.predictions, b.predictions) << where;
        }
    }
    ASSERT_EQ(want.probes.size(), got.probes.size()) << label;
    for (const auto &[name, registry] : want.probes) {
        const auto it = got.probes.find(name);
        ASSERT_NE(it, got.probes.end()) << label << ": " << name;
        EXPECT_EQ(registry.counters(), it->second.counters())
            << label << ": " << name;
        EXPECT_EQ(registry.histograms(), it->second.histograms())
            << label << ": " << name;
    }
}

/** Byte-for-byte equality of two results' timelines. */
void
expectSameTimelines(const SuiteResult &want, const SuiteResult &got,
                    const char *label)
{
    ASSERT_FALSE(want.timelines.empty()) << label;
    ASSERT_EQ(want.timelines.size(), got.timelines.size()) << label;
    for (const auto &[row, columns] : want.timelines)
        for (const auto &[name, timeline] : columns) {
            util::StateWriter want_bytes;
            util::StateWriter got_bytes;
            timeline.saveState(want_bytes);
            got.timelines.at(row).at(name).saveState(got_bytes);
            EXPECT_EQ(want_bytes.bytes(), got_bytes.bytes())
                << label << ": " << row << " x " << name;
        }
}

SuiteResult
runBaseline()
{
    clearTraceCache();
    return runSuite(testProfiles(), kPredictors, baseOptions());
}

TEST(SuiteResume, UninterruptedCheckpointedRunMatchesPlainRun)
{
    const SuiteResult baseline = runBaseline();

    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("plain");
    clearTraceCache();
    const SuiteResult checkpointed =
        runSuite(testProfiles(), kPredictors, options);
    expectSameResult(baseline, checkpointed, "checkpointing on");

    // The finished progress file holds every cell and validates.
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readCheckpointFile(options.checkpointPath, bytes).ok());
    SuiteProgress progress;
    ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok());
    EXPECT_EQ(progress.cells.size(),
              testProfiles().size() * kPredictors.size());
    EXPECT_TRUE(progress.partials.empty());
    EXPECT_EQ(progress.fingerprint,
              suiteFingerprint(testProfiles(), kPredictors, options));
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, ResumesFromHalfFinishedFile)
{
    const SuiteResult baseline = runBaseline();

    // Produce a complete progress file, then chop it down to the state
    // an interrupted run would have left: the first half of the cells.
    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("half");
    clearTraceCache();
    runSuite(testProfiles(), kPredictors, options);

    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readCheckpointFile(options.checkpointPath, bytes).ok());
    SuiteProgress progress;
    ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok());
    progress.cells.resize(progress.cells.size() / 2);
    ASSERT_TRUE(writeCheckpointFile(options.checkpointPath,
                                    encodeSuiteProgress(progress))
                    .ok());

    options.resume = true;
    clearTraceCache();
    const SuiteResult resumed =
        runSuite(testProfiles(), kPredictors, options);
    expectSameResult(baseline, resumed, "resume from half");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, ResumesMidCellFromPartialSnapshot)
{
    const SuiteResult baseline = runBaseline();

    // Hand-build the progress file an interrupted serial run leaves
    // mid-cell: zero completed cells plus a partial snapshot of the
    // very first cell taken 4000 records in.
    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("partial");
    options.resume = true;

    const auto profiles = testProfiles();
    trace::TraceBuffer trace =
        generateTrace(profiles[0], options.traceScale);
    auto predictor = makePredictor(kPredictors[0]);
    ReplaySession session(options.engine);
    const std::uint64_t k = 4000;
    ASSERT_EQ(session.run(trace, *predictor, k), k);

    SuiteProgress progress;
    progress.fingerprint =
        suiteFingerprint(profiles, kPredictors, options);
    progress.partial = capturePartialCell(
        profiles[0].fullName(), kPredictors[0], k, *predictor, session);
    ASSERT_TRUE(progress.partial.valid);
    ASSERT_TRUE(writeCheckpointFile(options.checkpointPath,
                                    encodeSuiteProgress(progress))
                    .ok());

    clearTraceCache();
    const SuiteResult resumed =
        runSuite(profiles, kPredictors, options);
    expectSameResult(baseline, resumed, "mid-cell resume");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, CorruptFileWarnsAndRunsFresh)
{
    const SuiteResult baseline = runBaseline();

    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("corrupt");
    options.resume = true;
    {
        std::ofstream out(options.checkpointPath, std::ios::binary);
        out << "this is not a checkpoint";
    }

    util::resetWarnCount();
    clearTraceCache();
    const SuiteResult resumed =
        runSuite(testProfiles(), kPredictors, options);
    EXPECT_GE(util::warnCount(), 1u)
        << "a corrupt resume file must be called out";
    expectSameResult(baseline, resumed, "corrupt file fallback");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, ForeignFingerprintWarnsAndRunsFresh)
{
    const SuiteResult baseline = runBaseline();

    // A structurally valid progress file whose cells answer a
    // *different* question (other trace scale -> other fingerprint).
    // Trusting it would silently produce wrong numbers.
    SuiteOptions foreign = baseOptions();
    foreign.traceScale = 0.1;
    foreign.checkpointPath = scratchPath("foreign");
    clearTraceCache();
    runSuite(testProfiles(), kPredictors, foreign);

    SuiteOptions options = baseOptions();
    options.checkpointPath = foreign.checkpointPath;
    options.resume = true;
    util::resetWarnCount();
    clearTraceCache();
    const SuiteResult resumed =
        runSuite(testProfiles(), kPredictors, options);
    EXPECT_GE(util::warnCount(), 1u);
    expectSameResult(baseline, resumed, "foreign fingerprint");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, MissingFileIsQuietOnFirstRun)
{
    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("firstrun");
    options.resume = true; // resume requested, nothing to resume from
    util::resetWarnCount();
    clearTraceCache();
    const SuiteResult resumed =
        runSuite(testProfiles(), kPredictors, options);
    EXPECT_EQ(util::warnCount(), 0u)
        << "a missing file is the normal first run, not a problem";
    expectSameResult(runBaseline(), resumed, "first run");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, ParallelRunnerResumesAtCellGranularity)
{
    const SuiteResult baseline = runBaseline();

    SuiteOptions options = baseOptions();
    options.threads = 4;
    options.checkpointPath = scratchPath("parallel");
    clearTraceCache();
    runSuite(testProfiles(), kPredictors, options);

    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readCheckpointFile(options.checkpointPath, bytes).ok());
    SuiteProgress progress;
    ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok());
    progress.cells.resize(progress.cells.size() / 2);
    ASSERT_TRUE(writeCheckpointFile(options.checkpointPath,
                                    encodeSuiteProgress(progress))
                    .ok());

    options.resume = true;
    clearTraceCache();
    const SuiteResult resumed =
        runSuite(testProfiles(), kPredictors, options);
    expectSameResult(baseline, resumed, "parallel resume");
    std::remove(options.checkpointPath.c_str());
}

/** Snapshot @p name on @p profile after @p cursor records. */
PartialCell
partialAt(const workload::BenchmarkProfile &profile,
          const std::string &name, const SuiteOptions &options,
          std::uint64_t cursor)
{
    trace::TraceBuffer trace =
        generateTrace(profile, options.traceScale);
    auto predictor = makePredictor(name);
    ReplaySession session(options.engine);
    EXPECT_EQ(session.run(trace, *predictor, cursor), cursor);
    return capturePartialCell(profile.fullName(), name, cursor,
                              *predictor, session);
}

TEST(SuiteResume, ParallelResumesFromFileCutAfterMidRowSnapshot)
{
    const SuiteResult baseline = runBaseline();

    // The file a four-thread run with a 2000-record cadence leaves
    // when killed right after a snapshot: no completed cell, and every
    // column of both rows in flight at the same multiple of the
    // cadence.
    SuiteOptions options = baseOptions();
    options.threads = 4;
    options.checkpointEvery = 2000;
    options.checkpointPath = scratchPath("parallel_mid_row");
    options.resume = true;
    const auto profiles = testProfiles();
    SuiteProgress progress;
    progress.fingerprint =
        suiteFingerprint(profiles, kPredictors, options);
    for (const auto &profile : profiles)
        for (const auto &name : kPredictors)
            progress.partials.push_back(
                partialAt(profile, name, options, 6000));
    ASSERT_TRUE(writeCheckpointFile(options.checkpointPath,
                                    encodeSuiteProgress(progress))
                    .ok());

    util::resetWarnCount();
    const SuiteResult resumed =
        runSuite(profiles, kPredictors, options);
    EXPECT_EQ(util::warnCount(), 0u) << "every snapshot must restore";
    expectSameResult(baseline, resumed, "parallel mid-row resume");

    // The finished file holds every cell and no stale snapshot.
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readCheckpointFile(options.checkpointPath, bytes).ok());
    SuiteProgress finished;
    ASSERT_TRUE(decodeSuiteProgress(bytes, finished).ok());
    EXPECT_EQ(finished.cells.size(),
              profiles.size() * kPredictors.size());
    EXPECT_TRUE(finished.partials.empty());
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, ColumnsOfOneRowResumeAtDifferentCursors)
{
    // Timelines on, so the restored samplers' partial windows are
    // exercised too.
    SuiteOptions options = baseOptions();
    options.engine.timeline.interval = 1500;
    const auto profiles = testProfiles();
    const SuiteResult baseline =
        runSuite(profiles, kPredictors, options);

    // Row 0: BTB finished, PPM-hyb 1000 records in, Cascade 7000 in
    // (cursors off any window boundary).  Row 1: untouched.
    options.checkpointPath = scratchPath("mixed_cursors");
    options.checkpointEvery = 2500;
    options.resume = true;
    SuiteProgress progress;
    progress.fingerprint =
        suiteFingerprint(profiles, kPredictors, options);
    CompletedCell done;
    done.row = profiles[0].fullName();
    done.col = kPredictors[0];
    done.cell = baseline.cells[0][0];
    {
        trace::TraceBuffer trace =
            generateTrace(profiles[0], options.traceScale);
        auto predictor = makePredictor(kPredictors[0]);
        ReplaySession session(options.engine);
        session.run(trace, *predictor);
        session.snapshotProbes(done.probes, *predictor);
        done.timeline = session.takeTimeline();
    }
    progress.cells.push_back(done);
    progress.partials.push_back(
        partialAt(profiles[0], kPredictors[1], options, 1000));
    progress.partials.push_back(
        partialAt(profiles[0], kPredictors[2], options, 7000));
    ASSERT_TRUE(writeCheckpointFile(options.checkpointPath,
                                    encodeSuiteProgress(progress))
                    .ok());

    util::resetWarnCount();
    const SuiteResult resumed =
        runSuite(profiles, kPredictors, options);
    EXPECT_EQ(util::warnCount(), 0u) << "every snapshot must restore";
    expectSameResult(baseline, resumed, "mixed-cursor resume");
    expectSameTimelines(baseline, resumed, "mixed-cursor resume");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, CadencesOffTheReplayChunkDoNotChangeResults)
{
    // Rows stream from the walker in replay chunks clamped to the
    // cadence; neither 1000 nor 5000 divides or is divided by the
    // 4096-record chunk, so chunks of every length meet here.
    SuiteOptions options = baseOptions();
    options.engine.timeline.interval = 1500;
    const auto profiles = testProfiles();
    const SuiteResult baseline =
        runSuite(profiles, kPredictors, options);

    for (std::uint64_t every : {1000u, 5000u}) {
        const std::string label =
            "checkpointEvery=" + std::to_string(every);
        options.checkpointPath = scratchPath("cadence_" +
                                             std::to_string(every));
        options.checkpointEvery = every;
        const SuiteResult chunked =
            runSuite(profiles, kPredictors, options);
        expectSameResult(baseline, chunked, label.c_str());
        expectSameTimelines(baseline, chunked, label.c_str());
        std::remove(options.checkpointPath.c_str());
    }
}

TEST(SuiteResume, ResumeWithEveryColumnAtOneCursorSkipsTheFedPrefix)
{
    // Every pending column of every row was snapshotted at the same
    // cursor, past the first replay chunk: the walker regenerates that
    // prefix without feeding it to anyone.  The cursor is off this
    // run's cadence (the file may come from a run with another one),
    // so the first chunk fed starts mid-chunk.
    SuiteOptions options = baseOptions();
    options.engine.timeline.interval = 1500;
    const auto profiles = testProfiles();
    const SuiteResult baseline =
        runSuite(profiles, kPredictors, options);

    options.checkpointPath = scratchPath("shared_cursor");
    options.checkpointEvery = 1000;
    options.resume = true;
    SuiteProgress progress;
    progress.fingerprint =
        suiteFingerprint(profiles, kPredictors, options);
    for (const auto &profile : profiles)
        for (const auto &name : kPredictors)
            progress.partials.push_back(
                partialAt(profile, name, options, 4500));
    ASSERT_TRUE(writeCheckpointFile(options.checkpointPath,
                                    encodeSuiteProgress(progress))
                    .ok());

    util::resetWarnCount();
    const SuiteResult resumed =
        runSuite(profiles, kPredictors, options);
    EXPECT_EQ(util::warnCount(), 0u) << "every snapshot must restore";
    expectSameResult(baseline, resumed, "shared-cursor resume");
    expectSameTimelines(baseline, resumed, "shared-cursor resume");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, PartialWhoseCursorDisagreesWithItsStateRunsFresh)
{
    // A snapshot's cursor field must match the record count its engine
    // state has replayed.  Trusting a crafted or corrupt field feeds
    // the column from the wrong record: one record off, a replay plan
    // crosses a timeline window; further off, the cell silently skips
    // records.  Such a snapshot is unusable, like a corrupt blob.
    SuiteOptions options;
    options.threads = 1;
    options.engine.timeline.interval = 1000;
    options.checkpointEvery = 10000;
    const std::vector<workload::BenchmarkProfile> profiles = {
        workload::smokeProfile()}; // 50k records
    const std::vector<std::string> names = {"PPM-hyb"};
    const SuiteResult baseline = runSuite(profiles, names, options);

    options.resume = true;
    const PartialCell honest =
        partialAt(profiles[0], names[0], options, 20000);
    ASSERT_TRUE(honest.valid);
    for (const std::int64_t skew : {-1, 1, 3000}) {
        const std::string label = "cursor skew " + std::to_string(skew);
        options.checkpointPath =
            scratchPath("skewed_cursor_" + std::to_string(skew + 1));
        SuiteProgress progress;
        progress.fingerprint =
            suiteFingerprint(profiles, names, options);
        progress.partials.push_back(honest);
        progress.partials.back().cursor =
            static_cast<std::uint64_t>(20000 + skew);
        ASSERT_TRUE(writeCheckpointFile(options.checkpointPath,
                                        encodeSuiteProgress(progress))
                        .ok());

        util::resetWarnCount();
        const SuiteResult resumed = runSuite(profiles, names, options);
        EXPECT_GE(util::warnCount(), 1u)
            << label << ": a disagreeing cursor must be called out";
        expectSameResult(baseline, resumed, label.c_str());
        expectSameTimelines(baseline, resumed, label.c_str());
        std::remove(options.checkpointPath.c_str());
    }
}

TEST(SuiteResume, MidCellCadenceDoesNotChangeResults)
{
    const SuiteResult baseline = runBaseline();

    // 700 deliberately does not divide the 10k-record rows, so the
    // last slice of every cell is shorter than the cadence.
    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("cadence");
    options.checkpointEvery = 700;
    clearTraceCache();
    const SuiteResult chopped =
        runSuite(testProfiles(), kPredictors, options);
    expectSameResult(baseline, chopped, "checkpointEvery=700");
    std::remove(options.checkpointPath.c_str());
}

} // namespace
