/**
 * @file
 * The timeline layer's determinism contract, bottom to top:
 *
 *  - TimelineSampler boundary arithmetic, delta bookkeeping, and the
 *    idempotent final flush;
 *  - replay chunking invariance: a run chopped at arbitrary limits
 *    produces the same timeline *bytes* as a one-shot run;
 *  - warmup/steady-state segmentation on synthetic step/ramp/flat
 *    curves, and milestone derivation from counter series;
 *  - Timeline serde round trip plus corruption rejection;
 *  - suite-level bit-identity between the suite scheduler at every
 *    thread count and an independent whole-trace replay per cell;
 *  - straight-vs-resumed byte identity for the full factory lineup,
 *    splitting mid-window so the sampler's partial-window state is
 *    actually exercised;
 *  - a committed golden fixture (tests/golden/timeline_small.json,
 *    same configuration as `timeline_tool --emit-golden`) every build
 *    must reproduce exactly.
 *
 * Regenerate the fixture with
 *
 *     IBP_REGEN_GOLDEN=1 ./ibp_tests --gtest_filter='TimelineGolden.*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "util/serde.hh"
#include "obs/report.hh"
#include "obs/timeline.hh"
#include "workload/profiles.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

#ifndef IBP_GOLDEN_DIR
#error "tests/CMakeLists.txt must define IBP_GOLDEN_DIR"
#endif

namespace {

using namespace ibp;
using namespace ibp::sim;

/** Canonical bytes of a timeline — the identity the layer promises. */
std::vector<std::uint8_t>
timelineBytes(const obs::Timeline &timeline)
{
    util::StateWriter writer;
    timeline.saveState(writer);
    return writer.bytes();
}

// --- sampler mechanics ------------------------------------------------

TEST(TimelineSampler, BoundariesAreStrictlyAheadMultiples)
{
    obs::TimelineConfig config;
    config.interval = 100;
    obs::TimelineSampler sampler(config);
    EXPECT_EQ(sampler.nextBoundary(0), 100u);
    EXPECT_EQ(sampler.nextBoundary(99), 100u);
    EXPECT_EQ(sampler.nextBoundary(100), 200u);
    EXPECT_EQ(sampler.nextBoundary(150), 200u);
}

TEST(TimelineSampler, WindowsHoldDeltasAndFlushIsIdempotent)
{
    obs::TimelineConfig config;
    config.interval = 100;
    obs::TimelineSampler sampler(config);

    obs::TimelineSample at_100;
    at_100.branches = 100;
    at_100.predictions = 50;
    at_100.misses = 10;
    at_100.noPredictions = 5;
    sampler.sample(at_100, nullptr);

    // The exhaustion double-flush case: same position, no new window.
    sampler.sample(at_100, nullptr);

    obs::TimelineSample at_230; // a final, partial window
    at_230.branches = 230;
    at_230.predictions = 80;
    at_230.misses = 12;
    at_230.noPredictions = 5;
    sampler.sample(at_230, nullptr);

    const auto &windows = sampler.timeline().windows();
    ASSERT_EQ(windows.size(), 2u);
    EXPECT_EQ(windows[0].endBranch, 100u);
    EXPECT_EQ(windows[0].predictions, 50u);
    EXPECT_EQ(windows[0].misses, 10u);
    EXPECT_EQ(windows[0].noPredictions, 5u);
    EXPECT_EQ(windows[1].endBranch, 230u);
    EXPECT_EQ(windows[1].predictions, 30u); // 80 - 50: a delta
    EXPECT_EQ(windows[1].misses, 2u);
    EXPECT_EQ(windows[1].noPredictions, 0u);
    EXPECT_EQ(windows[0].missPercent(), 20.0);
}

TEST(TimelineSampler, ReplayChunkingDoesNotChangeTheBytes)
{
    const auto profile = workload::smokeProfile();
    EngineConfig config;
    config.timeline.interval = 4000;

    // One shot to exhaustion.
    trace::TraceBuffer trace = generateTrace(profile, 0.2);
    auto predictor = makePredictor("PPM-hyb");
    ReplaySession one_shot(config);
    trace.rewind();
    one_shot.run(trace, *predictor);
    const auto want = timelineBytes(one_shot.timeline());
    ASSERT_FALSE(one_shot.timeline().empty());

    // The same records through deliberately awkward limits: shorter
    // than a window, window-straddling, and a 1-record sliver.
    predictor = makePredictor("PPM-hyb");
    ReplaySession chunked(config);
    trace.rewind();
    for (const std::uint64_t limit : {1ull, 999ull, 4096ull, 7ull})
        chunked.run(trace, *predictor, limit);
    chunked.run(trace, *predictor);
    EXPECT_EQ(timelineBytes(chunked.timeline()), want)
        << "timeline depends on replay chunking";
}

// --- serde ------------------------------------------------------------

TEST(TimelineSerde, RoundTripsExactly)
{
    obs::Timeline timeline;
    timeline.setInterval(500);
    obs::TimelineWindow window;
    window.endBranch = 500;
    window.predictions = 123;
    window.misses = 45;
    window.noPredictions = 6;
    window.counters["btb/replacements"] = 7;
    window.counters["ras/overflows"] = 2;
    timeline.append(window);
    window.endBranch = 730;
    timeline.append(window);
    const auto bytes = timelineBytes(timeline);

    obs::Timeline restored;
    util::StateReader reader(bytes);
    restored.loadState(reader);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(timelineBytes(restored), bytes);
    ASSERT_EQ(restored.windows().size(), 2u);
    EXPECT_EQ(restored.windows()[1].endBranch, 730u);
    EXPECT_EQ(restored.windows()[0].counters.at("ras/overflows"), 2u);
}

TEST(TimelineSerde, TruncatedBytesFailTheReaderAndClear)
{
    obs::Timeline timeline;
    timeline.setInterval(100);
    obs::TimelineWindow window;
    window.endBranch = 100;
    window.predictions = 10;
    timeline.append(window);
    auto bytes = timelineBytes(timeline);
    bytes.resize(bytes.size() - 3);

    util::StateReader reader(bytes);
    obs::Timeline restored;
    restored.loadState(reader);
    EXPECT_FALSE(reader.ok());
    EXPECT_TRUE(restored.empty())
        << "a corrupt load must not leave partial windows behind";
}

// --- segmentation -----------------------------------------------------

TEST(TimelineSegmentation, StepCurveSplitsAtTheStep)
{
    const std::vector<double> curve = {30, 30, 30, 10, 10, 10};
    const auto seg = obs::segmentMissCurve(curve);
    ASSERT_TRUE(seg.hasChangePoint);
    EXPECT_EQ(seg.steadyStart, 3u);
    EXPECT_DOUBLE_EQ(seg.warmupMissPercent, 30.0);
    EXPECT_DOUBLE_EQ(seg.steadyMissPercent, 10.0);
}

TEST(TimelineSegmentation, RampCurveFindsAChangePoint)
{
    const std::vector<double> curve = {40, 32, 24, 16, 8, 4, 2, 1};
    const auto seg = obs::segmentMissCurve(curve);
    ASSERT_TRUE(seg.hasChangePoint);
    EXPECT_GT(seg.steadyStart, 0u);
    EXPECT_LT(seg.steadyStart, curve.size());
    EXPECT_GT(seg.warmupMissPercent, seg.steadyMissPercent)
        << "a cooling ramp's warmup must sit above its steady state";
}

TEST(TimelineSegmentation, FlatAndShortCurvesStaySingleSegment)
{
    const auto flat =
        obs::segmentMissCurve({20, 20, 20, 20, 20, 20});
    EXPECT_FALSE(flat.hasChangePoint);
    EXPECT_DOUBLE_EQ(flat.overallMissPercent, 20.0);

    // Too few windows to claim a warmup at all.
    const auto short_curve = obs::segmentMissCurve({30, 10, 10});
    EXPECT_FALSE(short_curve.hasChangePoint);

    // A gap below the material threshold (0.25 points) is noise.
    const auto tiny =
        obs::segmentMissCurve({20.1, 20.1, 20.0, 20.0, 20.0, 20.0});
    EXPECT_FALSE(tiny.hasChangePoint);
}

TEST(TimelineSegmentation, WeightsShiftTheMeans)
{
    const std::vector<double> curve = {30, 30, 10, 20};
    const std::vector<std::uint64_t> weights = {100, 100, 100, 0};
    const auto seg = obs::segmentMissCurve(curve, weights);
    ASSERT_TRUE(seg.hasChangePoint);
    // The zero-weight closing window cannot drag the steady mean.
    EXPECT_DOUBLE_EQ(seg.steadyMissPercent, 10.0);
}

// --- milestones and sparklines ----------------------------------------

TEST(TimelineMilestones, FirstAndBurstFireOncePerCounter)
{
    obs::Timeline timeline;
    timeline.setInterval(100);
    const std::vector<std::uint64_t> cumulative = {1, 2, 3, 103, 203};
    for (std::size_t w = 0; w < cumulative.size(); ++w) {
        obs::TimelineWindow window;
        window.endBranch = 100 * (w + 1);
        window.predictions = 50;
        window.counters["tag/evictions"] = cumulative[w];
        window.counters["pred/lookups"] = 1000 * (w + 1); // ignored
        timeline.append(window);
    }

    const auto milestones = obs::timelineMilestones(timeline);
    ASSERT_EQ(milestones.size(), 2u);
    EXPECT_EQ(milestones[0].kind, "first");
    EXPECT_EQ(milestones[0].counter, "tag/evictions");
    EXPECT_EQ(milestones[0].branch, 100u);
    EXPECT_EQ(milestones[1].kind, "burst");
    EXPECT_EQ(milestones[1].branch, 400u); // delta 100 vs avg 1
    EXPECT_EQ(milestones[1].value, 100u);
}

TEST(TimelineSparkline, ScalesToTheSeriesRange)
{
    // Each block glyph is 3 UTF-8 bytes.
    const std::string flat = obs::sparkline({5, 5, 5});
    EXPECT_EQ(flat.size(), 9u);
    EXPECT_EQ(flat.substr(0, 3), flat.substr(3, 3));

    const std::string ramp = obs::sparkline({0, 1, 2, 3, 4, 5, 6, 7});
    EXPECT_EQ(ramp.substr(0, 3), "▁");
    EXPECT_EQ(ramp.substr(ramp.size() - 3), "█");
    EXPECT_TRUE(obs::sparkline({}).empty());
}

// --- suite-level bit-identity -----------------------------------------

std::vector<workload::BenchmarkProfile>
suiteProfiles()
{
    auto first = workload::smokeProfile();
    auto second = workload::smokeProfile();
    second.benchmark = first.benchmark + "-alt";
    second.program.seed ^= 0x9e3779b9ULL;
    return {first, second};
}

const std::vector<std::string> kSuitePredictors = {"BTB", "PPM-hyb",
                                                   "Cascade"};

SuiteOptions
timelineSuiteOptions()
{
    SuiteOptions options;
    options.traceScale = 0.2;
    options.threads = 1;
    options.engine.timeline.interval = 2000;
    return options;
}

/** The full timelines matrix, flattened to canonical bytes. */
std::map<std::string, std::vector<std::uint8_t>>
timelineMatrixBytes(const SuiteResult &result)
{
    std::map<std::string, std::vector<std::uint8_t>> bytes;
    for (const auto &[row, columns] : result.timelines)
        for (const auto &[predictor, timeline] : columns)
            bytes[row + " x " + predictor] = timelineBytes(timeline);
    return bytes;
}

TEST(TimelineSuite, ThreadCountsMatchPerCellReplayBytes)
{
    // The reference: one whole-trace Engine::run per cell, whose
    // windows close inside a single unbounded replay.
    const SuiteOptions options = timelineSuiteOptions();
    std::map<std::string, std::vector<std::uint8_t>> baseline;
    for (const auto &profile : suiteProfiles()) {
        const trace::TraceBuffer trace =
            generateTrace(profile, options.traceScale);
        for (const auto &name : kSuitePredictors) {
            auto predictor = makePredictor(name);
            trace::ReplaySource source(trace);
            obs::Timeline timeline;
            Engine(options.engine)
                .run(source, *predictor, nullptr, &timeline);
            baseline[profile.fullName() + " x " + name] =
                timelineBytes(timeline);
        }
    }

    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        SuiteOptions variant = options;
        variant.threads = threads;
        const auto got = timelineMatrixBytes(
            runSuite(suiteProfiles(), kSuitePredictors, variant));
        ASSERT_EQ(got.size(),
                  suiteProfiles().size() * kSuitePredictors.size())
            << "every cell must carry a timeline when sampling is on";
        EXPECT_EQ(got, baseline) << "threads=" << threads;
    }
}

// --- straight vs resumed, full lineup ---------------------------------

TEST(TimelineResume, MidWindowResumeIsByteIdenticalForEveryPredictor)
{
    const auto profile = workload::smokeProfile();
    EngineConfig config;
    config.timeline.interval = 3000;
    // 4500 sits mid-window, so the checkpoint must carry the sampler's
    // partially filled window, not just the closed ones.
    constexpr std::uint64_t kSplit = 4500;

    trace::TraceBuffer trace = generateTrace(profile, 0.2);
    ASSERT_GT(trace.size(), kSplit);

    for (const std::string &name : allPredictors()) {
        SCOPED_TRACE(name);

        auto straight_predictor = makePredictor(name);
        ReplaySession straight(config);
        trace.rewind();
        straight.run(trace, *straight_predictor);
        const auto want = timelineBytes(straight.timeline());
        ASSERT_FALSE(straight.timeline().empty());

        auto predictor = makePredictor(name);
        ReplaySession session(config);
        trace.rewind();
        ASSERT_EQ(session.run(trace, *predictor, kSplit), kSplit);
        CheckpointMeta meta;
        meta.predictor = name;
        meta.profile = profile.fullName();
        meta.fingerprint = "timeline-resume-test";
        meta.cursor = kSplit;
        const auto snapshot =
            encodeSimCheckpoint(meta, *predictor, session);

        auto resumed_predictor = makePredictor(name);
        ReplaySession resumed(config);
        CheckpointMeta restored;
        ASSERT_TRUE(restoreSimCheckpoint(snapshot, restored,
                                         *resumed_predictor, resumed)
                        .ok());
        ASSERT_TRUE(trace.seek(kSplit));
        resumed.run(trace, *resumed_predictor);
        EXPECT_EQ(timelineBytes(resumed.timeline()), want)
            << "resume changed the timeline bytes";
    }
}

// --- golden fixture ---------------------------------------------------

const char *const kFixturePath =
    IBP_GOLDEN_DIR "/timeline_small.json";

/** Identical to `timeline_tool --emit-golden` (keep the two in sync:
 *  CI diffs that tool's output against this test's fixture). */
obs::RunReport
runGoldenReport()
{
    const std::vector<std::string> profile_names = {"perl", "eon",
                                                    "gs.tig"};
    const std::vector<std::string> predictors = {
        "BTB", "TC-PIB", "Cascade", "PPM-hyb", "ITTAGE", "Perceptron"};
    const auto suite = workload::standardSuite();
    std::vector<workload::BenchmarkProfile> profiles;
    for (const auto &name : profile_names) {
        const auto *profile = workload::findProfile(suite, name);
        if (profile == nullptr) {
            ADD_FAILURE() << "standard suite lost profile " << name;
            continue;
        }
        profiles.push_back(*profile);
    }

    SuiteOptions options;
    options.traceScale = 0.02;
    options.threads = 1;
    options.engine.timeline.interval = 4000;
    options.engine.timeline.sampleProbes = false;
    SuiteTiming timing;
    clearTraceCache();
    const SuiteResult result =
        runSuite(profiles, predictors, options, &timing);
    return buildRunReport("timeline_tool --emit-golden", options,
                          result, timing);
}

// Declared before the comparison test so a regen run updates the
// fixture first and the comparison then validates the fresh file.
TEST(TimelineGolden, Regenerate)
{
    if (std::getenv("IBP_REGEN_GOLDEN") == nullptr)
        GTEST_SKIP()
            << "set IBP_REGEN_GOLDEN=1 to rewrite " << kFixturePath;
    obs::writeReportFile(kFixturePath, runGoldenReport());
}

TEST(TimelineGolden, FreshRunMatchesFixture)
{
    {
        std::ifstream probe(kFixturePath);
        ASSERT_TRUE(probe) << "missing fixture " << kFixturePath
                           << " — regenerate with IBP_REGEN_GOLDEN=1";
    }
    const obs::RunReport fixture = obs::readReportFile(kFixturePath);
    const obs::RunReport fresh = runGoldenReport();

    ASSERT_EQ(fixture.timelines.size(), fresh.timelines.size())
        << "timeline count drifted — regenerate with "
           "IBP_REGEN_GOLDEN=1 if intentional";
    for (const auto &want : fixture.timelines) {
        const obs::ReportTimeline *got =
            fresh.findTimeline(want.row, want.predictor);
        ASSERT_NE(got, nullptr)
            << "(" << want.row << ", " << want.predictor << ")";
        const std::string where =
            "(" + want.row + ", " + want.predictor +
            ") — regenerate with IBP_REGEN_GOLDEN=1 if intentional";
        EXPECT_EQ(timelineBytes(got->timeline),
                  timelineBytes(want.timeline))
            << where;
        EXPECT_EQ(got->segmentation.hasChangePoint,
                  want.segmentation.hasChangePoint)
            << where;
        EXPECT_EQ(got->segmentation.steadyStart,
                  want.segmentation.steadyStart)
            << where;
        EXPECT_EQ(got->segmentation.steadyMissPercent,
                  want.segmentation.steadyMissPercent)
            << where;
    }
}

} // namespace
