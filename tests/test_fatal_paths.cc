/**
 * @file
 * Error-path coverage: every user-facing fatal() guard must trip with
 * a recognizable message (exit code 1), and internal panic() guards
 * must abort.  Death tests document the library's failure contract.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "util/histogram.hh"
#include "util/random.hh"
#include "util/sat_counter.hh"
#include "util/table.hh"
#include "trace/trace_io.hh"
#include "obs/report.hh"
#include "workload/behavior.hh"
#include "workload/program.hh"
#include "predictors/cond.hh"
#include "predictors/path_history.hh"
#include "core/ppm.hh"
#include "core/sfsxs.hh"
#include "sim/branch_study.hh"
#include "sim/engine.hh"
#include "sim/factory.hh"
#include "sim/frontend.hh"

namespace {

using ::testing::ExitedWithCode;
using ::testing::KilledBySignal;

TEST(FatalPaths, TraceReaderRejectsForeignFile)
{
    std::stringstream ss("this is not a trace");
    EXPECT_EXIT(ibp::trace::TraceReader reader(ss),
                ExitedWithCode(1), "bad magic");
}

TEST(FatalPaths, TruncatedVarintIsCorrupt)
{
    std::stringstream ss;
    ss.put(static_cast<char>(0x80)); // continuation bit, then EOF
    std::uint64_t out = 0;
    EXPECT_EXIT(ibp::trace::readVarint(ss, out), ExitedWithCode(1),
                "truncated varint");
}

TEST(FatalPaths, TextReaderRejectsMalformedLine)
{
    std::stringstream ss("garbage line here\n");
    ibp::trace::TextTraceReader reader(ss);
    ibp::trace::BranchRecord record;
    EXPECT_EXIT(reader.next(record), ExitedWithCode(1),
                "malformed trace line");
}

TEST(FatalPaths, ReplayPlanMisusePanics)
{
    // A plan holds at most one replay chunk, a column joins it at an
    // offset inside it, and a session's plan may not run past a
    // timeline boundary (rows cut their chunks there).
    std::vector<ibp::trace::BranchRecord> records(
        ibp::trace::kReplayChunk + 1);
    ibp::sim::ReplayPlan plan;
    EXPECT_DEATH(plan.build(records.data(), records.size()),
                 "chunk too long");
    plan.build(records.data(), 100);
    auto predictor = ibp::sim::makePredictor("BTB");
    EXPECT_DEATH(ibp::sim::ReplaySession().feed(plan, 101, *predictor),
                 "offset past its chunk");
    ibp::sim::EngineConfig config;
    config.timeline.interval = 64;
    EXPECT_DEATH(ibp::sim::ReplaySession(config).feed(plan, 0, *predictor),
                 "crosses a timeline boundary");
    // A row's columns replay from its position on, never before it.
    ibp::sim::ReplaySession behind;
    ibp::sim::ReplayRow row({}, 10);
    EXPECT_DEATH(row.addColumn(*predictor, behind),
                 "starts before its row");
}

TEST(FatalPaths, SatCounterWidthZeroPanics)
{
    EXPECT_DEATH(ibp::util::SatCounter counter(0), "width out of");
}

TEST(FatalPaths, HistogramNeedsBuckets)
{
    EXPECT_DEATH(ibp::util::Histogram histogram(0), "bucket");
}

TEST(FatalPaths, DirectTableNeedsEntries)
{
    EXPECT_DEATH(ibp::util::DirectTable<int> table(0), "entry");
}

TEST(FatalPaths, AssocTableNeedsGeometry)
{
    using Table = ibp::util::AssocTable<int>;
    EXPECT_DEATH(Table table(0, 4), "geometry");
    EXPECT_DEATH(Table table(4, 0), "geometry");
}

TEST(FatalPaths, RngBelowZeroPanics)
{
    ibp::util::Rng rng(1);
    EXPECT_DEATH(rng.below(0), "below");
}

TEST(FatalPaths, SymbolHistoryNeedsLength)
{
    using ibp::pred::StreamSel;
    using ibp::pred::SymbolHistory;
    EXPECT_DEATH(SymbolHistory history(0, 10, StreamSel::MtIndirect),
                 "length");
}

TEST(FatalPaths, ShiftHistoryValidatesWidths)
{
    using ibp::pred::ShiftHistory;
    using ibp::pred::StreamSel;
    EXPECT_DEATH(ShiftHistory history(0, 2, StreamSel::MtIndirect),
                 "width");
    EXPECT_DEATH(ShiftHistory history(8, 9, StreamSel::MtIndirect),
                 "symbol width");
}

TEST(FatalPaths, SfsxsValidatesConfig)
{
    using ibp::core::Sfsxs;
    using ibp::core::SfsxsConfig;
    EXPECT_EXIT(Sfsxs hash((SfsxsConfig{0, 10, 5, true, false})),
                ExitedWithCode(1), "order");
    EXPECT_EXIT(Sfsxs hash((SfsxsConfig{10, 10, 0, true, false})),
                ExitedWithCode(1), "fold");
}

TEST(FatalPaths, PpmGeometryMustMatchOrder)
{
    ibp::core::PpmConfig config;
    config.hash.order = 3;
    config.tableEntries = {8, 4}; // one short
    EXPECT_EXIT(ibp::core::Ppm ppm(config), ExitedWithCode(1),
                "geometry");
}

TEST(FatalPaths, FactoryRejectsUnknownPredictor)
{
    EXPECT_EXIT(ibp::sim::makePredictor("TAGE"), ExitedWithCode(1),
                "unknown predictor");
}

TEST(FatalPaths, DirectionFactoryRejectsUnknown)
{
    EXPECT_EXIT(ibp::pred::makeDirectionPredictor("perceptron"),
                ExitedWithCode(1), "unknown direction");
}

TEST(FatalPaths, SynthesizeNeedsSites)
{
    ibp::workload::SynthesisParams params;
    EXPECT_EXIT(ibp::workload::synthesize(params), ExitedWithCode(1),
                "no sites");
}

TEST(FatalPaths, BehaviorValidatesOrder)
{
    using ibp::workload::PathCorrelatedBehavior;
    using ibp::workload::StreamKind;
    EXPECT_DEATH(PathCorrelatedBehavior behavior(
                     StreamKind::MtIndirect, 0, 2, 0.0, 1),
                 "order");
}

TEST(FatalPaths, PathStateDepthFitsTheRing)
{
    using ibp::workload::PathState;
    EXPECT_EXIT(PathState path(PathState::kCapacity + 1),
                ExitedWithCode(1), "ring capacity");
}

TEST(FatalPaths, FrontendValidatesConfig)
{
    ibp::sim::FrontendConfig config;
    config.fetchWidth = 0;
    EXPECT_EXIT(ibp::sim::Frontend frontend(config), ExitedWithCode(1),
                "fetch width");
}

TEST(FatalPaths, StudyNeedsOrders)
{
    ibp::trace::TraceBuffer buffer;
    ibp::sim::StudyOptions options;
    options.orders.clear();
    EXPECT_EXIT(ibp::sim::studyCorrelation(buffer, options),
                ExitedWithCode(1), "order");
}

TEST(FatalPaths, FactorySizeScaleBounds)
{
    ibp::sim::FactoryOptions options;
    options.sizeScale = 0.001;
    EXPECT_EXIT(ibp::sim::makePredictor("BTB", options),
                ExitedWithCode(1), "size scale");
}

TEST(FatalPaths, ReportReaderRejectsMissingFile)
{
    EXPECT_EXIT(ibp::obs::readReportFile("/nonexistent/report.json"),
                ExitedWithCode(1), "");
}

// --- severity filtering (IBP_LOG / setLogThreshold) --------------------

/** RAII guard restoring the default threshold after a filter test. */
struct ThresholdGuard
{
    ~ThresholdGuard()
    {
        ibp::util::setLogThreshold(ibp::util::LogLevel::Inform);
    }
};

TEST(LogFilter, SuppressedWarnStillCounts)
{
    ThresholdGuard guard;
    ibp::util::setLogThreshold(ibp::util::LogLevel::Fatal);
    ibp::util::resetWarnCount();
    testing::internal::CaptureStderr();
    warn("this warning must be silenced");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    // Filtering only silences output; the counter is the contract
    // tests rely on, so it must keep ticking.
    EXPECT_EQ(ibp::util::warnCount(), 1u);
}

TEST(LogFilter, WarnThresholdSilencesInformOnly)
{
    ThresholdGuard guard;
    ibp::util::setLogThreshold(ibp::util::LogLevel::Warn);
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    inform("suppressed status line");
    warn("still printed");
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "still printed"),
              std::string::npos);
}

TEST(LogFilter, FatalIsNeverSuppressed)
{
    // Even the most aggressive filter must not swallow the message a
    // dying process leaves behind.
    EXPECT_EXIT(
        {
            ibp::util::setLogThreshold(ibp::util::LogLevel::Fatal);
            fatal("terminal diagnosis");
        },
        ExitedWithCode(1), "terminal diagnosis");
}

TEST(LogFilter, ThresholdAccessorRoundTrips)
{
    ThresholdGuard guard;
    ibp::util::setLogThreshold(ibp::util::LogLevel::Warn);
    EXPECT_EQ(ibp::util::logThreshold(), ibp::util::LogLevel::Warn);
    ibp::util::setLogThreshold(ibp::util::LogLevel::Inform);
    EXPECT_EQ(ibp::util::logThreshold(), ibp::util::LogLevel::Inform);
}

} // namespace
