/**
 * @file
 * Equivalence of the planned replay with the per-record protocol.
 *
 * ReplaySession replays through one loop over a ReplayPlan: the
 * chunk's predicted offsets, one RAS's return outcomes and its state
 * after the chunk.  Between predictions the loop observes every record,
 * only the predicted ones, or none, depending on the predictor's
 * observe scope.  The reference here is the per-record loop the engine
 * ran before plans existed: classify each record, predict+update the
 * MT jmp/jsr ones, pop/push the RAS, observe each record, and close a
 * timeline window at every interval multiple.  Every test compares
 * RunMetrics, timelines and the saveState()/saveProbes() bytes of
 * sessions and predictors against that reference, over chunkings that
 * straddle trace::kReplayChunk, with per-site stats on, with timeline
 * windows that do not divide the chunk, and for the columns of one
 * ReplayRow resumed at different cursors, mid-chunk and on a window
 * boundary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "util/serde.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"
#include "workload/profiles.hh"
#include "predictors/ras.hh"
#include "sim/checkpoint.hh"
#include "sim/differential.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

using namespace ibp;
using namespace ibp::sim;
using Bytes = std::vector<std::uint8_t>;

/**
 * A little over three replay chunks, so every chunking meets a tail.
 * The smoke workload's returns all hit in the RAS, so every seventh
 * one is redirected to give the return accounting misses to count.
 */
const trace::TraceBuffer &
sharedTrace()
{
    static const trace::TraceBuffer trace = [] {
        auto profile = workload::smokeProfile();
        profile.records = 13000;
        std::vector<trace::BranchRecord> records =
            generateTrace(profile).records();
        std::size_t returns = 0;
        for (auto &record : records)
            if (record.kind == trace::BranchKind::Return &&
                ++returns % 7 == 0)
                record.target ^= 0x40;
        return trace::TraceBuffer(std::move(records));
    }();
    return trace;
}

/** One predictor per observe scope and per devirtualized type, plus a
 *  generic (virtual-loop) one. */
const std::vector<std::string> kLineup = {
    "BTB",     "BTB2b",  "GAp",          "TC-PIB",     "TC-PB",
    "Dpath",   "Cascade", "PPM-hyb",     "Filtered-PPM", "ITTAGE",
    "Perceptron", "Oracle-PIB@4"};

/**
 * The per-record replay protocol with a session's state and byte
 * layout: metrics, then the RAS ring, then the timeline sampler when
 * sampling is on.
 */
class ReferenceSession
{
  public:
    explicit ReferenceSession(const EngineConfig &config)
        : config_(config), sampler_(config.timeline)
    {
    }

    void
    feed(const trace::BranchRecord *span, std::size_t n,
         pred::IndirectPredictor &predictor)
    {
        for (std::size_t b = 0; b < n; ++b)
            step(span[b], predictor);
    }

    void
    finish(const pred::IndirectPredictor &predictor)
    {
        if (sampler_.enabled())
            sample(predictor);
    }

    const RunMetrics &metrics() const { return metrics_; }
    const obs::Timeline &timeline() const { return sampler_.timeline(); }

    Bytes
    stateBytes() const
    {
        util::StateWriter writer;
        metrics_.saveState(writer);
        ras_.saveState(writer);
        if (sampler_.enabled())
            sampler_.saveState(writer);
        return writer.bytes();
    }

    Bytes
    probeBytes() const
    {
        util::StateWriter writer;
        ras_.saveProbes(writer);
        return writer.bytes();
    }

  private:
    void
    step(const trace::BranchRecord &record,
         pred::IndirectPredictor &predictor)
    {
        ++metrics_.branches;
        if (record.isPredictedIndirect()) {
            ++metrics_.mtIndirect;
            const pred::Prediction prediction =
                predictor.predictAndUpdate(record.pc, record.target);
            const bool miss = !prediction.hit(record.target);
            metrics_.indirectMisses.sample(miss);
            metrics_.noPrediction.sample(!prediction.valid);
            if (config_.perSiteStats) {
                SiteMetrics &site = metrics_.perSite[record.pc];
                site.misses.sample(miss);
                site.lastTarget = record.target;
            }
        } else if (record.kind == trace::BranchKind::Return) {
            trace::Addr predicted = 0;
            const bool got = ras_.pop(predicted);
            metrics_.returnMisses.sample(!got ||
                                         predicted != record.target);
        }
        if (record.call)
            ras_.push(record.pc + 4);
        if (predictor.wantsObserve())
            predictor.observe(record);
        if (sampler_.enabled() &&
            metrics_.branches % sampler_.config().interval == 0)
            sample(predictor);
    }

    void
    sample(const pred::IndirectPredictor &predictor)
    {
        obs::TimelineSample sample;
        sample.branches = metrics_.branches;
        sample.predictions = metrics_.mtIndirect;
        sample.misses = metrics_.indirectMisses.events();
        sample.noPredictions = metrics_.noPrediction.events();
        if (!sampler_.config().sampleProbes) {
            sampler_.sample(sample, nullptr);
            return;
        }
        obs::ProbeRegistry probes;
        probes.counter("ras/overflows", ras_.overflows());
        probes.counter("ras/underflows", ras_.underflows());
        predictor.snapshotProbes(probes);
        sampler_.sample(sample, &probes);
    }

    EngineConfig config_;
    pred::ReturnAddressStack ras_;
    RunMetrics metrics_;
    obs::TimelineSampler sampler_;
};

Bytes
sessionState(const ReplaySession &session)
{
    util::StateWriter writer;
    session.saveState(writer);
    return writer.bytes();
}

Bytes
sessionProbes(const ReplaySession &session)
{
    util::StateWriter writer;
    session.saveProbes(writer);
    return writer.bytes();
}

Bytes
predictorState(const pred::IndirectPredictor &predictor)
{
    util::StateWriter writer;
    predictor.saveState(writer);
    predictor.saveProbes(writer);
    return writer.bytes();
}

Bytes
timelineBytes(const obs::Timeline &timeline)
{
    util::StateWriter writer;
    timeline.saveState(writer);
    return writer.bytes();
}

/** A reference replay of the whole shared trace. */
struct Reference
{
    std::unique_ptr<pred::IndirectPredictor> predictor;
    std::unique_ptr<ReferenceSession> session;
};

Reference
referenceRun(const std::string &name, const EngineConfig &config)
{
    Reference ref{makePredictor(name),
                  std::make_unique<ReferenceSession>(config)};
    const auto &records = sharedTrace().records();
    ref.session->feed(records.data(), records.size(), *ref.predictor);
    ref.session->finish(*ref.predictor);
    return ref;
}

/** Everything a planned session and its predictor must share with the
 *  reference. */
void
expectMatches(const Reference &want, const ReplaySession &session,
              const pred::IndirectPredictor &predictor,
              const std::string &label)
{
    const RunMetrics &a = want.session->metrics();
    const RunMetrics &b = session.metrics();
    EXPECT_EQ(a.branches, b.branches) << label;
    EXPECT_EQ(a.mtIndirect, b.mtIndirect) << label;
    EXPECT_EQ(a.indirectMisses.events(), b.indirectMisses.events())
        << label;
    EXPECT_EQ(a.noPrediction.events(), b.noPrediction.events()) << label;
    EXPECT_EQ(a.returnMisses.events(), b.returnMisses.events()) << label;
    EXPECT_EQ(a.returnMisses.total(), b.returnMisses.total()) << label;
    // The shared trace's redirected returns miss.
    EXPECT_GT(b.returnMisses.events(), 0u) << label;
    EXPECT_EQ(a.perSite.size(), b.perSite.size()) << label;
    EXPECT_EQ(want.session->stateBytes(), sessionState(session)) << label;
    EXPECT_EQ(want.session->probeBytes(), sessionProbes(session))
        << label;
    EXPECT_EQ(predictorState(*want.predictor), predictorState(predictor))
        << label;
    EXPECT_EQ(timelineBytes(want.session->timeline()),
              timelineBytes(session.timeline()))
        << label;
}

/**
 * Replay the shared trace through bounded run()s of @p chunk records,
 * each a one-column row that starts where the last one stopped.
 */
void
expectChunkedMatches(const EngineConfig &config,
                     const std::vector<std::string> &names,
                     const std::vector<std::size_t> &chunkings,
                     const std::string &what)
{
    for (const auto &name : names) {
        const Reference want = referenceRun(name, config);
        for (std::size_t chunk : chunkings) {
            auto predictor = makePredictor(name);
            ReplaySession session(config);
            trace::TraceBuffer source = sharedTrace();
            while (session.run(source, *predictor, chunk) == chunk) {
            }
            expectMatches(want, session, *predictor,
                          what + ", " + name + ", chunk " +
                              std::to_string(chunk));
        }
    }
}

TEST(ReplayPlan, ChunkingsMatchThePerRecordReference)
{
    expectChunkedMatches({}, allPredictors(), {1, 7, 4095, 4096, 4097},
                         "defaults");
}

TEST(ReplayPlan, PerSiteStatsMatchThePerRecordReference)
{
    EngineConfig config;
    config.perSiteStats = true;
    expectChunkedMatches(config, kLineup, {7, 4097}, "perSiteStats");
}

TEST(ReplayPlan, TimelineWindowsOffTheChunkMatchThePerRecordReference)
{
    // Neither 1000 nor 5000 divides the 4096-record plan chunk, so
    // windows close inside planned spans and plans are cut at them.
    for (std::uint64_t interval : {1000u, 5000u}) {
        EngineConfig config;
        config.timeline.interval = interval;
        config.timeline.sampleProbes = true;
        expectChunkedMatches(config, kLineup, {7, 4096, 4097},
                             "timeline " + std::to_string(interval));
    }
}

TEST(ReplayPlan, ColumnsJoinARowPlanMidChunk)
{
    // A suite row's shape: one plan per chunk, chunks cut at window
    // multiples, and columns restored from snapshots joining the row
    // next to one that starts at 0: at 4500 (inside the second
    // 4096-record chunk), at 6000 (inside the chunk [4096, 7000) that
    // ends at a window) and at 7000 (on the window boundary, where a
    // chunk starts).  The row is fed in spans that are shorter than,
    // equal to and longer than a chunk.
    constexpr std::uint64_t kWindow = 7000;
    EngineConfig config;
    config.timeline.interval = kWindow;
    config.timeline.sampleProbes = true;
    const auto &records = sharedTrace().records();
    const std::vector<std::uint64_t> cursors = {0, 4500, 6000, 7000};

    // Every history-lane type joins too: the three PPM variants share
    // their lanes, the perceptron and Filtered-PPM bring their own.
    std::vector<std::string> names = kLineup;
    names.insert(names.end(), {"PPM-PIB", "PPM-hyb-biased"});
    for (const auto &name : names) {
        const Reference want = referenceRun(name, config);
        for (std::size_t span : {1u, 7u, 4095u, 4096u, 4097u}) {
            const std::string label =
                name + ", span " + std::to_string(span);
            std::vector<std::unique_ptr<pred::IndirectPredictor>>
                predictors;
            std::vector<ReplaySession> sessions(cursors.size(),
                                                ReplaySession(config));
            ReplayRow row(config, ReplayRow::Timing::On);
            for (std::size_t c = 0; c < cursors.size(); ++c) {
                predictors.push_back(makePredictor(name));
                if (cursors[c] > 0) {
                    auto donor = makePredictor(name);
                    ReplaySession donor_session(config);
                    trace::TraceBuffer source = sharedTrace();
                    ASSERT_EQ(donor_session.run(source, *donor, cursors[c]),
                              cursors[c]);
                    const PartialCell partial =
                        capturePartialCell("row", name, cursors[c],
                                           *donor, donor_session);
                    ASSERT_TRUE(restorePartialCell(
                        partial, *predictors[c], sessions[c]));
                }
                row.addColumn(*predictors[c], sessions[c]);
            }
            for (std::size_t off = 0; off < records.size(); off += span)
                row.feed(records.data() + off,
                         std::min(span, records.size() - off));
            row.finish();
            EXPECT_EQ(row.position(), records.size()) << label;
            for (std::size_t c = 0; c < cursors.size(); ++c) {
                expectMatches(want, sessions[c], *predictors[c],
                              label + ", joined at " +
                                  std::to_string(cursors[c]));
                EXPECT_GE(row.cpuSeconds(c), 0.0) << label;
                EXPECT_GE(row.wallSeconds(c), 0.0) << label;
            }
            EXPECT_GT(row.planSeconds(), 0.0) << label;
        }
    }
}

TEST(ReplayRow, LineupMatchesStandaloneRunsForEveryPredictor)
{
    // runLineup replays every factory predictor as one column of one
    // row; each column must equal its own standalone Engine::run, in
    // metrics and in the predictor's saveState() bytes (the lane
    // columns copy their registers in from the row's lanes).
    const trace::TraceBuffer &trace = sharedTrace();
    const std::vector<std::string> names = allPredictors();
    const std::vector<LineupEntry> lineup = runLineup(trace, names);
    ASSERT_EQ(lineup.size(), names.size());
    std::vector<std::unique_ptr<pred::IndirectPredictor>> columns;
    std::vector<ReplaySession> sessions(names.size());
    ReplayRow row;
    for (std::size_t c = 0; c < names.size(); ++c) {
        columns.push_back(makePredictor(names[c]));
        row.addColumn(*columns[c], sessions[c]);
    }
    row.feed(trace.records().data(), trace.size());
    row.finish();
    for (std::size_t c = 0; c < names.size(); ++c) {
        auto predictor = makePredictor(names[c]);
        trace::ReplaySource source(trace);
        const RunMetrics want = Engine().run(source, *predictor);
        EXPECT_EQ(lineup[c].name, names[c]);
        util::StateWriter a;
        util::StateWriter b;
        util::StateWriter d;
        want.saveState(a);
        lineup[c].metrics.saveState(b);
        sessions[c].metrics().saveState(d);
        EXPECT_EQ(a.bytes(), b.bytes()) << names[c];
        EXPECT_EQ(a.bytes(), d.bytes()) << names[c];
        EXPECT_EQ(predictorState(*predictor), predictorState(*columns[c]))
            << names[c];
        EXPECT_GT(lineup[c].metrics.mtIndirect, 0u) << names[c];
    }
}

TEST(ReplayRow, ColumnsShareOneLanePerRegisterGeometry)
{
    // The three PPM variants fold identical PB and PIB registers, so
    // their row tracks two lanes; the perceptron's two shift registers
    // add two more, and a row of history-free predictors tracks none.
    const auto lanes = [](const std::vector<std::string> &names) {
        std::vector<std::unique_ptr<pred::IndirectPredictor>> predictors;
        std::vector<ReplaySession> sessions(names.size());
        ReplayRow row;
        for (std::size_t c = 0; c < names.size(); ++c) {
            predictors.push_back(makePredictor(names[c]));
            row.addColumn(*predictors[c], sessions[c]);
        }
        return row.plan().laneCount();
    };
    EXPECT_EQ(lanes({"PPM-hyb", "PPM-PIB", "PPM-hyb-biased"}), 2u);
    EXPECT_EQ(lanes(figure7Predictors()), 4u);
    EXPECT_EQ(lanes({"BTB", "BTB2b"}), 0u);
    EXPECT_EQ(lanes({}), 0u);
}

TEST(ReplayRowDeathTest, LaneColumnsMustMatchTheirRowsHistory)
{
    // A column at record 4500 whose registers are cold.  A row that
    // starts past record 0 cannot seed lanes for it at all; a row at
    // record 0 can, and (in checked builds) its lanes hold the trace's
    // history at 4500, which the column's registers contradict.
    const auto &records = sharedTrace().records();
    auto donor = makePredictor("PPM-hyb");
    ReplaySession session;
    trace::TraceBuffer source = sharedTrace();
    ASSERT_EQ(session.run(source, *donor, 4500), 4500u);
    auto cold = makePredictor("PPM-hyb");
    ReplayRow late;
    late.restart(100);
    EXPECT_DEATH(late.addColumn(*cold, session),
                 "ahead of a row that does not start at record 0");
#ifndef IBP_CHECKED_TABLES
    GTEST_SKIP() << "the lane join check is compiled into checked "
                    "builds only";
#else
    ReplayRow row;
    row.addColumn(*cold, session);
    EXPECT_DEATH(row.feed(records.data(), records.size()),
                 "differ from its row's history lane");
#endif
}

TEST(ReplayPlan, SuffixesCountTheChunksTail)
{
    // A column that joins at offset `from` takes the predicted records
    // and the RAS outcomes of [from, n) and nothing before.
    const auto &records = sharedTrace().records();
    const std::size_t n = trace::kReplayChunk;
    std::vector<bool> predicted(n), is_return(n), return_miss(n);
    pred::ReturnAddressStack ras;
    for (std::size_t i = 0; i < n; ++i) {
        const trace::BranchRecord &record = records[i];
        predicted[i] = record.isPredictedIndirect();
        if (record.kind == trace::BranchKind::Return) {
            trace::Addr target = 0;
            is_return[i] = true;
            return_miss[i] = !ras.pop(target) || target != record.target;
        }
        if (record.call)
            ras.push(record.pc + 4);
    }

    ReplayPlan plan;
    plan.build(records.data(), n);
    std::uint64_t want_predicted = 0;
    std::uint64_t want_returns = 0;
    std::uint64_t want_misses = 0;
    for (std::size_t from = n + 1; from-- > 0;) {
        if (from < n) {
            want_predicted += predicted[from];
            want_returns += is_return[from];
            want_misses += return_miss[from];
        }
        EXPECT_EQ(static_cast<std::uint64_t>(plan.predictedEnd() -
                                             plan.predictedFrom(from)),
                  want_predicted)
            << from;
        const util::Ratio returns = plan.returnsFrom(from);
        EXPECT_EQ(returns.total(), want_returns) << from;
        EXPECT_EQ(returns.events(), want_misses) << from;
    }
    EXPECT_GT(want_predicted, 0u);
    EXPECT_GT(want_misses, 0u);
    EXPECT_LT(want_misses, want_returns);

    util::StateWriter want_ras;
    util::StateWriter got_ras;
    ras.saveState(want_ras);
    plan.ras().saveState(got_ras);
    EXPECT_EQ(want_ras.bytes(), got_ras.bytes());
}

/** Cells, probes and timelines of two suite results, bit for bit. */
void
expectSameSuite(const SuiteResult &want, const SuiteResult &got,
                const std::string &label)
{
    ASSERT_EQ(want.cells.size(), got.cells.size()) << label;
    for (std::size_t r = 0; r < want.cells.size(); ++r)
        for (std::size_t c = 0; c < want.cells[r].size(); ++c) {
            EXPECT_EQ(want.cells[r][c].missPercent,
                      got.cells[r][c].missPercent)
                << label << " (" << r << ", " << c << ")";
            EXPECT_EQ(want.cells[r][c].noPredictionPercent,
                      got.cells[r][c].noPredictionPercent)
                << label << " (" << r << ", " << c << ")";
            EXPECT_EQ(want.cells[r][c].predictions,
                      got.cells[r][c].predictions)
                << label << " (" << r << ", " << c << ")";
        }
    for (const auto &[name, registry] : want.probes)
        EXPECT_EQ(registry.counters(), got.probes.at(name).counters())
            << label << ": " << name;
    ASSERT_EQ(want.timelines.size(), got.timelines.size()) << label;
    for (const auto &[row, columns] : want.timelines)
        for (const auto &[name, timeline] : columns)
            EXPECT_EQ(timelineBytes(timeline),
                      timelineBytes(got.timelines.at(row).at(name)))
                << label << ": " << row << " x " << name;
}

TEST(ReplayPlan, SuiteColumnsResumeAtTwoCursorsInsideOneChunk)
{
    // Two columns of one row restart at 4500 and 6000.  With 4096-
    // record chunks both cursors sit inside [4096, 8192); with windows
    // every 1000 records (and the same checkpoint cadence) 4500 sits
    // inside [4000, 5000) and 6000 starts a chunk.
    const std::vector<std::string> names = {"BTB", "PPM-hyb", "Cascade"};
    const auto profile = workload::smokeProfile();
    for (std::uint64_t cadence : {0u, 1000u}) {
        SuiteOptions options;
        options.traceScale = 0.2;
        options.engine.timeline.interval = cadence;
        const std::string label = "cadence " + std::to_string(cadence);
        const SuiteResult baseline = runSuite({profile}, names, options);

        // The reference: the per-record loop over the whole row.
        const trace::TraceBuffer trace =
            generateTrace(profile, options.traceScale);
        for (std::size_t c = 0; c < names.size(); ++c) {
            auto predictor = makePredictor(names[c]);
            ReferenceSession reference(options.engine);
            reference.feed(trace.records().data(), trace.records().size(),
                           *predictor);
            EXPECT_EQ(baseline.cells[0][c].predictions,
                      reference.metrics().mtIndirect)
                << label << ", " << names[c];
            EXPECT_EQ(baseline.cells[0][c].missPercent,
                      reference.metrics().missPercent())
                << label << ", " << names[c];
        }

        options.checkpointPath = ::testing::TempDir() +
                                 "ibp_replay_plan_" +
                                 std::to_string(cadence) + ".ckpt";
        std::remove(options.checkpointPath.c_str());
        options.checkpointEvery = cadence;
        options.resume = true;
        SuiteProgress progress;
        progress.fingerprint = suiteFingerprint({profile}, names, options);
        const std::uint64_t cursors[] = {4500, 6000};
        for (std::size_t c = 1; c < names.size(); ++c) {
            auto predictor = makePredictor(names[c]);
            trace::TraceBuffer replay = trace;
            ReplaySession session(options.engine);
            const std::uint64_t cursor = cursors[c - 1];
            ASSERT_EQ(session.run(replay, *predictor, cursor), cursor);
            progress.partials.push_back(capturePartialCell(
                profile.fullName(), names[c], cursor, *predictor,
                session));
        }
        ASSERT_TRUE(writeCheckpointFile(options.checkpointPath,
                                        encodeSuiteProgress(progress))
                        .ok());
        const SuiteResult resumed = runSuite({profile}, names, options);
        expectSameSuite(baseline, resumed, label);
        std::remove(options.checkpointPath.c_str());
    }
}

} // namespace
