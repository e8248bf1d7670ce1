/**
 * @file
 * Cross-predictor property suite: behavioural invariants every
 * registered predictor must satisfy, driven through the factory so a
 * newly added predictor is covered automatically once it is
 * registered.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/serde.hh"
#include "workload/adversarial.hh"
#include "workload/profiles.hh"
#include "workload/program.hh"
#include "predictors/ittage.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

using namespace ibp::sim;

const ibp::trace::TraceBuffer &
sharedTrace()
{
    static const ibp::trace::TraceBuffer trace = [] {
        auto profile = ibp::workload::smokeProfile();
        profile.records = 30000;
        return generateTrace(profile);
    }();
    return trace;
}

class PredictorPropertyTest
    : public ::testing::TestWithParam<std::string>
{
};

/** True iff a replay row folds history lanes for @p predictor. */
bool
takesLanes(ibp::pred::IndirectPredictor &predictor)
{
    ReplaySession session;
    ReplayRow row;
    row.addColumn(predictor, session);
    return row.plan().laneCount() > 0;
}

TEST_P(PredictorPropertyTest, ColdStartAbstains)
{
    auto predictor = makePredictor(GetParam());
    EXPECT_FALSE(predictor->predict(0x120000040).valid);
}

TEST_P(PredictorPropertyTest, NameRoundTripsThroughFactory)
{
    auto predictor = makePredictor(GetParam());
    EXPECT_EQ(predictor->name(), GetParam());
    EXPECT_TRUE(knownPredictor(GetParam()));
}

TEST_P(PredictorPropertyTest, DeterministicAcrossIdenticalRuns)
{
    ibp::trace::TraceBuffer trace = sharedTrace();
    Engine engine;

    auto first = makePredictor(GetParam());
    trace.rewind();
    const RunMetrics a = engine.run(trace, *first);

    auto second = makePredictor(GetParam());
    trace.rewind();
    const RunMetrics b = engine.run(trace, *second);

    EXPECT_EQ(a.indirectMisses.events(), b.indirectMisses.events());
    EXPECT_EQ(a.indirectMisses.total(), b.indirectMisses.total());
}

TEST_P(PredictorPropertyTest, ResetRestoresColdBehaviour)
{
    ibp::trace::TraceBuffer trace = sharedTrace();
    Engine engine;

    auto fresh = makePredictor(GetParam());
    trace.rewind();
    const RunMetrics cold = engine.run(trace, *fresh);

    auto reused = makePredictor(GetParam());
    trace.rewind();
    engine.run(trace, *reused);
    reused->reset();
    trace.rewind();
    const RunMetrics after_reset = engine.run(trace, *reused);

    EXPECT_EQ(after_reset.indirectMisses.events(),
              cold.indirectMisses.events());
}

TEST_P(PredictorPropertyTest, MissesNeverExceedPredictions)
{
    ibp::trace::TraceBuffer trace = sharedTrace();
    auto predictor = makePredictor(GetParam());
    Engine engine;
    trace.rewind();
    const RunMetrics metrics = engine.run(trace, *predictor);
    EXPECT_LE(metrics.indirectMisses.events(),
              metrics.indirectMisses.total());
    EXPECT_LE(metrics.noPrediction.events(),
              metrics.indirectMisses.total());
    // Abstentions are a subset of the misses.
    EXPECT_LE(metrics.noPrediction.events(),
              metrics.indirectMisses.events());
    EXPECT_EQ(metrics.indirectMisses.total(), metrics.mtIndirect);
}

TEST_P(PredictorPropertyTest, BeatsAbstainingOnCorrelatedWork)
{
    // Every real predictor must end well under 100% on the smoke
    // trace (i.e. it learns *something*).
    ibp::trace::TraceBuffer trace = sharedTrace();
    auto predictor = makePredictor(GetParam());
    Engine engine;
    trace.rewind();
    const RunMetrics metrics = engine.run(trace, *predictor);
    EXPECT_LT(metrics.missPercent(), 60.0);
}

TEST_P(PredictorPropertyTest, ReportsAPositiveBudget)
{
    auto predictor = makePredictor(GetParam());
    ibp::trace::TraceBuffer trace = sharedTrace();
    Engine engine;
    trace.rewind();
    engine.run(trace, *predictor);
    EXPECT_GT(predictor->storageBits(), 0u);
}

TEST_P(PredictorPropertyTest, SurvivesDegenerateInputs)
{
    // A hostile mini-stream: same pc, wild targets, interleaved
    // non-indirect records.  Nothing should trip an assertion.
    auto predictor = makePredictor(GetParam());
    ibp::trace::BranchRecord r;
    for (int i = 0; i < 2000; ++i) {
        r.pc = 0x120000040;
        r.target = 0x120000000 + (i * 2654435761u % (1 << 24));
        r.kind = i % 3 == 0 ? ibp::trace::BranchKind::CondDirect
                            : ibp::trace::BranchKind::IndirectJmp;
        r.multiTarget = r.kind == ibp::trace::BranchKind::IndirectJmp;
        r.taken = i % 2;
        if (r.multiTarget) {
            r.taken = true;
            predictor->predict(r.pc);
            predictor->update(r.pc, r.target);
        }
        predictor->observe(r);
    }
    SUCCEED();
}

std::vector<std::uint8_t>
stateBytes(const ibp::pred::IndirectPredictor &predictor)
{
    ibp::util::StateWriter writer;
    predictor.saveState(writer);
    return writer.bytes();
}

std::vector<std::uint8_t>
probeBytes(const ibp::pred::IndirectPredictor &predictor)
{
    ibp::util::StateWriter writer;
    predictor.saveProbes(writer);
    return writer.bytes();
}

TEST_P(PredictorPropertyTest, FusedPredictAndUpdateMatchesSplitCalls)
{
    // The engine's hot loop uses the fused predictAndUpdate(); its
    // contract is exact equivalence to the split predict()-then-
    // update() protocol.  Drive one clone through each, and a third
    // through repeated predict() calls: predictions must agree
    // throughout (predict() is idempotent before its update()), and
    // the fused/split clones must end byte-identical, in state and in
    // probe counters (fused paths reorder the code that bumps them).
    ibp::trace::TraceBuffer trace = sharedTrace();
    auto split = makePredictor(GetParam());
    auto fused = makePredictor(GetParam());
    auto thrice = makePredictor(GetParam());

    trace.rewind();
    ibp::trace::BranchRecord record;
    std::uint64_t replayed = 0;
    while (trace.next(record) && replayed++ < 5000) {
        if (record.multiTarget) {
            const auto a = split->predict(record.pc);
            split->update(record.pc, record.target);
            const auto b =
                fused->predictAndUpdate(record.pc, record.target);
            thrice->predict(record.pc);
            thrice->predict(record.pc);
            const auto c = thrice->predict(record.pc);
            EXPECT_EQ(a.valid, b.valid);
            EXPECT_EQ(a.target, b.target);
            EXPECT_EQ(a.valid, c.valid);
            EXPECT_EQ(a.target, c.target);
            thrice->update(record.pc, record.target);
        }
        split->observe(record);
        fused->observe(record);
        thrice->observe(record);
    }
    EXPECT_EQ(stateBytes(*split), stateBytes(*fused))
        << "fused predictAndUpdate() diverged from the split protocol";
    EXPECT_EQ(probeBytes(*split), probeBytes(*fused))
        << "fused predictAndUpdate() moved a probe the split protocol "
        << "did not";
}

TEST_P(PredictorPropertyTest, TableOccupancyReachesAFixedPoint)
{
    // Context tables key on bounded history, so a recurring stream
    // must stop allocating: replaying the same trace a second and
    // third time sees only already-known contexts (the history at
    // every pass boundary is identical), and storage must not move
    // past the second pass.  Unbounded growth here means a predictor
    // leaks table entries per record rather than per novel context.
    auto predictor = makePredictor(GetParam());
    ibp::trace::TraceBuffer trace = sharedTrace();
    Engine engine;
    trace.rewind();
    engine.run(trace, *predictor);
    const std::uint64_t after_first = predictor->storageBits();
    trace.rewind();
    engine.run(trace, *predictor);
    const std::uint64_t after_second = predictor->storageBits();
    trace.rewind();
    engine.run(trace, *predictor);
    EXPECT_EQ(predictor->storageBits(), after_second)
        << "occupancy still growing on a fully recurring stream";
    // Known contexts recur: the second pass may only add entries for
    // the handful of pass-boundary histories, never re-learn the
    // trace.
    EXPECT_LE(after_second - after_first, after_first / 50)
        << "second replay of identical records re-allocated tables";
}

TEST_P(PredictorPropertyTest, NeverBeatsTheAnalyticOracleFloor)
{
    // On a pure uniform-draw site no causal predictor resolves better
    // than (T-1)/T; a measured miss rate below that floor (minus a
    // 4-sigma binomial allowance) would mean the harness leaks the
    // future into the predictor.
    ibp::workload::BenchmarkProfile profile;
    profile.benchmark = "uniform-floor";
    profile.records = 30'000;
    profile.program.seed = 0xF100F;
    ibp::workload::HotSiteSpec site;
    site.behavior = ibp::workload::BehaviorClass::Uniform;
    site.numTargets = 4;
    profile.program.sites = {site};
    const double floor =
        ibp::workload::analyticMissFloorPercent(profile.program);
    EXPECT_DOUBLE_EQ(floor, 75.0);

    const ibp::trace::TraceBuffer trace = generateTrace(profile);
    ibp::trace::ReplaySource source(trace);
    auto predictor = makePredictor(GetParam());
    Engine engine;
    const RunMetrics metrics = engine.run(source, *predictor);
    ASSERT_GE(metrics.mtIndirect, 1000u);
    const double p = floor / 100.0;
    const double sigma_pp =
        400.0 *
        std::sqrt(p * (1.0 - p) /
                  static_cast<double>(metrics.mtIndirect));
    EXPECT_GE(metrics.missPercent(), floor - sigma_pp)
        << "beat the information-theoretic floor: future leak";
}

TEST_P(PredictorPropertyTest, SingleSteppedReplayIsBitIdentical)
{
    // A ReplaySession stepped one record at a time must agree with
    // Engine::run()'s batched path byte-for-byte: same metrics bytes,
    // same final predictor state bytes.
    ibp::trace::TraceBuffer trace = sharedTrace();

    auto batched = makePredictor(GetParam());
    trace.rewind();
    Engine engine;
    const RunMetrics full = engine.run(trace, *batched);

    auto stepped = makePredictor(GetParam());
    trace.rewind();
    ReplaySession session;
    while (session.run(trace, *stepped, 1) == 1) {
    }

    ibp::util::StateWriter full_metrics;
    full.saveState(full_metrics);
    ibp::util::StateWriter step_metrics;
    session.metrics().saveState(step_metrics);
    EXPECT_EQ(full_metrics.bytes(), step_metrics.bytes())
        << "metrics diverged between batched and stepped replay";
    EXPECT_EQ(stateBytes(*batched), stateBytes(*stepped))
        << "architectural state diverged under single-stepping";
}

TEST_P(PredictorPropertyTest, ResetRestoresColdStateBytes)
{
    // reset() promises to clear all state, so a checkpoint taken right
    // after it must be the cold checkpoint, byte for byte — not merely
    // a state that predicts like a cold one.
    static const std::vector<ibp::trace::BranchRecord> perl = [] {
        const auto suite = ibp::workload::standardSuite();
        const auto *profile = ibp::workload::findProfile(suite, "perl");
        std::vector<ibp::trace::BranchRecord> records(20'000);
        if (profile) {
            ibp::workload::Program program =
                ibp::workload::synthesize(profile->program);
            program.fill(records.data(), records.size());
        }
        return records;
    }();
    auto used = makePredictor(GetParam());
    ReplaySession session;
    ibp::sim::ReplayRow row;
    row.addColumn(*used, session);
    row.feed(perl.data(), perl.size());
    ASSERT_GT(session.metrics().mtIndirect, 0u);
    used->reset();
    EXPECT_EQ(stateBytes(*used), stateBytes(*makePredictor(GetParam())))
        << "reset() left state a fresh instance does not have";
}

TEST_P(PredictorPropertyTest, PredictedOnlyObserveIgnoresOtherRecords)
{
    // The replay engine observes a predictor only at the records it
    // predicts, unless the predictor takes history lanes.  That is
    // sound only if observe() of every other kind leaves its state
    // untouched, from a warm state (non-zero histories) as well as a
    // cold one.
    auto predictor = makePredictor(GetParam());
    if (takesLanes(*predictor))
        return; // its lanes fold every record of their streams
    ibp::trace::TraceBuffer trace = sharedTrace();
    Engine().run(trace, *predictor);

    using ibp::trace::BranchKind;
    auto record = [](BranchKind kind, bool taken, bool mt, bool call) {
        ibp::trace::BranchRecord r;
        r.pc = 0x120004a0;
        r.target = 0x120ff7c8;
        r.kind = kind;
        r.taken = taken;
        r.multiTarget = mt;
        r.call = call;
        return r;
    };
    const std::vector<ibp::trace::BranchRecord> others = {
        record(BranchKind::CondDirect, true, false, false),
        record(BranchKind::CondDirect, false, false, false),
        record(BranchKind::UncondDirect, true, false, false),
        record(BranchKind::UncondDirect, true, false, true),
        record(BranchKind::Return, true, false, false),
        record(BranchKind::Return, true, true, false),
        record(BranchKind::IndirectJmp, true, false, false),
        record(BranchKind::IndirectCall, true, false, true),
    };
    const auto before = stateBytes(*predictor);
    for (const auto &other : others) {
        ASSERT_FALSE(other.isPredictedIndirect());
        predictor->observe(other);
        EXPECT_EQ(stateBytes(*predictor), before)
            << ibp::trace::branchKindName(other.kind)
            << " changed the state of a predicted-only observer";
    }
    for (const auto &traced : trace.records())
        if (!traced.isPredictedIndirect())
            predictor->observe(traced);
    EXPECT_EQ(stateBytes(*predictor), before)
        << "a traced non-predicted record changed the state";
}

TEST(PredictorObserveScope, LanePredictorNamesArePinned)
{
    // The factory names whose replay folds their histories in history
    // lanes, and those that observe nothing.  Every other predictor is
    // observed at its predicted records only, which
    // PredictedOnlyObserveIgnoresOtherRecords checks is sound.  A
    // change that moves a predictor on or off either list must show
    // up here.
    std::vector<std::string> lanes;
    std::vector<std::string> unobserved;
    for (const auto &name : allPredictors()) {
        const auto predictor = makePredictor(name);
        if (!predictor->wantsObserve())
            unobserved.push_back(name);
        if (takesLanes(*predictor))
            lanes.push_back(name);
    }
    EXPECT_EQ(unobserved, (std::vector<std::string>{"BTB", "BTB2b"}));
    EXPECT_EQ(lanes,
              (std::vector<std::string>{
                  "TC-PIB", "TC-PB", "TC-IND", "PPM-hyb", "PPM-PIB",
                  "PPM-hyb-biased", "PPM-tagged", "PPM-gshare", "PPM-low",
                  "PPM-inclusive", "PPM-confidence", "PPM-vote2",
                  "PPM-vote4", "Filtered-PPM", "Perceptron"}));
}

// ---------------------------------------------------------------------
// ITTAGE-specific properties.  The lineup-wide invariants above cover
// the new predictors through allPredictors(); these pin the three
// mechanisms that make ITTAGE *ITTAGE* — provider selection, useful
// counters and the allocation cascade — via the class's test hooks.

ibp::pred::IttageConfig
tinyIttage(std::size_t components)
{
    ibp::pred::IttageConfig config;
    config.baseEntries = 32;
    config.numComponents = components;
    config.entriesPerComponent = 32;
    config.tagBits = 8;
    config.minHistory = 2;
    config.maxHistory = 8;
    return config;
}

ibp::trace::BranchRecord
ittageJmp(ibp::trace::Addr pc, ibp::trace::Addr target)
{
    ibp::trace::BranchRecord r;
    r.pc = pc;
    r.target = target;
    r.kind = ibp::trace::BranchKind::IndirectJmp;
    r.multiTarget = true;
    return r;
}

TEST(IttageProperty, LongestMatchingTaggedComponentProvides)
{
    // After any stream whatsoever, the prediction for a pc is the
    // target stored by the longest-history component whose tag
    // matches, and no longer component matches — the structural
    // invariant behind the whole TAGE family.
    ibp::pred::Ittage ittage(tinyIttage(3));
    std::uint32_t lcg = 0xABCD;
    for (int i = 0; i < 5000; ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        const ibp::trace::Addr pc = 0x120000000 + (lcg >> 22 & 0x7C);
        const ibp::trace::Addr target =
            0x120001000 + (lcg >> 18 & 0xC) * 0x400;
        ittage.predict(pc);
        ittage.update(pc, target);
        ittage.observe(ittageJmp(pc, target));
    }

    int provided = 0;
    for (ibp::trace::Addr pc = 0x120000000; pc < 0x120000080; pc += 4) {
        const std::size_t provider = ittage.providerComponent(pc);
        if (provider == ibp::pred::Ittage::kBase)
            continue;
        ++provided;
        const auto &entry = ittage.componentEntry(provider, pc);
        ASSERT_TRUE(entry.valid);
        EXPECT_EQ(entry.tag, ittage.tagFor(provider, pc));
        const auto prediction = ittage.predict(pc);
        ASSERT_TRUE(prediction.valid);
        EXPECT_EQ(prediction.target, entry.target)
            << "prediction must come from the provider's line";
        for (std::size_t longer = provider + 1;
             longer < ittage.historyLengths().size(); ++longer) {
            const auto &above = ittage.componentEntry(longer, pc);
            EXPECT_TRUE(!above.valid ||
                        above.tag != ittage.tagFor(longer, pc))
                << "a longer-history match was passed over";
        }
    }
    EXPECT_GT(provided, 0) << "stream never engaged a tagged component";
}

TEST(IttageProperty, UsefulCounterMovesOnDisagreementAndSaturates)
{
    // Hand trace on two components, one pc, frozen history.  After
    // the warmup collisions the provider (component 1) disagrees with
    // its alternate (component 0) and keeps being right: its useful
    // counter must climb 1, 2, 3 and then pin at the 2-bit maximum.
    ibp::pred::Ittage ittage(tinyIttage(2));
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000, t2 = 0x120002000;

    ittage.update(pc, t1); // allocates component 0 <- t1
    ittage.update(pc, t2); // retargets comp 0, allocates comp 1 <- t2
    ittage.update(pc, t1); // retargets comp 1 <- t1; comp 0 keeps t2
    ASSERT_EQ(ittage.providerComponent(pc), 1u);
    ASSERT_EQ(ittage.componentEntry(0, pc).target, t2);
    ASSERT_EQ(ittage.componentEntry(1, pc).target, t1);
    ASSERT_EQ(ittage.componentEntry(1, pc).useful.value(), 0u);

    ittage.update(pc, t1);
    EXPECT_EQ(ittage.componentEntry(1, pc).useful.value(), 1u);
    ittage.update(pc, t1);
    ittage.update(pc, t1);
    EXPECT_EQ(ittage.componentEntry(1, pc).useful.value(), 3u);
    ittage.update(pc, t1); // saturated: must hold at max
    EXPECT_EQ(ittage.componentEntry(1, pc).useful.value(), 3u);
    EXPECT_TRUE(ittage.componentEntry(1, pc).useful.saturatedHigh());
}

TEST(IttageProperty, AllocationVictimIsDeterministicShortestFirst)
{
    // Each mispredict allocates in exactly the shortest component
    // above the provider whose slot is free — never a longer one,
    // never a random one — and a provider already in the longest
    // component allocates nowhere.
    ibp::pred::Ittage ittage(tinyIttage(3));
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr tA = 0x120001000, tB = 0x120002000;
    const ibp::trace::Addr tC = 0x120003000, tD = 0x120004000;

    ittage.update(pc, tA); // base provider -> allocate component 0
    EXPECT_TRUE(ittage.componentEntry(0, pc).valid);
    EXPECT_FALSE(ittage.componentEntry(1, pc).valid);
    EXPECT_FALSE(ittage.componentEntry(2, pc).valid);

    ittage.update(pc, tB); // provider comp 0 -> allocate component 1
    EXPECT_TRUE(ittage.componentEntry(1, pc).valid);
    EXPECT_FALSE(ittage.componentEntry(2, pc).valid)
        << "allocation skipped the shortest free component";

    ittage.update(pc, tC); // provider comp 1 -> allocate component 2
    EXPECT_TRUE(ittage.componentEntry(2, pc).valid);
    EXPECT_EQ(ittage.providerComponent(pc), 2u);

    ittage.update(pc, tD); // provider is the longest: nothing above
    EXPECT_EQ(ittage.providerComponent(pc), 2u);

    // Same inputs, fresh instance: byte-identical state, the replay
    // guarantee the determinism lint exists to protect.
    ibp::pred::Ittage replay(tinyIttage(3));
    for (const ibp::trace::Addr t : {tA, tB, tC, tD})
        replay.update(pc, t);
    ibp::util::StateWriter a, b;
    ittage.saveState(a);
    replay.saveState(b);
    EXPECT_EQ(a.bytes(), b.bytes());
}

INSTANTIATE_TEST_SUITE_P(
    AllPredictors, PredictorPropertyTest,
    ::testing::ValuesIn(allPredictors()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
