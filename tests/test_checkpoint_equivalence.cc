/**
 * @file
 * Differential state-equivalence tests for checkpoint/restore.
 *
 * The central claim of the checkpoint subsystem is: stopping a
 * simulation after k records, serializing everything, restoring into
 * freshly constructed objects and continuing is indistinguishable —
 * bit for bit — from never having stopped.  These tests prove it for
 * every predictor the factory can build, over multiple workload
 * profiles, by comparing (a) the final metrics, (b) the final probe
 * snapshots, and (c) the final encoded checkpoints of a straight run
 * and a save/restore/continue run.  Comparing the *checkpoints* is the
 * strongest form: it covers every serialized table, history register
 * and transient slot, not just the externally visible miss counts.
 *
 * A hostile-input section drives the decoders with truncations and
 * bit flips of valid blobs: any outcome is acceptable except a crash
 * or a silent success that corrupts state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/random.hh"
#include "trace/trace_io.hh"
#include "workload/profiles.hh"
#include "workload/program.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

using namespace ibp;
using namespace ibp::sim;

/** Every name the factory accepts (kept in lockstep with factory.cc),
 *  plus a parameterized Oracle — the whole predictor zoo must be
 *  checkpointable. */
const std::vector<std::string> kAllPredictors = {
    "BTB",          "BTB2b",        "GAp",
    "TC-PIB",       "TC-PB",        "TC-IND",
    "Dpath",        "Cascade",      "Cascade-strict",
    "PPM-hyb",      "PPM-PIB",      "PPM-hyb-biased",
    "PPM-tagged",   "PPM-gshare",   "PPM-low",
    "PPM-inclusive", "PPM-confidence", "PPM-vote2",
    "PPM-vote4",    "Filtered-PPM", "ITTAGE",
    "Perceptron",   "Oracle-PIB@2",
};

TEST(CheckpointEquivalence, CoversTheWholeLineup)
{
    // A predictor registered in the factory but missing here would
    // silently skip the strongest serde gate in the tree; fail loudly
    // instead.  kAllPredictors swaps the parameterized Oracle-PIB@4
    // for @2, so compare counts, not contents.
    EXPECT_EQ(kAllPredictors.size(), allPredictors().size());
    EXPECT_EQ(kAllPredictors.size(), 23u);
}

struct ProfileCase
{
    const char *label;
    workload::BenchmarkProfile profile;
    double scale;
};

std::vector<ProfileCase>
profileCases()
{
    std::vector<ProfileCase> cases;
    cases.push_back({"smoke", workload::smokeProfile(), 1.0});
    const auto suite = workload::standardSuite();
    if (const auto *perl = workload::findProfile(suite, "perl"))
        cases.push_back({"perl", *perl, 0.02});
    return cases;
}

CheckpointMeta
metaFor(const std::string &predictor, const char *profile)
{
    CheckpointMeta meta;
    meta.predictor = predictor;
    meta.profile = profile;
    meta.fingerprint = "equivalence-test";
    return meta;
}

/** Run a fresh (predictor, session) over [from, to) of @p trace and
 *  return the final full checkpoint. */
std::vector<std::uint8_t>
straightRun(const std::string &name, const char *profile_label,
            trace::TraceBuffer &trace, std::uint64_t to,
            RunMetrics *metrics_out = nullptr)
{
    auto predictor = makePredictor(name);
    ReplaySession session;
    trace.rewind();
    const std::uint64_t consumed = session.run(trace, *predictor, to);
    EXPECT_EQ(consumed, to);
    if (metrics_out)
        *metrics_out = session.metrics();
    CheckpointMeta meta = metaFor(name, profile_label);
    meta.cursor = trace.cursor();
    return encodeSimCheckpoint(meta, *predictor, session);
}

/** Run to @p split, checkpoint, restore into fresh objects, continue
 *  to @p to, and return the final checkpoint. */
std::vector<std::uint8_t>
resumedRun(const std::string &name, const char *profile_label,
           trace::TraceBuffer &trace, std::uint64_t split,
           std::uint64_t to, RunMetrics *metrics_out = nullptr)
{
    std::vector<std::uint8_t> mid;
    {
        auto predictor = makePredictor(name);
        ReplaySession session;
        trace.rewind();
        EXPECT_EQ(session.run(trace, *predictor, split), split);
        CheckpointMeta meta = metaFor(name, profile_label);
        meta.cursor = trace.cursor();
        mid = encodeSimCheckpoint(meta, *predictor, session);
    }
    // The first objects are gone; only the bytes survive.
    auto predictor = makePredictor(name);
    ReplaySession session;
    CheckpointMeta meta;
    const util::Status status =
        restoreSimCheckpoint(mid, meta, *predictor, session);
    EXPECT_TRUE(status.ok()) << name << ": " << status.message();
    EXPECT_EQ(meta.predictor, name);
    EXPECT_EQ(meta.cursor, split);
    EXPECT_TRUE(trace.seek(meta.cursor));
    EXPECT_EQ(session.run(trace, *predictor, to - split), to - split);
    if (metrics_out)
        *metrics_out = session.metrics();
    CheckpointMeta final_meta = metaFor(name, profile_label);
    final_meta.cursor = trace.cursor();
    return encodeSimCheckpoint(final_meta, *predictor, session);
}

TEST(CheckpointEquivalence, EveryPredictorEveryProfile)
{
    for (const auto &pcase : profileCases()) {
        trace::TraceBuffer trace =
            generateTrace(pcase.profile, pcase.scale);
        const auto total = static_cast<std::uint64_t>(trace.size());
        ASSERT_GT(total, 1000u) << pcase.label;
        const std::uint64_t split = total / 2;

        for (const auto &name : kAllPredictors) {
            RunMetrics straight_metrics;
            RunMetrics resumed_metrics;
            const auto straight = straightRun(
                name, pcase.label, trace, total, &straight_metrics);
            const auto resumed =
                resumedRun(name, pcase.label, trace, split, total,
                           &resumed_metrics);
            // Checkpoint bytes cover tables, histories, transients,
            // metrics and probes in one comparison.
            EXPECT_EQ(straight, resumed)
                << name << " over " << pcase.label
                << ": resumed run diverged from the straight run";
            EXPECT_EQ(straight_metrics.indirectMisses.events(),
                      resumed_metrics.indirectMisses.events())
                << name << " over " << pcase.label;
            EXPECT_EQ(straight_metrics.indirectMisses.total(),
                      resumed_metrics.indirectMisses.total())
                << name << " over " << pcase.label;
            EXPECT_EQ(straight_metrics.branches,
                      resumed_metrics.branches)
                << name << " over " << pcase.label;

            // The observable probe snapshots must agree too.
            auto snapshot = [&](const std::vector<std::uint8_t> &blob) {
                auto predictor = makePredictor(name);
                ReplaySession session;
                CheckpointMeta meta;
                EXPECT_TRUE(restoreSimCheckpoint(blob, meta, *predictor,
                                                 session)
                                .ok());
                obs::ProbeRegistry registry;
                session.snapshotProbes(registry, *predictor);
                return registry;
            };
            const obs::ProbeRegistry a = snapshot(straight);
            const obs::ProbeRegistry b = snapshot(resumed);
            EXPECT_EQ(a.counters(), b.counters()) << name;
            EXPECT_EQ(a.histograms(), b.histograms()) << name;
        }
    }
}

TEST(CheckpointEquivalence, SplitPointsIncludingEdges)
{
    workload::BenchmarkProfile profile = workload::smokeProfile();
    trace::TraceBuffer trace = generateTrace(profile);
    const auto total = static_cast<std::uint64_t>(trace.size());
    const std::string name = "PPM-hyb";
    const auto straight = straightRun(name, "smoke", trace, total);
    for (std::uint64_t split :
         {std::uint64_t{0}, std::uint64_t{1}, total / 4, total - 1,
          total}) {
        const auto resumed =
            resumedRun(name, "smoke", trace, split, total);
        EXPECT_EQ(straight, resumed)
            << "split at " << split << " of " << total;
    }
}

TEST(CheckpointEquivalence, WalkerResumesBitExactly)
{
    const workload::SynthesisParams params =
        workload::smokeProfile().program;
    workload::Program first = workload::synthesize(params);
    trace::TraceBuffer prefix;
    first.run(5000, prefix);

    util::StateWriter writer;
    first.saveState(writer);

    workload::Program second = workload::synthesize(params);
    util::StateReader reader(writer.bytes());
    second.loadState(reader);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    ASSERT_TRUE(reader.atEnd());

    for (int i = 0; i < 5000; ++i) {
        const trace::BranchRecord a = first.step();
        const trace::BranchRecord b = second.step();
        ASSERT_EQ(a.pc, b.pc) << "step " << i;
        ASSERT_EQ(a.target, b.target) << "step " << i;
        ASSERT_EQ(a.kind, b.kind) << "step " << i;
        ASSERT_EQ(a.taken, b.taken) << "step " << i;
    }
}

TEST(CheckpointEquivalence, CheckpointTravelsInsideTraceFile)
{
    workload::BenchmarkProfile profile = workload::smokeProfile();
    trace::TraceBuffer trace = generateTrace(profile);
    const auto total = static_cast<std::uint64_t>(trace.size());
    const std::uint64_t split = total / 3;
    const std::string name = "Cascade";

    // Write records, embedding the simulation state mid-stream.
    auto predictor = makePredictor(name);
    ReplaySession session;
    trace.rewind();
    EXPECT_EQ(session.run(trace, *predictor, split), split);
    CheckpointMeta meta = metaFor(name, "smoke");
    meta.cursor = split;

    std::stringstream file;
    trace::TraceWriter writer(file);
    for (std::uint64_t i = 0; i < split; ++i)
        writer.push(trace[static_cast<std::size_t>(i)]);
    embedCheckpoint(writer,
                    encodeSimCheckpoint(meta, *predictor, session));
    for (std::uint64_t i = split; i < total; ++i)
        writer.push(trace[static_cast<std::size_t>(i)]);

    // A reader extracts the chunk and resumes from it over the
    // remaining records.  next() delivers the chunk and then the
    // record that follows it in one call, so collect the suffix into
    // a buffer keyed off "blob already seen".
    trace::TraceReader traceReader(file);
    std::vector<std::uint8_t> blob;
    std::uint64_t chunk_at = 0;
    traceReader.onChunk(
        [&](std::uint64_t id, const std::string &payload) {
            EXPECT_EQ(id, trace::kChunkCheckpoint);
            blob.assign(payload.begin(), payload.end());
            chunk_at = traceReader.count();
        });
    trace::TraceBuffer tail;
    trace::BranchRecord record;
    while (traceReader.next(record))
        if (!blob.empty())
            tail.push(record);
    ASSERT_EQ(chunk_at, split);
    ASSERT_EQ(tail.size(), total - split);

    auto resumed = makePredictor(name);
    ReplaySession resumed_session;
    CheckpointMeta resumed_meta;
    ASSERT_TRUE(restoreSimCheckpoint(blob, resumed_meta, *resumed,
                                     resumed_session)
                    .ok());
    EXPECT_EQ(resumed_session.run(tail, *resumed), total - split);

    const auto straight = straightRun(name, "smoke", trace, total);
    CheckpointMeta final_meta = metaFor(name, "smoke");
    final_meta.cursor = total;
    EXPECT_EQ(straight, encodeSimCheckpoint(final_meta, *resumed,
                                            resumed_session));
}

TEST(CheckpointEquivalence, HostileInputNeverCrashes)
{
    workload::BenchmarkProfile profile = workload::smokeProfile();
    trace::TraceBuffer trace = generateTrace(profile, 0.2);
    const std::string name = "PPM-hyb";
    auto predictor = makePredictor(name);
    ReplaySession session;
    session.run(trace, *predictor, 2000);
    CheckpointMeta meta = metaFor(name, "smoke");
    const std::vector<std::uint8_t> valid =
        encodeSimCheckpoint(meta, *predictor, session);

    // Every truncation must decode to a Status, never crash.  Stride
    // keeps the loop fast on a multi-KB blob while still hitting every
    // alignment; the first 64 prefixes are covered exhaustively.
    for (std::size_t len = 0; len < valid.size();
         len += (len < 64 ? 1 : 131)) {
        std::vector<std::uint8_t> cut(valid.begin(),
                                      valid.begin() + len);
        CheckpointMeta out_meta;
        auto victim = makePredictor(name);
        ReplaySession victim_session;
        restoreSimCheckpoint(cut, out_meta, *victim, victim_session);
        decodeSimCheckpointMeta(cut, out_meta);
    }

    // Randomized bit flips: restore may fail (usually) or succeed (a
    // flip in an ignorable spot), but must never crash or hang.
    util::Rng rng(0xC0FFEE);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> bent = valid;
        const std::size_t at = rng.below(bent.size());
        bent[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        CheckpointMeta out_meta;
        auto victim = makePredictor(name);
        ReplaySession victim_session;
        restoreSimCheckpoint(bent, out_meta, *victim, victim_session);
    }
}

TEST(CheckpointEquivalence, SuiteProgressHostileInputNeverCrashes)
{
    SuiteProgress progress;
    progress.fingerprint = "fuzz";
    CompletedCell cell;
    cell.row = "perl";
    cell.col = "BTB";
    cell.cell.missPercent = 12.5;
    cell.cell.predictions = 1000;
    cell.probes.counter("ras/pushes", 42);
    progress.cells.push_back(cell);
    // Several in-flight cells, one "partial" section each; the
    // single-cell compatibility slot encodes as one more section.
    for (std::uint64_t i = 0; i < 3; ++i) {
        PartialCell partial;
        partial.valid = true;
        partial.row = "perl";
        partial.col = "BTB2b#" + std::to_string(i);
        partial.cursor = 123 + i;
        partial.predictorState = std::string(32 + i, 'x');
        partial.engineState = std::string(16, 'y');
        partial.probeState = std::string(8, 'z');
        if (i < 2)
            progress.partials.push_back(partial);
        else
            progress.partial = partial;
    }
    const std::vector<std::uint8_t> valid =
        encodeSuiteProgress(progress);

    SuiteProgress round;
    ASSERT_TRUE(decodeSuiteProgress(valid, round).ok());
    ASSERT_EQ(round.cells.size(), 1u);
    EXPECT_EQ(round.cells[0].cell.missPercent, 12.5);
    EXPECT_EQ(round.cells[0].probes.counterValue("ras/pushes"), 42u);
    ASSERT_EQ(round.partials.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(round.partials[i].valid);
        EXPECT_EQ(round.partials[i].col,
                  "BTB2b#" + std::to_string(i));
        EXPECT_EQ(round.partials[i].cursor, 123 + i);
        EXPECT_EQ(round.partials[i].predictorState,
                  std::string(32 + i, 'x'));
    }
    EXPECT_EQ(encodeSuiteProgress(round), valid)
        << "re-encoding the decoded partials must be byte-identical";

    for (std::size_t len = 0; len < valid.size(); ++len) {
        std::vector<std::uint8_t> cut(valid.begin(),
                                      valid.begin() + len);
        SuiteProgress out;
        decodeSuiteProgress(cut, out);
    }
    util::Rng rng(7);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::uint8_t> bent = valid;
        const std::size_t at = rng.below(bent.size());
        bent[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        SuiteProgress out;
        decodeSuiteProgress(bent, out);
    }
}

} // namespace
