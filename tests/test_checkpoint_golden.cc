/**
 * @file
 * Format-stability test for the "IBPC" checkpoint container: a
 * deterministic simulation checkpoint is committed at
 * tests/golden/checkpoint_small.bin, and every build must (a) produce
 * those bytes for the same run and (b) restore the committed fixture.
 * Any change to the serde layer, the container framing, or a
 * serialized structure's layout shows up here first and must be
 * acknowledged by regenerating the fixture — which is exactly a
 * checkpoint format version bump in miniature.
 *
 * Regenerate with
 *
 *     IBP_REGEN_GOLDEN=1 ./ibp_tests --gtest_filter='CheckpointGolden.*'
 *
 * One deliberate exception: the probes section is compared by *length*
 * only.  Its layout uses fixed-width writes precisely so the blob
 * shape is identical across instrumented and probe-free builds, but
 * the probe *values* legitimately differ between those builds (gated
 * counters read zero when compiled out).  Architectural state — the
 * meta, predictor and engine sections — must match byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "util/serde.hh"
#include "workload/profiles.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

#ifndef IBP_GOLDEN_DIR
#error "tests/CMakeLists.txt must define IBP_GOLDEN_DIR"
#endif

namespace {

using namespace ibp;
using namespace ibp::sim;

const char *const kFixturePath =
    IBP_GOLDEN_DIR "/checkpoint_small.bin";

constexpr const char *kPredictor = "PPM-hyb";
constexpr std::uint64_t kSplit = 10000;
constexpr std::uint64_t kTail = 10000;

/** The fixture's run, reproduced from scratch: kSplit records of the
 *  smoke profile through a factory-fresh PPM-hyb. */
std::vector<std::uint8_t>
buildGoldenCheckpoint(std::uint64_t records,
                      pred::IndirectPredictor **predictor_out = nullptr,
                      ReplaySession **session_out = nullptr)
{
    static trace::TraceBuffer trace =
        generateTrace(workload::smokeProfile());
    EXPECT_GE(trace.size(), records);

    static std::unique_ptr<pred::IndirectPredictor> predictor;
    static std::unique_ptr<ReplaySession> session;
    predictor = makePredictor(kPredictor);
    session = std::make_unique<ReplaySession>();
    trace.rewind();
    EXPECT_EQ(session->run(trace, *predictor, records), records);

    CheckpointMeta meta;
    meta.predictor = kPredictor;
    meta.profile = "smoke";
    meta.fingerprint = "golden-checkpoint-v1";
    meta.cursor = records;
    if (predictor_out)
        *predictor_out = predictor.get();
    if (session_out)
        *session_out = session.get();
    return encodeSimCheckpoint(meta, *predictor, *session);
}

/** Decomposed view of a sim blob for section-level comparison. */
struct Layout
{
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::string kind;
    std::vector<std::string> order;
    std::map<std::string, std::string> payload;
};

bool
decompose(const std::vector<std::uint8_t> &bytes, Layout &layout)
{
    util::StateReader reader(bytes);
    layout.magic = reader.readU32();
    layout.version = reader.readU16();
    layout.kind = reader.readString();
    std::string name;
    util::StateReader payload;
    while (reader.nextSection(name, payload)) {
        layout.order.push_back(name);
        std::string raw(payload.size(), '\0');
        payload.readBytes(raw.data(), raw.size());
        layout.payload[name] = std::move(raw);
    }
    return reader.ok() && reader.atEnd();
}

std::vector<std::uint8_t>
readFixture()
{
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(readCheckpointFile(kFixturePath, bytes).ok())
        << "missing fixture " << kFixturePath
        << " — regenerate with IBP_REGEN_GOLDEN=1";
    return bytes;
}

// Declared before the comparison tests so a regen run updates the
// fixture first and the comparisons then validate the fresh file.
TEST(CheckpointGolden, Regenerate)
{
    if (std::getenv("IBP_REGEN_GOLDEN") == nullptr)
        GTEST_SKIP()
            << "set IBP_REGEN_GOLDEN=1 to rewrite " << kFixturePath;
    const auto bytes = buildGoldenCheckpoint(kSplit);
    ASSERT_TRUE(writeCheckpointFile(kFixturePath, bytes).ok());
}

TEST(CheckpointGolden, FormatIsStable)
{
    const auto fixture = readFixture();
    if (fixture.empty())
        return; // readFixture already failed the test
    const auto current = buildGoldenCheckpoint(kSplit);

    Layout want;
    Layout got;
    ASSERT_TRUE(decompose(fixture, want))
        << "committed fixture does not parse";
    ASSERT_TRUE(decompose(current, got));

    EXPECT_EQ(want.magic, kCheckpointMagic);
    EXPECT_EQ(want.magic, got.magic);
    EXPECT_EQ(want.version, kCheckpointVersion)
        << "version bumped: regenerate the fixture deliberately";
    EXPECT_EQ(want.kind, kCheckpointKindSim);
    EXPECT_EQ(want.order, got.order)
        << "section order changed — a format change";

    for (const auto &[name, payload] : want.payload) {
        ASSERT_TRUE(got.payload.count(name)) << "section " << name;
        if (name == "probes") {
            // Shape-stable, value-variable across instrumentation
            // configurations (see file comment).
            EXPECT_EQ(payload.size(), got.payload[name].size())
                << "probes section length changed — fixed-width "
                   "layout drifted";
            continue;
        }
        EXPECT_EQ(payload, got.payload[name])
            << "section " << name << " bytes changed";
    }
}

TEST(CheckpointGolden, FixtureRestoresAndContinues)
{
    const auto fixture = readFixture();
    if (fixture.empty())
        return;

    auto predictor = makePredictor(kPredictor);
    ReplaySession session;
    CheckpointMeta meta;
    const util::Status status =
        restoreSimCheckpoint(fixture, meta, *predictor, session);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(meta.predictor, kPredictor);
    EXPECT_EQ(meta.profile, "smoke");
    EXPECT_EQ(meta.cursor, kSplit);

    // Continue past the fixture and compare the architectural state
    // against a straight run of the same length: the committed bytes
    // must still *mean* the same thing, not merely parse.
    trace::TraceBuffer trace = generateTrace(workload::smokeProfile());
    ASSERT_GE(trace.size(), kSplit + kTail);
    const trace::BranchRecord *prefix = nullptr;
    ASSERT_EQ(trace.nextSpan(prefix, kSplit), kSplit);
    EXPECT_EQ(session.run(trace, *predictor, kTail), kTail);
    CheckpointMeta resumed_meta = meta;
    resumed_meta.cursor = kSplit + kTail;
    const auto resumed =
        encodeSimCheckpoint(resumed_meta, *predictor, session);

    pred::IndirectPredictor *straight_predictor = nullptr;
    ReplaySession *straight_session = nullptr;
    buildGoldenCheckpoint(kSplit + kTail, &straight_predictor,
                          &straight_session);
    CheckpointMeta straight_meta = resumed_meta;
    straight_meta.fingerprint = "golden-checkpoint-v1";
    const auto straight = encodeSimCheckpoint(
        straight_meta, *straight_predictor, *straight_session);

    Layout a;
    Layout b;
    ASSERT_TRUE(decompose(resumed, a));
    ASSERT_TRUE(decompose(straight, b));
    EXPECT_EQ(a.payload["meta"], b.payload["meta"]);
    EXPECT_EQ(a.payload["predictor"], b.payload["predictor"])
        << "continuing from the committed fixture diverged";
    EXPECT_EQ(a.payload["engine"], b.payload["engine"]);
}

} // namespace
