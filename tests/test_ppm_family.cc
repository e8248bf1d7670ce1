/**
 * @file
 * State pins for the whole PPM family and for the tagged-table
 * predictors: every factory PPM variant, Cascade, Cascade-strict,
 * Dpath and Perceptron, replayed over real suite traces, must end in
 * the same state bytes, with the same miss and no-prediction counts,
 * as the reference values below.  The golden suite only covers the
 * small suite's miss rates; these pins also exercise the tagged,
 * voting, low-select and pc-mixed stacks, and see any drift in an
 * AssocTable's LRU stamps, clock or lines that a miss rate cannot.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/serde.hh"
#include "workload/profiles.hh"
#include "workload/program.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

using namespace ibp;

/** FNV-1a over a serialized state blob. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::uint8_t byte : bytes)
        hash = (hash ^ byte) * 0x100000001b3ULL;
    return hash;
}

/** The first @p n records a suite profile's walker generates. */
std::vector<trace::BranchRecord>
prefix(const char *profile, std::size_t n)
{
    const auto suite = workload::standardSuite();
    const workload::BenchmarkProfile *found =
        workload::findProfile(suite, profile);
    EXPECT_NE(found, nullptr) << profile;
    std::vector<trace::BranchRecord> records(n);
    if (found) {
        workload::Program program = workload::synthesize(found->program);
        program.fill(records.data(), records.size());
    }
    return records;
}

struct Replayed
{
    std::uint64_t stateHash;
    std::uint64_t misses;
    std::uint64_t noPrediction;
};

Replayed
replay(pred::IndirectPredictor &predictor,
       const std::vector<trace::BranchRecord> &records)
{
    sim::ReplaySession session;
    sim::ReplayRow row;
    row.addColumn(predictor, session);
    row.feed(records.data(), records.size());
    util::StateWriter writer;
    predictor.saveState(writer);
    return {fnv1a(writer.bytes()),
            session.metrics().indirectMisses.events(),
            session.metrics().noPrediction.events()};
}

} // namespace

TEST(PpmFamily, StateAndMissesArePinned)
{
    struct Pin
    {
        const char *predictor;
        const char *profile;
        Replayed want;
    };
    // The PPM rows were captured before the stack's observe() and order
    // walk were specialised, the Cascade, Dpath and Perceptron rows
    // before their tables moved onto AssocTable's slot protocol, the
    // ITTAGE rows before its folds and components moved into flat
    // arrays; a change here is a behaviour change, not a refactor.
    const Pin pins[] = {
        {"PPM-hyb", "perl", {0x9669b71079d0e6eULL, 5155, 2}},
        {"PPM-hyb", "gcc", {0x14639cd8e5749dcdULL, 5665, 2}},
        {"PPM-PIB", "perl", {0x9dd788fd737bbcf9ULL, 5381, 2}},
        {"PPM-PIB", "gcc", {0xc3501763986bc2bULL, 7169, 2}},
        {"PPM-hyb-biased", "perl", {0x7ec8641e80604c32ULL, 5633, 2}},
        {"PPM-hyb-biased", "gcc", {0xcdbc1dbf24728ea7ULL, 6763, 2}},
        {"PPM-tagged", "perl", {0xe35f72a9b8a6baffULL, 6070, 3584}},
        {"PPM-tagged", "gcc", {0x33188ec3649ff5b1ULL, 7033, 3844}},
        {"PPM-vote2", "perl", {0x5eaf94c4b73bcc3dULL, 7318, 1}},
        {"PPM-vote2", "gcc", {0x6e2dd10b781ef137ULL, 8059, 2}},
        {"PPM-low", "perl", {0xc4a1db1438311017ULL, 7536, 2}},
        {"PPM-low", "gcc", {0x1e950c4150b95758ULL, 6902, 2}},
        {"PPM-gshare", "perl", {0x17030b45c00bc871ULL, 4596, 2}},
        {"PPM-gshare", "gcc", {0xb385386a798e3f45ULL, 7246, 2}},
        {"Filtered-PPM", "perl", {0xbc058612616a672ULL, 4837, 2}},
        {"Filtered-PPM", "gcc", {0x294a579388d65d02ULL, 5416, 2}},
        {"Cascade", "perl", {0x1d845b6a2d82375eULL, 4986, 29}},
        {"Cascade", "gcc", {0xdd56c9afdf39826aULL, 4363, 36}},
        {"Cascade-strict", "perl", {0xad551f20914d8e3eULL, 4990, 29}},
        {"Cascade-strict", "gcc", {0x9e41688014dcc0f6ULL, 4387, 40}},
        {"Dpath", "perl", {0x18f7363c25be625bULL, 2799, 57}},
        {"Dpath", "gcc", {0xa6722579c14072bfULL, 4455, 63}},
        {"Perceptron", "perl", {0x996d160615919e98ULL, 2947, 28}},
        {"Perceptron", "gcc", {0xc1f126cd1beec7eULL, 3273, 34}},
        {"ITTAGE", "perl", {0xd78f16d9a571f1b9ULL, 2734, 29}},
        {"ITTAGE", "gcc", {0x5acf28c5a6acfca4ULL, 3934, 35}},
    };

    const std::vector<trace::BranchRecord> perl = prefix("perl", 200'000);
    const std::vector<trace::BranchRecord> gcc = prefix("gcc", 200'000);
    for (const Pin &pin : pins) {
        auto predictor = sim::makePredictor(pin.predictor);
        const Replayed got =
            replay(*predictor, std::string(pin.profile) == "perl" ? perl
                                                                  : gcc);
        EXPECT_EQ(got.stateHash, pin.want.stateHash)
            << pin.predictor << " on " << pin.profile << ": {0x"
            << std::hex << got.stateHash << "ULL, " << std::dec
            << got.misses << ", " << got.noPrediction << "}";
        EXPECT_EQ(got.misses, pin.want.misses)
            << pin.predictor << " on " << pin.profile;
        EXPECT_EQ(got.noPrediction, pin.want.noPrediction)
            << pin.predictor << " on " << pin.profile;
    }
}

TEST(PpmFamily, NonPowerOfTwoGeometryMissesArePinned)
{
    // At size scale 0.75 most Markov tables hold a non-power-of-two
    // entry count (order 10 has 768), so every order's index is
    // reduced by modulo rather than by a mask.
    auto predictor = sim::makePredictor("PPM-hyb", {0.75});
    trace::TraceBuffer smoke =
        sim::generateTrace(workload::smokeProfile());
    const sim::RunMetrics metrics = sim::Engine().run(smoke, *predictor);
    EXPECT_EQ(metrics.indirectMisses.events(), 2004u);
    EXPECT_EQ(metrics.noPrediction.events(), 1u);
    EXPECT_EQ(metrics.indirectMisses.total(), 11715u);
}
