/**
 * @file
 * Tests for the ITTAGE tagged-geometric indirect predictor: history
 * geometry, folded-history algebra, partial-tag aliasing, the
 * allocation cascade, and checkpoint serde.
 */

#include <cstdint>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "util/probe.hh"
#include "util/serde.hh"
#include "predictors/ittage.hh"

namespace {

using namespace ibp::pred;
using ibp::trace::BranchKind;
using ibp::trace::BranchRecord;

BranchRecord
mtJmp(ibp::trace::Addr pc, ibp::trace::Addr target)
{
    BranchRecord r;
    r.pc = pc;
    r.target = target;
    r.kind = BranchKind::IndirectJmp;
    r.multiTarget = true;
    return r;
}

IttageConfig
smallConfig()
{
    IttageConfig config;
    config.baseEntries = 32;
    config.numComponents = 3;
    config.entriesPerComponent = 32;
    config.tagBits = 8;
    config.minHistory = 2;
    config.maxHistory = 8;
    config.bitsPerTarget = 4;
    return config;
}

std::vector<std::uint8_t>
stateBytes(const Ittage &predictor)
{
    ibp::util::StateWriter writer;
    predictor.saveState(writer);
    return writer.bytes();
}

std::vector<std::uint8_t>
probeBytes(const Ittage &predictor)
{
    ibp::util::StateWriter writer;
    predictor.saveProbes(writer);
    return writer.bytes();
}

/** Train @p split through predict() then update() and @p fused
 *  through predictAndUpdate(); both must predict the same target. */
void
stepBoth(Ittage &split, Ittage &fused, ibp::trace::Addr pc,
         ibp::trace::Addr target)
{
    const Prediction a = split.predict(pc);
    split.update(pc, target);
    const Prediction b = fused.predictAndUpdate(pc, target);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.target, b.target);
}

TEST(Ittage, ColdMissAndName)
{
    Ittage ittage(smallConfig());
    EXPECT_FALSE(ittage.predict(0x120000040).valid);
    EXPECT_EQ(ittage.name(), "ITTAGE");
    Ittage named(smallConfig(), "ITTAGE-x");
    EXPECT_EQ(named.name(), "ITTAGE-x");
}

TEST(Ittage, HistoryLengthsArePaperGeometricSeries)
{
    // The full-scale config must reproduce the canonical TAGE series.
    IttageConfig config;
    const Ittage ittage(config);
    EXPECT_EQ(ittage.historyLengths(),
              (std::vector<unsigned>{2, 4, 8, 16, 32, 64}));
}

TEST(Ittage, HistoryLengthsStayStrictlyIncreasing)
{
    // A cramped range (3..12 over 5 components) cannot grow
    // geometrically without rounding collisions; the constructor must
    // still emit a strictly increasing series inside the bounds.
    IttageConfig config = smallConfig();
    config.numComponents = 5;
    config.minHistory = 3;
    config.maxHistory = 12;
    const Ittage ittage(config);
    const auto &lengths = ittage.historyLengths();
    ASSERT_EQ(lengths.size(), 5u);
    EXPECT_EQ(lengths.front(), 3u);
    EXPECT_GE(lengths.back(), 12u);
    for (std::size_t i = 1; i < lengths.size(); ++i)
        EXPECT_GT(lengths[i], lengths[i - 1]);
}

TEST(Ittage, FoldedHistoryCancelsOutgoingSymbolsExactly)
{
    // The incremental fold is the XOR of rotated window symbols, so a
    // fresh fold fed only the final window (over a zero pre-history)
    // must land on the same value as a long-lived fold that watched
    // hundreds of symbols scroll past.  Exact cancellation is what
    // makes the O(1) push correct.
    const unsigned width = 7, length = 6, symbol_bits = 4;
    FoldBank longLived({length}, {width, width - 1, 2}, symbol_bits);

    std::uint32_t lcg = 12345;
    std::vector<std::uint32_t> symbols;
    for (int i = 0; i < 300; ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        symbols.push_back(lcg >> 16 & 0xF);
    }
    for (const std::uint32_t symbol : symbols)
        longLived.push(symbol);

    FoldBank fresh({length}, {width, width - 1, 2}, symbol_bits);
    for (std::size_t i = symbols.size() - length; i < symbols.size();
         ++i)
        fresh.push(symbols[i]);
    for (std::size_t kind = 0; kind < FoldBank::kKinds; ++kind)
        EXPECT_EQ(fresh.value(0, kind), longLived.value(0, kind))
            << "outgoing-symbol cancellation drifted, kind " << kind;
    EXPECT_EQ(longLived.value(0, 0) & ~ibp::util::maskLow(width), 0u);
}

/** The definition a fold must equal: the XOR over the newest
 *  @p length symbols of @p window of rotateLeft(symbol, symbolBits *
 *  age), age 0 the newest. */
std::uint64_t
rotatedWindow(const std::deque<std::uint32_t> &window, unsigned width,
              unsigned length, unsigned symbol_bits)
{
    std::uint64_t folded = 0;
    for (unsigned age = 0; age < length; ++age)
        folded ^= ibp::util::rotateLeft(window[age], width,
                                        symbol_bits * age);
    return folded;
}

TEST(Ittage, FoldedHistoryMatchesTheRotatedWindowDefinition)
{
    // The one-word CSR push must equal the definition.  Geometries
    // cover a symbol wider than the register, a whole-multiple
    // rotation (amount reduces to 0), odd widths, the 32-bit maximum
    // and a one-symbol window, each as every kind of a one-window
    // bank and then as one kind of windows 3, length and 70 long (the
    // ring is as long as the longest window).
    struct Geometry
    {
        unsigned width, length, symbolBits;
    };
    const Geometry geometries[] = {
        {2, 3, 4}, {7, 6, 4}, {8, 2, 4}, {11, 64, 4},
        {12, 16, 3}, {32, 9, 31}, {5, 1, 2},
    };
    for (const Geometry &g : geometries) {
        FoldBank fold({g.length}, {g.width, g.width, g.width},
                      g.symbolBits);
        FoldBank shared({3, g.length, 70}, {2, g.width, 7}, g.symbolBits);
        std::deque<std::uint32_t> window(70, 0);
        std::uint32_t lcg = 77;
        for (int i = 0; i < 500; ++i) {
            lcg = lcg * 1664525u + 1013904223u;
            const std::uint32_t symbol = static_cast<std::uint32_t>(
                ibp::util::selectLow(lcg >> 3, g.symbolBits));
            fold.push(symbol);
            shared.push(symbol);
            window.pop_back();
            window.push_front(symbol);

            const std::uint64_t expected =
                rotatedWindow(window, g.width, g.length, g.symbolBits);
            for (std::size_t kind = 0; kind < FoldBank::kKinds; ++kind)
                ASSERT_EQ(fold.value(0, kind), expected)
                    << "width " << g.width << " length " << g.length
                    << " symbol bits " << g.symbolBits << " push " << i;
            for (std::size_t w = 0; w < shared.windows(); ++w) {
                const unsigned length = w == 0   ? 3
                                        : w == 1 ? g.length
                                                 : 70;
                for (std::size_t kind = 0; kind < FoldBank::kKinds;
                     ++kind)
                    ASSERT_EQ(shared.value(w, kind),
                              rotatedWindow(window, shared.width(kind),
                                            length, g.symbolBits))
                        << "window " << w << " kind " << kind
                        << " beside other folds, push " << i;
            }
            ASSERT_EQ(fold.symbol(g.length - 1), window[g.length - 1]);
        }
    }
}

TEST(Ittage, FoldBankMatchesTheRotatedWindowAtPredictorGeometries)
{
    // The predictor's own folds, at the factory geometry (6
    // components, histories 2..64) and at smallConfig(): drive the
    // predictor's history with observed branches and check every
    // component's index fold and combined tag folds, through
    // indexFor()/tagFor() at pc 0 (the pc terms vanish there), and a
    // standalone bank of the same folds value by value.
    for (const IttageConfig &config : {IttageConfig{}, smallConfig()}) {
        Ittage ittage(config);
        const std::vector<unsigned> &lengths = ittage.historyLengths();
        const unsigned index_bits =
            ibp::util::log2Ceil(config.entriesPerComponent);
        ASSERT_EQ(std::size_t{1} << index_bits,
                  config.entriesPerComponent);
        FoldBank bank(lengths,
                      {index_bits, config.tagBits, config.tagBits - 1},
                      config.bitsPerTarget);
        std::deque<std::uint32_t> window(lengths.back(), 0);

        std::uint32_t lcg = 31;
        for (int i = 0; i < 400; ++i) {
            lcg = lcg * 1664525u + 1013904223u;
            const BranchRecord record =
                mtJmp(0x120000000 + (lcg >> 24 & 0xFC),
                      0x120000000 + (lcg >> 8 & 0xFFFC));
            ittage.observe(record);
            const auto symbol = static_cast<std::uint32_t>(
                pathSymbol(record, config.bitsPerTarget));
            bank.push(symbol);
            window.pop_back();
            window.push_front(symbol);

            for (std::size_t c = 0; c < lengths.size(); ++c) {
                const unsigned bits = config.bitsPerTarget;
                const std::uint64_t index =
                    rotatedWindow(window, index_bits, lengths[c], bits);
                const std::uint64_t tag_a = rotatedWindow(
                    window, config.tagBits, lengths[c], bits);
                const std::uint64_t tag_b = rotatedWindow(
                    window, config.tagBits - 1, lengths[c], bits);
                ASSERT_EQ(bank.value(c, 0), index);
                ASSERT_EQ(bank.value(c, 1), tag_a);
                ASSERT_EQ(bank.value(c, 2), tag_b);
                ASSERT_EQ(ittage.indexFor(c, 0), index)
                    << "component " << c << " push " << i;
                ASSERT_EQ(ittage.tagFor(c, 0), tag_a ^ (tag_b << 1))
                    << "component " << c << " push " << i;
            }
        }
    }
}

TEST(Ittage, PartialTagsAliasAcrossBranches)
{
    // Partial tags are the budget compromise: two pcs that fold to
    // the same (index, tag) pair share a component line, so the alias
    // sees the victim's target.  A pc with the same index but a
    // different tag must not.
    IttageConfig config = smallConfig();
    config.numComponents = 1;
    config.entriesPerComponent = 8;
    config.tagBits = 4;
    config.baseEntries = 8;
    Ittage ittage(config);

    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr target = 0x120009000;
    ittage.update(pc, target); // base trains + component 0 allocates
    ASSERT_EQ(ittage.providerComponent(pc), 0u);

    // Scan for an aliasing pc and a tag-mismatching pc.  The search
    // is deterministic: the folds are empty, so index and tag depend
    // only on the pc.
    ibp::trace::Addr alias = 0, mismatch = 0;
    for (ibp::trace::Addr probe = pc + 4;
         probe < pc + 4 * 100000 && !(alias && mismatch); probe += 4) {
        if (ittage.indexFor(0, probe) != ittage.indexFor(0, pc))
            continue;
        if (ittage.tagFor(0, probe) == ittage.tagFor(0, pc)) {
            if (!alias)
                alias = probe;
        } else if (!mismatch &&
                   (probe >> 2) % config.baseEntries !=
                       (pc >> 2) % config.baseEntries) {
            mismatch = probe;
        }
    }
    ASSERT_NE(alias, 0u) << "no tag alias in 100k pcs; hash changed?";
    ASSERT_NE(mismatch, 0u);

    const Prediction hit = ittage.predict(alias);
    EXPECT_TRUE(hit.valid);
    EXPECT_EQ(hit.target, target) << "alias must see the victim's line";
    EXPECT_FALSE(ittage.predict(mismatch).valid)
        << "tag mismatch must fall through to the (cold) base table";
}

TEST(Ittage, RetargetsOnlyAfterConfidenceDrains)
{
    // One component: mispredicts cannot allocate a longer-history
    // provider, so the confidence hysteresis is observable in
    // isolation.
    IttageConfig config = smallConfig();
    config.numComponents = 1;
    Ittage ittage(config);
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000, t2 = 0x120002000;

    ittage.update(pc, t1); // allocate component 0
    ASSERT_EQ(ittage.providerComponent(pc), 0u);
    // Build confidence on the provider line.
    ittage.update(pc, t1);
    ittage.update(pc, t1);
    EXPECT_GE(ittage.componentEntry(0, pc).confidence.value(), 2u);

    // Wrong targets drain the counter before the line flips.
    ittage.update(pc, t2);
    EXPECT_EQ(ittage.componentEntry(0, pc).target, t1)
        << "retargeted while confidence was still positive";
    ittage.update(pc, t2);
    ittage.update(pc, t2);
    ittage.update(pc, t2);
    EXPECT_EQ(ittage.componentEntry(0, pc).target, t2)
        << "confidence at zero must retarget in place";
}

TEST(Ittage, AllocationStallMatchesAcrossFusedAndSplitCalls)
{
    // One component, so the only allocation candidate above a base-
    // table provider is component 0's slot.  Make that slot useful for
    // pc, then mispredict an aliasing pc with the same index but a
    // different tag: allocation must stall (age the slot, keep its
    // line), and the fused call — which reuses the lookup's slots
    // instead of rehashing them — must stall exactly like the split
    // calls, in state and in the ittage/* probe counters.
    IttageConfig config = smallConfig();
    config.numComponents = 1;
    Ittage split(config);
    Ittage fused(config);
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000, t2 = 0x120002000;
    const ibp::trace::Addr t3 = 0x120003000;

    // The histories stay empty (nothing is observed), so slots depend
    // on the pc alone: find a same-index, different-tag neighbour.
    ibp::trace::Addr other = 0;
    for (ibp::trace::Addr probe = pc + 4; probe < pc + 4 * 100000;
         probe += 4) {
        if (split.indexFor(0, probe) == split.indexFor(0, pc) &&
            split.tagFor(0, probe) != split.tagFor(0, pc)) {
            other = probe;
            break;
        }
    }
    ASSERT_NE(other, 0u);

    stepBoth(split, fused, pc, t1); // allocate component 0 with t1
    stepBoth(split, fused, pc, t2); // drained line retargets to t2
    stepBoth(split, fused, pc, t2); // t2 beats the base's t1: useful
    ASSERT_EQ(split.componentEntry(0, pc).useful.value(), 1u);

    stepBoth(split, fused, other, t3); // every candidate useful: stall
    for (const Ittage *ittage : {&split, &fused}) {
        const IttageEntry &line = ittage->componentEntry(0, pc);
        EXPECT_EQ(line.target, t2) << "a stalled allocation overwrote";
        EXPECT_EQ(line.tag, ittage->tagFor(0, pc));
        EXPECT_EQ(line.useful.value(), 0u) << "stall must age the slot";
    }
    EXPECT_EQ(stateBytes(split), stateBytes(fused));
    EXPECT_EQ(probeBytes(split), probeBytes(fused));

    // ittage/allocations, ittage/alloc_stalls, ittage/tagged_provider.
    const std::vector<std::uint8_t> probes = probeBytes(fused);
    ibp::util::StateReader reader(probes);
    const std::uint64_t allocations = reader.readU64();
    const std::uint64_t stalls = reader.readU64();
    const std::uint64_t tagged = reader.readU64();
    ASSERT_TRUE(reader.ok());
    const bool on = ibp::util::kInstrumentEnabled;
    EXPECT_EQ(allocations, on ? 1u : 0u);
    EXPECT_EQ(stalls, on ? 1u : 0u);
    EXPECT_EQ(tagged, on ? 2u : 0u);
}

TEST(Ittage, FusedCallsMatchSplitCallsOnAChurningStream)
{
    // Every lookup outcome — base provider, tagged provider with and
    // without a disagreeing alternate, allocation above the provider,
    // allocation stalls — over a churning multi-branch stream with
    // live histories: the fused path must track the split path in
    // predictions, state and probes throughout.
    const IttageConfig config = smallConfig();
    Ittage split(config);
    Ittage fused(config);
    std::uint32_t lcg = 2024;
    const ibp::trace::Addr targets[4] = {0x120001000, 0x120002000,
                                         0x120003000, 0x120004000};
    for (int i = 0; i < 6000; ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        const ibp::trace::Addr pc = 0x120000000 + (lcg >> 20 & 0x7C);
        const ibp::trace::Addr target = targets[lcg >> 13 & 3];
        stepBoth(split, fused, pc, target);
        split.observe(mtJmp(pc, target));
        fused.observe(mtJmp(pc, target));
    }
    EXPECT_EQ(stateBytes(split), stateBytes(fused));
    EXPECT_EQ(probeBytes(split), probeBytes(fused));
}

TEST(Ittage, RejectsMoreComponentsThanALookupHolds)
{
    IttageConfig config = smallConfig();
    config.numComponents = Ittage::kMaxComponents + 1;
    config.maxHistory = 64;
    EXPECT_EXIT(Ittage ittage(config), ::testing::ExitedWithCode(1),
                "component count");
}

TEST(Ittage, SerdeRoundTripIsByteIdentical)
{
    const IttageConfig config = smallConfig();
    Ittage trained(config);

    std::uint32_t lcg = 99;
    const ibp::trace::Addr targets[4] = {0x120001000, 0x120002000,
                                         0x120003000, 0x120004000};
    for (int i = 0; i < 4000; ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        const ibp::trace::Addr pc = 0x120000000 + (lcg >> 20 & 0x3C);
        const ibp::trace::Addr target = targets[lcg >> 13 & 3];
        trained.predict(pc);
        trained.update(pc, target);
        trained.observe(mtJmp(pc, target));
    }

    const std::vector<std::uint8_t> saved = stateBytes(trained);
    Ittage restored(config);
    ibp::util::StateReader reader(saved);
    restored.loadState(reader);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    EXPECT_EQ(stateBytes(restored), saved)
        << "save -> load -> save must be byte-identical";

    // The restored clone predicts in lockstep with the original.
    for (ibp::trace::Addr pc = 0x120000000; pc < 0x120000040; pc += 4) {
        const Prediction a = trained.predict(pc);
        const Prediction b = restored.predict(pc);
        EXPECT_EQ(a.valid, b.valid);
        EXPECT_EQ(a.target, b.target);
    }
}

TEST(Ittage, LoadStateRejectsComponentCountMismatch)
{
    // Identical histories and tables except for the component count:
    // the geometry check must latch the reader into failure instead of
    // misinterpreting the remaining bytes.
    IttageConfig config = smallConfig();
    config.numComponents = 2;
    Ittage two(config);
    IttageConfig three = config;
    three.numComponents = 3;

    ibp::util::StateWriter writer;
    two.saveState(writer);
    Ittage other(three);
    ibp::util::StateReader reader(writer.bytes());
    other.loadState(reader);
    EXPECT_FALSE(reader.ok());
}

TEST(Ittage, LoadStateRejectsLinesThePredictorCannotReach)
{
    // The key plane holds a valid line's tag and one impossible key
    // for every empty line, so only reachable lines load: an empty
    // line is all zeros and a valid tag fits tagBits.  Hand-built
    // blobs for one component of smallConfig(), every line empty but
    // line 0.
    IttageConfig config = smallConfig();
    config.numComponents = 1;
    const Ittage cold(config);
    const auto blob = [&](const IttageEntry &line0) {
        ibp::util::StateWriter writer;
        const unsigned length = cold.historyLengths().back();
        writer.writeVarint(length);
        for (unsigned i = 0; i < length; ++i)
            writer.writeU32(0);
        writer.writeVarint(0);
        writer.writeVarint(config.baseEntries);
        for (std::size_t i = 0; i < config.baseEntries; ++i)
            saveTargetEntry(writer, TargetEntry{});
        writer.writeVarint(1);
        writer.writeVarint(config.entriesPerComponent);
        saveIttageEntry(writer, line0);
        for (std::size_t i = 1; i < config.entriesPerComponent; ++i)
            saveIttageEntry(writer, IttageEntry{});
        for (int fold = 0; fold < 3; ++fold)
            writer.writeU64(0);
        return writer.bytes();
    };
    const auto loads = [&](const IttageEntry &line0) {
        Ittage other(config);
        const std::vector<std::uint8_t> bytes = blob(line0);
        ibp::util::StateReader reader(bytes);
        other.loadState(reader);
        return reader.ok() && stateBytes(other) == bytes;
    };

    EXPECT_EQ(blob(IttageEntry{}), stateBytes(cold)) << "layout drifted";
    IttageEntry line;
    EXPECT_TRUE(loads(line));
    line.valid = true;
    line.tag = (1u << config.tagBits) - 1;
    line.target = 0x120001000;
    line.useful.set(3);
    EXPECT_TRUE(loads(line));
    line.tag = 1u << config.tagBits; // wider than any computed tag
    EXPECT_FALSE(loads(line));
    IttageEntry stale;
    stale.tag = 0x5;                 // an empty line holding a tag
    EXPECT_FALSE(loads(stale));
    stale = IttageEntry{};
    stale.target = 0x120001000;      // or a target
    EXPECT_FALSE(loads(stale));
}

TEST(Ittage, EntryCodecRejectsOutOfRangeCounters)
{
    ibp::util::StateWriter writer;
    writer.writeBool(true);
    writer.writeU64(0x120001000);
    writer.writeU32(0x5A);
    writer.writeU8(2); // confidence: in range
    writer.writeU8(9); // useful: beyond the 2-bit max
    ibp::util::StateReader reader(writer.bytes());
    IttageEntry entry;
    loadIttageEntry(reader, entry);
    EXPECT_FALSE(reader.ok());
}

TEST(Ittage, StorageBitsMatchesTheComponentFormula)
{
    const IttageConfig config = smallConfig();
    const Ittage ittage(config);
    const std::uint64_t entry_bits = 64 + config.tagBits + 2 + 2 + 1;
    std::uint64_t expected =
        config.baseEntries * TargetEntry::bits() +
        config.numComponents * config.entriesPerComponent * entry_bits +
        ittage.historyLengths().back() * config.bitsPerTarget;
    const unsigned index_bits = ibp::util::log2Ceil(
        config.entriesPerComponent);
    expected += config.numComponents *
                (index_bits + config.tagBits + (config.tagBits - 1));
    EXPECT_EQ(ittage.storageBits(), expected);
}

TEST(Ittage, ResetRestoresColdState)
{
    const IttageConfig config = smallConfig();
    Ittage ittage(config);
    const Ittage cold(config);
    for (int i = 0; i < 50; ++i) {
        ittage.update(0x120000040, 0x120001000);
        ittage.observe(mtJmp(0x120000040, 0x120001000));
    }
    ASSERT_TRUE(ittage.predict(0x120000040).valid);
    ittage.reset();
    EXPECT_FALSE(ittage.predict(0x120000040).valid);
    EXPECT_EQ(stateBytes(ittage), stateBytes(cold));
}

TEST(Ittage, ObserveIgnoresOffStreamBranches)
{
    Ittage ittage(smallConfig());
    const std::vector<std::uint8_t> before = stateBytes(ittage);
    BranchRecord cond;
    cond.pc = 0x100;
    cond.target = 0x200;
    cond.kind = BranchKind::CondDirect;
    cond.taken = true;
    ittage.observe(cond);
    BranchRecord mono = mtJmp(0x300, 0x400);
    mono.multiTarget = false;
    ittage.observe(mono);
    EXPECT_EQ(stateBytes(ittage), before)
        << "MtIndirect-stream folds moved on off-stream branches";
}

} // namespace
