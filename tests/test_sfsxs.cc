/**
 * @file
 * Tests for the Select-Fold-Shift-XOR-Select hash (paper Figure 2).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/bitops.hh"
#include "util/random.hh"
#include "util/serde.hh"
#include "core/sfsxs.hh"

namespace {

using namespace ibp::core;
using ibp::pred::StreamSel;
using ibp::pred::SymbolHistory;
using ibp::trace::BranchKind;
using ibp::trace::BranchRecord;

SymbolHistory
historyOf(const std::vector<std::uint32_t> &symbols_msb_last,
          unsigned length, unsigned bits)
{
    // Feed targets so that the last pushed symbol is most recent.
    SymbolHistory phr(length, bits, StreamSel::MtIndirect);
    for (auto sym : symbols_msb_last) {
        BranchRecord r;
        r.kind = BranchKind::IndirectJmp;
        r.multiTarget = true;
        r.target = static_cast<std::uint64_t>(sym) << 2; // undo >>2
        r.taken = true;
        phr.observe(r);
    }
    return phr;
}

TEST(Sfsxs, WordWidth)
{
    Sfsxs hash(SfsxsConfig{10, 10, 5, true, false});
    EXPECT_EQ(hash.wordBits(), 14u); // 5 + 10 - 1
}

TEST(Sfsxs, WorkedExampleOrder3)
{
    // Order 3, select 10, fold 5.  Hand-computed:
    //   sym0 (most recent) = 0b1100111010 -> fold 0b11001^0b11010=0b00011
    //   sym1               = 0b0000000001 -> fold 0b00001
    //   sym2               = 0b1111100000 -> fold 0b11111^0b00000=0b11111
    //   word = (0b00011<<2) ^ (0b00001<<1) ^ 0b11111
    //        = 0b0001100 ^ 0b0000010 ^ 0b0011111 = 0b0010001
    Sfsxs hash(SfsxsConfig{3, 10, 5, true, false});
    const auto phr = historyOf({0b1111100000, 0b0000000001,
                                0b1100111010}, 3, 10);
    ASSERT_EQ(phr.symbol(0), 0b1100111010u);
    const std::uint64_t word = hash.hashWord(phr, 0);
    EXPECT_EQ(word, 0b0010001u);
    // High-order select: order-3 index = top 3 of 7 bits.
    EXPECT_EQ(hash.index(word, 3), 0b001u);
    EXPECT_EQ(hash.index(word, 1), 0b0u);
    EXPECT_EQ(hash.index(word, 2), 0b00u);
}

TEST(Sfsxs, LowOrderSelectVariant)
{
    Sfsxs hash(SfsxsConfig{3, 10, 5, false, false});
    const auto phr = historyOf({0b1111100000, 0b0000000001,
                                0b1100111010}, 3, 10);
    const std::uint64_t word = hash.hashWord(phr, 0);
    EXPECT_EQ(hash.index(word, 3), word & 0x7u);
}

TEST(Sfsxs, IndexInRange)
{
    Sfsxs hash(SfsxsConfig{10, 10, 5, true, false});
    SymbolHistory phr(10, 10, StreamSel::MtIndirect);
    for (int i = 0; i < 50; ++i) {
        BranchRecord r;
        r.kind = BranchKind::IndirectJmp;
        r.multiTarget = true;
        r.target = 0x120000000 + 4 * (i * 37 % 1021);
        phr.observe(r);
        const std::uint64_t word = hash.hashWord(phr, 0);
        for (unsigned j = 1; j <= 10; ++j)
            EXPECT_LT(hash.index(word, j), 1ull << j);
    }
}

TEST(Sfsxs, MostRecentTargetDominatesHighOrders)
{
    // Changing only the most recent target must change the top-order
    // index (it owns the largest shift).
    Sfsxs hash(SfsxsConfig{10, 10, 5, true, false});
    // Note: the two most-recent symbols must differ *after* folding
    // (e.g. 0b1010101010 and 0b0101010101 both fold to 0b11111).
    auto a = historyOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 0b1010101010}, 10,
                       10);
    auto b = historyOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 0b0000000011}, 10,
                       10);
    EXPECT_NE(hash.hashWord(a, 0), hash.hashWord(b, 0));
}

TEST(Sfsxs, PcMixingChangesWord)
{
    Sfsxs plain(SfsxsConfig{10, 10, 5, true, false});
    Sfsxs mixed(SfsxsConfig{10, 10, 5, true, true});
    const auto phr = historyOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 10, 10);
    // Without pc mixing, the pc argument is ignored.
    EXPECT_EQ(plain.hashWord(phr, 0x120000040),
              plain.hashWord(phr, 0x120009999));
    // With mixing, two different branches get different words.
    EXPECT_NE(mixed.hashWord(phr, 0x120000040),
              mixed.hashWord(phr, 0x120000964));
}

TEST(Sfsxs, ZeroHistoryHashesToZeroWithoutPc)
{
    Sfsxs hash(SfsxsConfig{10, 10, 5, true, false});
    SymbolHistory phr(10, 10, StreamSel::MtIndirect);
    EXPECT_EQ(hash.hashWord(phr, 0x120000040), 0u);
}

TEST(Sfsxs, DistributesAcrossTableForRandomPaths)
{
    // Sanity: the order-10 index should spread over its 1024-entry
    // space for varied paths (not collapse onto a few slots).
    Sfsxs hash(SfsxsConfig{10, 10, 5, true, false});
    SymbolHistory phr(10, 10, StreamSel::MtIndirect);
    std::set<std::uint64_t> indices;
    std::uint64_t lcg = 1;
    for (int i = 0; i < 2000; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        BranchRecord r;
        r.kind = BranchKind::IndirectJmp;
        r.multiTarget = true;
        r.target = 0x120000000 + (lcg % 4096) * 4;
        phr.observe(r);
        indices.insert(hash.index(hash.hashWord(phr, 0), 10));
    }
    EXPECT_GT(indices.size(), 500u);
}

} // namespace

TEST(SfsxsWord, TracksHashWordOverRandomStreams)
{
    // The incremental word must equal a from-scratch hashWord() over
    // the same symbol stream after every single push, for a spread of
    // geometries (the paper's, degenerate order 1, fold == select, and
    // a non-divisible select/fold pair).
    const std::vector<SfsxsConfig> configs = {
        {10, 10, 5, true, false},
        {1, 10, 5, true, false},
        {4, 6, 6, true, false},
        {7, 10, 3, true, false},
    };
    ibp::util::Rng rng(0x5F5);
    for (const auto &config : configs) {
        Sfsxs hash(config);
        SfsxsWord word(config);
        SymbolHistory phr(config.order, 10, StreamSel::MtIndirect);
        for (int i = 0; i < 500; ++i) {
            const auto sym =
                static_cast<std::uint32_t>(rng.below(1u << 10));
            phr.push(sym);
            word.pushFolded(word.fold(sym));
            // mixPc(word, pc) with xorPc off just masks; pc ignored.
            ASSERT_EQ(hash.mixPc(word.word(), 0),
                      hash.hashWord(phr, 0))
                << "order " << config.order << " step " << i;
        }
        word.reset();
        phr.reset();
        EXPECT_EQ(hash.mixPc(word.word(), 0), hash.hashWord(phr, 0));
    }
}

TEST(SfsxsWord, MixPcMatchesXorPcConfiguration)
{
    SfsxsConfig config{5, 10, 5, true, true};
    Sfsxs hash(config);
    SfsxsWord word(config);
    SymbolHistory phr(config.order, 10, StreamSel::MtIndirect);
    ibp::util::Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const auto sym = static_cast<std::uint32_t>(rng.below(1u << 10));
        phr.push(sym);
        word.pushFolded(word.fold(sym));
        const ibp::trace::Addr pc = rng() & ((1ull << 40) - 1);
        ASSERT_EQ(hash.mixPc(word.word(), pc), hash.hashWord(phr, pc));
    }
}

TEST(SfsxsWord, FoldMatchesFoldedSymbol)
{
    // fold() resolves its geometry at construction; it must agree with
    // the generic foldXor() select/fold for every symbol, including
    // select widths that are not a multiple of the fold width.
    const std::vector<SfsxsConfig> configs = {
        {10, 10, 5, true, false}, {1, 10, 5, true, false},
        {7, 10, 3, true, false},  {4, 6, 6, true, false},
        {48, 32, 16, true, false}, {20, 32, 1, true, false},
    };
    ibp::util::Rng rng(0xF01D);
    for (const auto &config : configs) {
        const Sfsxs hash(config);
        const SfsxsWord word(config);
        for (int i = 0; i < 2000; ++i) {
            const auto sym = static_cast<std::uint32_t>(rng());
            ASSERT_EQ(word.fold(sym), hash.foldedSymbol(sym))
                << "select " << config.selectBits << " fold "
                << config.foldBits << " symbol " << sym;
        }
    }
}

TEST(SfsxsWord, TracksHashWordAtOrderOneAndWidestGeometry)
{
    // Order 1 (a one-slot ring) and the widest legal word: 16-bit
    // folds over 48 targets fill all 63 bits.  After the ring has
    // wrapped several times, a save/load round trip must resume the
    // exact same word.
    const std::vector<SfsxsConfig> configs = {
        {1, 10, 5, true, false},
        {48, 32, 16, true, false},
    };
    ibp::util::Rng rng(0x1D63);
    for (const auto &config : configs) {
        const Sfsxs hash(config);
        ASSERT_LE(hash.wordBits(), 63u);
        SfsxsWord word(config);
        SymbolHistory phr(config.order, 32, StreamSel::MtIndirect);
        auto step = [&](SfsxsWord &w) {
            const auto sym = static_cast<std::uint32_t>(rng());
            phr.push(sym);
            w.pushFolded(w.fold(sym));
            ASSERT_EQ(hash.mixPc(w.word(), 0), hash.hashWord(phr, 0))
                << "order " << config.order;
        };
        for (unsigned i = 0; i < 5 * config.order + 3; ++i)
            step(word);

        ibp::util::StateWriter writer;
        word.saveState(writer);
        SfsxsWord restored(config);
        ibp::util::StateReader reader(writer.bytes());
        restored.loadState(reader);
        ASSERT_TRUE(reader.ok()) << reader.status().message();
        EXPECT_TRUE(reader.atEnd());
        EXPECT_EQ(restored.word(), word.word());
        for (unsigned i = 0; i < 2 * config.order + 1; ++i)
            step(restored);
    }
}

TEST(SfsxsWord, SaveStateLayoutIsOneU64PerSlot)
{
    // The 16-bit ring still serializes as varint order, one U64 per
    // slot, varint head and the U64 word.
    const SfsxsConfig config{10, 10, 5, true, false};
    SfsxsWord word(config);
    for (std::uint32_t sym = 1; sym <= 13; ++sym)
        word.pushFolded(word.fold(sym * 77));
    ibp::util::StateWriter writer;
    word.saveState(writer);
    EXPECT_EQ(writer.bytes().size(), 1u + 10u * 8u + 1u + 8u);
    ibp::util::StateReader reader(writer.bytes());
    EXPECT_EQ(reader.readVarint(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_LE(reader.readU64(), 31u);
    EXPECT_EQ(reader.readVarint(), 7u); // 13 pushes back from slot 0
    EXPECT_EQ(reader.readU64(), word.word());
    EXPECT_TRUE(reader.ok());
}
