#include "core/ppm.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ibp::core {

Ppm::Ppm(const PpmConfig &config)
    : config_(config), hash_(config.hash),
      accesses_(config.hash.order + 1), misses_(config.hash.order + 1),
      escapes_(config.hash.order + 1)
{
    const unsigned m = config_.hash.order;
    entries_ = config_.tableEntries;
    if (entries_.empty()) {
        // Default geometric split: order j gets 2^j entries, which for
        // m = 10 totals 2046 — the paper's "10 Markov predictors with
        // total 2K entries".
        for (unsigned j = m; j >= 1; --j)
            entries_.push_back(std::size_t{1} << j);
    }
    fatal_if(entries_.size() != m,
             "PPM table geometry must list one size per order (",
             m, "), got ", entries_.size());

    // The default configuration's entries are flattened into one
    // contiguous arena, one slice per order.  Tagged and voting stacks
    // keep one MarkovTable per order instead.
    if (config_.tagged || config_.votingTargets > 1) {
        tables_.reserve(m);
        for (unsigned i = 0; i < m; ++i) {
            MarkovConfig mc;
            mc.order = m - i;
            mc.entries = entries_[i];
            mc.tagged = config_.tagged;
            mc.ways = config_.ways;
            mc.tagBits = config_.tagBits;
            mc.votingTargets = config_.votingTargets;
            tables_.emplace_back(mc);
        }
        return;
    }
    std::size_t offset = 0;
    for (unsigned i = 0; i < m; ++i) {
        // Sfsxs::index(word, j) as a shift and a mask.
        const unsigned j = m - i;
        orderSlots_.push_back(ArenaSlot::make(
            offset, entries_[i], hash_.indexShift(j), util::maskLow(j)));
        offset += entries_[i];
    }
    arena_.resize(offset);
}

std::uint64_t
Ppm::tagFor(trace::Addr pc, std::uint64_t word) const
{
    // The tag identifies the branch (and a little extra path) within a
    // set, de-aliasing different branches that share a hashed path.
    return util::foldXor(pc >> 2, 32, config_.tagBits) ^
           util::foldXor(word, hash_.wordBits(), config_.tagBits);
}

pred::Prediction
Ppm::predict(const pred::SymbolHistory &phr, trace::Addr pc)
{
    return predictHashed(hash_.hashWord(phr, pc), pc);
}

pred::Prediction
Ppm::predictTables(std::uint64_t word, trace::Addr pc)
{
    const std::uint64_t tag = config_.tagged ? tagFor(pc, word) : 0;
    return walk(word, tag, [&](unsigned i, unsigned j) {
        return tables_[i].probe(hash_.index(word, j), tag);
    });
}

void
Ppm::trainTables(trace::Addr target)
{
    trainOrders([&](unsigned i, unsigned j) {
        tables_[i].train(hash_.index(lastWord_, j), lastTag, target);
    });
}

std::uint64_t
Ppm::storageBits() const
{
    // A flat stack's arena holds exactly its per-order entry counts.
    std::uint64_t bits = arena_.size() * pred::TargetEntry::bits();
    for (const auto &table : tables_)
        bits += table.storageBits();
    if (config_.orderZero)
        bits += 1 + 64;
    return bits;
}

void
Ppm::saveState(util::StateWriter &writer) const
{
    // The arena holds every flat order's entries back-to-back.
    // Tagged/voting stacks have an empty arena and tables instead.
    writer.writeVarint(arena_.size());
    for (const auto &entry : arena_)
        pred::saveTargetEntry(writer, entry);
    for (const auto &table : tables_)
        table.saveState(writer);
    writer.writeU64(lastWord_);
    writer.writeU64(lastTag);
    writer.writeVarint(lastOrder_);
    writer.writeBool(lastValid);
    writer.writeU64(lastTarget);
    writer.writeBool(zeroValid);
    writer.writeU64(zeroTarget);
    accesses_.saveState(writer);
    misses_.saveState(writer);
}

void
Ppm::loadState(util::StateReader &reader)
{
    const std::uint64_t arena = reader.readVarint();
    if (reader.ok() && arena != arena_.size()) {
        reader.fail("PPM arena size mismatch");
        return;
    }
    for (auto &entry : arena_)
        pred::loadTargetEntry(reader, entry);
    for (auto &table : tables_)
        table.loadState(reader);
    lastWord_ = reader.readU64();
    lastTag = reader.readU64();
    const std::uint64_t order = reader.readVarint();
    if (reader.ok() && order > config_.hash.order) {
        reader.fail("PPM deciding order out of range");
        return;
    }
    lastOrder_ = static_cast<unsigned>(order);
    lastValid = reader.readBool();
    lastTarget = reader.readU64();
    zeroValid = reader.readBool();
    zeroTarget = reader.readU64();
    accesses_.loadState(reader);
    misses_.loadState(reader);
}

void
Ppm::saveProbes(util::StateWriter &writer) const
{
    // Fixed-width by construction: the bucket count is geometry, so
    // the payload length matches across instrumented and probe-free
    // builds (all-zero in the latter).
    const auto counts = escapes_.snapshot();
    for (std::uint64_t count : counts)
        writer.writeU64(count);
}

void
Ppm::loadProbes(util::StateReader &reader)
{
    std::vector<std::uint64_t> counts(escapes_.buckets());
    for (auto &count : counts)
        count = reader.readU64();
    if (reader.ok())
        escapes_.setCounts(counts);
}

void
Ppm::reset()
{
    std::fill(arena_.begin(), arena_.end(), pred::TargetEntry{});
    for (auto &table : tables_)
        table.reset();
    accesses_.reset();
    misses_.reset();
    escapes_.reset();
    lastWord_ = 0;
    lastTag = 0;
    lastValid = false;
    lastOrder_ = 0;
    lastTarget = 0;
    zeroValid = false;
    zeroTarget = 0;
}

} // namespace ibp::core
