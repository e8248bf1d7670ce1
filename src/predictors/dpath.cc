#include "predictors/dpath.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ibp::pred {

PathComponent::PathComponent(const PathComponentConfig &config)
    : config_(config),
      history_(config.historyBits, config.bitsPerTarget, config.stream),
      direct_(config.tagged ? 1 : config.entries),
      assoc_(config.tagged ? std::max<std::size_t>(
                                 1, config.entries / config.ways)
                           : 1,
             config.tagged ? config.ways : 1)
{
    fatal_if(config.entries == 0, "PathComponent needs entries");
    fatal_if(config.tagged && config.entries % config.ways != 0,
             "tagged PathComponent: entries must be a multiple of ways");

    // Precompute the across-targets interleave as per-history-byte
    // lookup tables.  The reference mapping (see indexHash) sends
    // source history bit s = t*per + i to output bit i*targets + t,
    // kept while the output bit is below 32; each LUT entry is the OR
    // of the images of one byte's set bits.
    const unsigned per = config.bitsPerTarget;
    const unsigned targets = config.historyBits / per;
    acrossLut_.resize((config.historyBits + 7) / 8);
    for (std::size_t b = 0; b < acrossLut_.size(); ++b) {
        for (unsigned v = 0; v < 256; ++v) {
            std::uint32_t image = 0;
            for (unsigned k = 0; k < 8; ++k) {
                if (((v >> k) & 1) == 0)
                    continue;
                const unsigned s =
                    static_cast<unsigned>(8 * b) + k;
                if (s >= per * targets)
                    continue;
                // Bit-permutation arithmetic, not a table index.
                // ibp-lint: allow(table-modulo)
                const unsigned out = (s % per) * targets + s / per;
                if (out < 32)
                    image |= std::uint32_t{1} << out;
            }
            acrossLut_[b][v] = image;
        }
    }
}

std::uint64_t
PathComponent::indexHash(trace::Addr pc) const
{
    // Driesen & Holzle's reverse-interleaved index, two interleaves
    // deep: first the recorded targets' bits are interleaved across
    // targets (bit 0 of every target, then bit 1, ...), so truncation
    // keeps a little of *every* target on the path; then the result
    // is interleaved with branch-address bits, so a 2^k-entry PHT
    // grants only ~k/2 bits to the path.  This is deliberately weaker
    // than gshare's full-register XOR — path reach survives, but at a
    // fraction of a bit per target, which is the design point the
    // paper's Dpath/Cascade occupy.  Both interleaves are constant
    // time: the across step ORs one precomputed LUT entry per history
    // byte (constructor), the address step is a Morton spread.
    const std::uint64_t hist = history_.value();
    std::uint64_t across = 0;
    for (std::size_t b = 0; b < acrossLut_.size(); ++b)
        across |= acrossLut_[b][(hist >> (8 * b)) & 0xFF];
    return util::interleaveBits(pc >> 2, across, 16);
}

std::uint64_t
PathComponent::tagHash(trace::Addr pc) const
{
    // Tags identify the *branch*, as in Driesen & Holzle's tagged
    // PHTs; path context is discriminated only through the index.
    // (Mixing history into the tag would give the tagged tables far
    // more path reach than the paper's design had.)
    return util::foldXor(pc >> 2, 32, config_.tagBits);
}

Prediction
PathComponent::predict(trace::Addr pc)
{
    if (!config_.tagged) {
        lastIndex = direct_.reduce(indexHash(pc));
        const TargetEntry &entry = direct_.at(lastIndex);
        return {entry.valid, entry.target};
    }
    lastSet = assoc_.reduce(indexHash(pc));
    lastTag = tagHash(pc);
    const std::size_t way = assoc_.findWay(lastSet, lastTag);
    lastWay_ = way;
    haveSlot_ = true;
    if (way == util::AssocTable<TargetEntry>::kNoWay) {
        assoc_.noteLookupMiss(lastSet);
        return {};
    }
    assoc_.touchWay(lastSet, way);
    const TargetEntry &entry = assoc_.wayEntry(lastSet, way);
    return {entry.valid, entry.target};
}

void
PathComponent::update(trace::Addr target, bool allocate)
{
    if (!config_.tagged) {
        direct_.at(lastIndex).train(target);
        return;
    }
    // Consume the way predict() resolved; fall back to a fresh scan
    // when no predict preceded this update (checkpoint restore).  The
    // hit/miss outcome cannot change in between — nothing inserts into
    // this component's table between a predict and its update — so the
    // cached way and a rescan are interchangeable, touch for touch.
    std::size_t way;
    if (haveSlot_) {
        way = lastWay_;
        haveSlot_ = false;
    } else {
        way = assoc_.findWay(lastSet, lastTag);
    }
    if (way != util::AssocTable<TargetEntry>::kNoWay) {
        assoc_.touchWay(lastSet, way);
        assoc_.wayEntry(lastSet, way).train(target);
    } else {
        assoc_.noteLookupMiss(lastSet);
        if (allocate) {
            TargetEntry fresh;
            fresh.train(target);
            assoc_.insert(lastSet, lastTag, fresh);
        }
    }
}

void
PathComponent::observe(const trace::BranchRecord &record)
{
    history_.observe(record);
}

std::uint64_t
PathComponent::storageBits() const
{
    const std::uint64_t entry_bits =
        TargetEntry::bits() + (config_.tagged ? config_.tagBits : 0);
    return config_.entries * entry_bits + config_.historyBits;
}

void
PathComponent::reset()
{
    history_.reset();
    direct_.reset();
    assoc_.reset();
    haveSlot_ = false;
}

void
PathComponent::saveState(util::StateWriter &writer) const
{
    history_.saveState(writer);
    // Only the active table carries state; the other is a 1-entry
    // stub whose contents never change.
    if (config_.tagged)
        assoc_.saveState(writer, saveTargetEntry);
    else
        direct_.saveState(writer, saveTargetEntry);
    writer.writeU64(lastIndex);
    writer.writeU64(lastSet);
    writer.writeU64(lastTag);
}

void
PathComponent::loadState(util::StateReader &reader)
{
    history_.loadState(reader);
    if (config_.tagged)
        assoc_.loadState(reader, loadTargetEntry);
    else
        direct_.loadState(reader, loadTargetEntry);
    lastIndex = reader.readU64();
    lastSet = reader.readU64();
    lastTag = reader.readU64();
    // The cached way is transient: a restored component rescans.
    haveSlot_ = false;
}

void
PathComponent::saveProbes(util::StateWriter &writer) const
{
    assoc_.saveProbes(writer);
}

void
PathComponent::loadProbes(util::StateReader &reader)
{
    assoc_.loadProbes(reader);
}

Dpath::Dpath(const DpathConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      short_(config.shortPath), long_(config.longPath),
      selector_(config.selectorEntries)
{
}

Prediction
Dpath::predict(trace::Addr pc)
{
    lastShort = short_.predict(pc);
    lastLong = long_.predict(pc);
    const Selector &sel =
        selector_.at(selector_.reduce(pc >> 2));
    // Counter high half selects the long-path component; fall back to
    // whichever component has an entry when the chosen one is cold.
    const bool choose_long = sel.counter.high();
    const Prediction &chosen = choose_long ? lastLong : lastShort;
    const Prediction &other = choose_long ? lastShort : lastLong;
    return chosen.valid ? chosen : other;
}

void
Dpath::update(trace::Addr pc, trace::Addr target)
{
    updateWithAllocate(pc, target, true);
}

void
Dpath::updateWithAllocate(trace::Addr pc, trace::Addr target,
                          bool allocate)
{
    const bool short_right = lastShort.hit(target);
    const bool long_right = lastLong.hit(target);
    Selector &sel = selector_.at(selector_.reduce(pc >> 2));
    // Select-based saturating bump: whether the components disagree is
    // data-dependent and unpredictable, so the if/else-if form eats a
    // branch mispredict on most selector-moving branches.
    const int delta =
        static_cast<int>(long_right) - static_cast<int>(short_right);
    const unsigned cur = sel.counter.value();
    const unsigned up = cur == sel.counter.max() ? cur : cur + 1;
    const unsigned down = cur == 0 ? 0u : cur - 1;
    sel.counter.set(delta > 0 ? up : delta < 0 ? down : cur);

    short_.update(target, allocate);
    long_.update(target, allocate);
}

void
Dpath::observe(const trace::BranchRecord &record)
{
    short_.observe(record);
    long_.observe(record);
}

std::uint64_t
Dpath::storageBits() const
{
    return short_.storageBits() + long_.storageBits() +
           selector_.size() * 2;
}

void
Dpath::reset()
{
    short_.reset();
    long_.reset();
    selector_.reset();
    lastShort = {};
    lastLong = {};
}

void
Dpath::saveState(util::StateWriter &writer) const
{
    short_.saveState(writer);
    long_.saveState(writer);
    selector_.saveState(writer,
                        [](util::StateWriter &w, const Selector &s) {
                            w.writeU8(static_cast<std::uint8_t>(
                                s.counter.value()));
                        });
    savePrediction(writer, lastShort);
    savePrediction(writer, lastLong);
}

void
Dpath::loadState(util::StateReader &reader)
{
    short_.loadState(reader);
    long_.loadState(reader);
    selector_.loadState(reader,
                        [](util::StateReader &r, Selector &s) {
                            const std::uint8_t count = r.readU8();
                            if (r.ok() && count > s.counter.max()) {
                                r.fail("selector counter out of range");
                                return;
                            }
                            s.counter.set(count);
                        });
    loadPrediction(reader, lastShort);
    loadPrediction(reader, lastLong);
}

void
Dpath::saveProbes(util::StateWriter &writer) const
{
    short_.saveProbes(writer);
    long_.saveProbes(writer);
}

void
Dpath::loadProbes(util::StateReader &reader)
{
    short_.loadProbes(reader);
    long_.loadProbes(reader);
}

} // namespace ibp::pred
