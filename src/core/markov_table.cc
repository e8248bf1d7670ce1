#include "core/markov_table.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ibp::core {

ArenaSlot
ArenaSlot::make(std::size_t base, std::size_t entries, unsigned shift,
                std::uint64_t select)
{
    fatal_if(entries == 0, "Markov arena table needs entries");
    fatal_if(base + entries > std::uint64_t{1} << 32,
             "Markov arena too large: ", base + entries, " entries");
    ArenaSlot slot;
    slot.base = static_cast<std::uint32_t>(base);
    slot.shift = shift;
    if (util::isPowerOf2(entries)) {
        slot.mask = select & (entries - 1);
    } else {
        slot.mask = select;
        slot.modulo = entries;
    }
    return slot;
}

MarkovTable::MarkovTable(const MarkovConfig &config)
    : config_(config),
      direct_(config.tagged || config.votingTargets > 1 ? 1
                                                         : config.entries),
      assoc_(config.tagged
                 ? std::max<std::size_t>(1, config.entries / config.ways)
                 : 1,
             config.tagged ? config.ways : 1),
      voting_(config.votingTargets > 1 ? config.entries : 1)
{
    fatal_if(config.entries == 0, "MarkovTable needs entries");
    fatal_if(config.order == 0, "MarkovTable order must be >= 1");
    fatal_if(config.tagged && config.entries % config.ways != 0,
             "tagged MarkovTable: entries must be a multiple of ways");
    fatal_if(config.tagged && config.votingTargets > 1,
             "voting MarkovTable entries are tagless only");
    fatal_if(config.votingTargets == 0,
             "MarkovTable needs at least one target per state");
}

pred::Prediction
MarkovTable::lookup(std::uint64_t index, std::uint64_t tag)
{
    const MarkovProbe result = probe(index, tag);
    return {result.valid, result.target};
}

MarkovProbe
MarkovTable::probe(std::uint64_t index, std::uint64_t tag)
{
    if (config_.votingTargets > 1)
        return probeVoting(index);
    if (!config_.tagged) {
        const pred::TargetEntry &entry =
            direct_.at(direct_.reduce(index));
        return {entry.valid, entry.counter.high(), entry.target};
    }
    const pred::TargetEntry *entry =
        assoc_.lookup(assoc_.reduce(index), tag);
    if (!entry)
        return {};
    return {entry->valid, entry->counter.high(), entry->target};
}

MarkovProbe
MarkovTable::probeVoting(std::uint64_t index)
{
    const VoteEntry &entry = voting_.at(voting_.reduce(index));
    if (!entry.valid)
        return {};
    // Majority vote: highest frequency count wins; earlier arcs win
    // ties (they are older).
    const VoteEntry::Arc *best = nullptr;
    for (const auto &arc : entry.arcs)
        if (arc.freq.value() > 0 &&
            (!best || arc.freq.value() > best->freq.value()))
            best = &arc;
    if (!best)
        return {};
    return {true, best->freq.high(), best->target};
}

void
MarkovTable::train(std::uint64_t index, std::uint64_t tag,
                   trace::Addr target)
{
    if (config_.votingTargets > 1) {
        trainVoting(index, target);
        return;
    }
    if (!config_.tagged) {
        direct_.at(direct_.reduce(index)).train(target);
        return;
    }
    // Always an unresolved slot: an inclusive update trains orders
    // the walk never probed.
    util::Slot slot{assoc_.reduce(index), tag};
    if (pred::TargetEntry *entry = assoc_.revisit(slot)) {
        entry->train(target);
    } else {
        pred::TargetEntry fresh;
        fresh.train(target);
        assoc_.insert(slot, fresh);
    }
}

void
MarkovTable::trainVoting(std::uint64_t index, trace::Addr target)
{
    VoteEntry &entry = voting_.at(voting_.reduce(index));
    if (!entry.valid) {
        entry.valid = true;
        entry.arcs.assign(config_.votingTargets, {});
        entry.arcs[0].target = target;
        entry.arcs[0].freq.set(1);
        return;
    }

    // Matching arc: bump its frequency; age the others when it
    // saturates so counts stay comparable.
    for (auto &arc : entry.arcs) {
        if (arc.freq.value() > 0 && arc.target == target) {
            if (!arc.freq.increment()) {
                for (auto &other : entry.arcs)
                    if (&other != &arc)
                        other.freq.decrement();
            }
            return;
        }
    }

    // New target: take a dead arc, else decay the weakest arc and
    // steal it once drained (multi-way hysteresis).
    VoteEntry::Arc *weakest = &entry.arcs[0];
    for (auto &arc : entry.arcs) {
        if (arc.freq.value() == 0) {
            arc.target = target;
            arc.freq.set(1);
            return;
        }
        if (arc.freq.value() < weakest->freq.value())
            weakest = &arc;
    }
    if (!weakest->freq.decrement()) {
        weakest->target = target;
        weakest->freq.set(1);
    }
}

std::uint64_t
MarkovTable::storageBits() const
{
    if (config_.votingTargets > 1) {
        // valid bit + per-arc {64-bit target, 3-bit frequency}.
        return config_.entries *
               (1 + config_.votingTargets * (64 + 3));
    }
    const std::uint64_t entry_bits = pred::TargetEntry::bits() +
        (config_.tagged ? config_.tagBits : 0);
    return config_.entries * entry_bits;
}

std::size_t
MarkovTable::occupancy() const
{
    if (config_.votingTargets > 1) {
        std::size_t n = 0;
        for (std::size_t i = 0; i < voting_.size(); ++i)
            if (voting_.at(i).valid)
                ++n;
        return n;
    }
    if (config_.tagged)
        return assoc_.occupancy();
    std::size_t n = 0;
    for (std::size_t i = 0; i < direct_.size(); ++i)
        if (direct_.at(i).valid)
            ++n;
    return n;
}

void
MarkovTable::saveState(util::StateWriter &writer) const
{
    if (config_.votingTargets > 1) {
        voting_.saveState(
            writer, [](util::StateWriter &w, const VoteEntry &entry) {
                w.writeBool(entry.valid);
                w.writeVarint(entry.arcs.size());
                for (const auto &arc : entry.arcs) {
                    w.writeU64(arc.target);
                    w.writeU8(
                        static_cast<std::uint8_t>(arc.freq.value()));
                }
            });
        return;
    }
    if (config_.tagged) {
        assoc_.saveState(writer, pred::saveTargetEntry);
        return;
    }
    direct_.saveState(writer, pred::saveTargetEntry);
}

void
MarkovTable::loadState(util::StateReader &reader)
{
    if (config_.votingTargets > 1) {
        const unsigned max_arcs = config_.votingTargets;
        voting_.loadState(
            reader,
            [max_arcs](util::StateReader &r, VoteEntry &entry) {
                entry.valid = r.readBool();
                const std::uint64_t arcs = r.readVarint();
                if (r.ok() && arcs > max_arcs) {
                    r.fail("voting entry arc count out of range");
                    return;
                }
                entry.arcs.assign(static_cast<std::size_t>(arcs), {});
                for (auto &arc : entry.arcs) {
                    arc.target = r.readU64();
                    const std::uint8_t freq = r.readU8();
                    if (r.ok() && freq > arc.freq.max()) {
                        r.fail("arc frequency count out of range");
                        return;
                    }
                    arc.freq.set(freq);
                }
            });
        return;
    }
    if (config_.tagged) {
        assoc_.loadState(reader, pred::loadTargetEntry);
        return;
    }
    direct_.loadState(reader, pred::loadTargetEntry);
}

void
MarkovTable::reset()
{
    direct_.reset();
    assoc_.reset();
    voting_.reset();
}

} // namespace ibp::core
