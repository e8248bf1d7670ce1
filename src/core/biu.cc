#include "core/biu.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ibp::core {

namespace {

void
saveBiuEntry(ibp::util::StateWriter &writer, const BiuEntry &entry)
{
    writer.writeBool(entry.multiTarget);
    writer.writeU8(static_cast<std::uint8_t>(entry.selection.value()));
}

void
loadBiuEntry(ibp::util::StateReader &reader, BiuEntry &entry)
{
    entry.multiTarget = reader.readBool();
    const std::uint8_t selection = reader.readU8();
    if (reader.ok() && selection > 3) {
        reader.fail("selection counter out of range");
        return;
    }
    entry.selection.set(static_cast<CorrelationState>(selection));
}

} // namespace

Biu::Biu(const BiuConfig &config)
    : config_(config),
      table_(config.infinite
                 ? 1
                 : std::max<std::size_t>(1,
                                         config.entries / config.ways),
             config.infinite ? 1 : config.ways)
{
    fatal_if(!config.infinite && config.entries % config.ways != 0,
             "finite BIU: entries must be a multiple of ways");
}

BiuEntry &
Biu::lookupFinite(trace::Addr pc)
{
    const util::Slot slot = table_.probe(
        table_.reduce(pc >> 2), util::foldXor(pc >> 2, 48, config_.tagBits));
    if (BiuEntry *entry = table_.at(slot))
        return *entry;
    if (table_.setOccupancy(slot.set) == table_.ways())
        ++evictions_;
    return table_.insert(slot, BiuEntry{});
}

std::size_t
Biu::capacity() const
{
    return config_.infinite ? map_.size() : config_.entries;
}

std::uint64_t
Biu::storageBits() const
{
    // MT bit + 2-bit selection counter per entry (+ tag when finite).
    const std::uint64_t entry_bits =
        3 + (config_.infinite ? 0 : config_.tagBits);
    return capacity() * entry_bits;
}

void
Biu::reset()
{
    map_.clear();
    table_.reset();
    evictions_ = 0;
    occupancy_.reset();
}

void
Biu::saveState(util::StateWriter &writer) const
{
    if (config_.infinite) {
        // FlatMap slot order depends on insertion/rehash history,
        // which a restore does not replay; sort by pc so a straight
        // run and a resumed run checkpoint to identical bytes.
        std::vector<std::pair<trace::Addr, BiuEntry>> sorted;
        sorted.reserve(map_.size());
        map_.forEach([&](trace::Addr pc, const BiuEntry &entry) {
            sorted.emplace_back(pc, entry);
        });
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        writer.writeVarint(sorted.size());
        for (const auto &[pc, entry] : sorted) {
            writer.writeU64(pc);
            saveBiuEntry(writer, entry);
        }
    } else {
        table_.saveState(writer, saveBiuEntry);
    }
    writer.writeU64(evictions_);
}

void
Biu::loadState(util::StateReader &reader)
{
    if (config_.infinite) {
        map_.clear();
        const std::uint64_t branches = reader.readVarint();
        // Each serialized branch is 10 bytes; a count the remaining
        // input cannot hold is corruption, caught before allocating.
        if (reader.ok() && branches > reader.remaining() / 10) {
            reader.fail("BIU branch count overruns input");
            return;
        }
        for (std::uint64_t i = 0; i < branches && reader.ok(); ++i) {
            const trace::Addr pc = reader.readU64();
            loadBiuEntry(reader, map_[pc]);
        }
    } else {
        table_.loadState(reader, loadBiuEntry);
    }
    evictions_ = reader.readU64();
}

void
Biu::saveProbes(util::StateWriter &writer) const
{
    writer.writeU64(occupancy_.max());
    table_.saveProbes(writer);
}

void
Biu::loadProbes(util::StateReader &reader)
{
    occupancy_.set(reader.readU64());
    table_.loadProbes(reader);
}

} // namespace ibp::core
