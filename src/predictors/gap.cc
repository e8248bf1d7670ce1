#include "predictors/gap.hh"

#include "util/logging.hh"

namespace ibp::pred {

Gap::Gap(const GapConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      history_(config.historyBits, config.bitsPerTarget,
               StreamSel::MtIndirect)
{
    fatal_if(config.numPhts == 0, "GAp needs at least one PHT");
    fatal_if(config.entriesPerPht == 0, "GAp needs non-empty PHTs");
    phts_.reserve(config.numPhts);
    for (std::size_t i = 0; i < config.numPhts; ++i)
        phts_.emplace_back(config.entriesPerPht);
}

Prediction
Gap::predict(trace::Addr pc)
{
    lastSlot = slotFor(pc);
    const TargetEntry &entry = phts_[lastSlot.pht].at(lastSlot.index);
    return {entry.valid, entry.target};
}

void
Gap::update(trace::Addr pc, trace::Addr target)
{
    (void)pc; // trained at the slot captured by the preceding predict()
    phts_[lastSlot.pht].at(lastSlot.index).train(target);
}

std::uint64_t
Gap::storageBits() const
{
    std::uint64_t bits = history_.bits();
    for (const auto &pht : phts_)
        bits += pht.size() * TargetEntry::bits();
    return bits;
}

void
Gap::reset()
{
    history_.reset();
    for (auto &pht : phts_)
        pht.reset();
    lastSlot = {0, 0};
}

void
Gap::saveState(util::StateWriter &writer) const
{
    history_.saveState(writer);
    writer.writeVarint(phts_.size());
    for (const auto &pht : phts_)
        pht.saveState(writer, saveTargetEntry);
    writer.writeVarint(lastSlot.pht);
    writer.writeU64(lastSlot.index);
}

void
Gap::loadState(util::StateReader &reader)
{
    history_.loadState(reader);
    const std::uint64_t phts = reader.readVarint();
    if (reader.ok() && phts != phts_.size()) {
        reader.fail("GAp PHT count mismatch");
        return;
    }
    for (auto &pht : phts_)
        pht.loadState(reader, loadTargetEntry);
    lastSlot.pht = static_cast<std::size_t>(reader.readVarint());
    lastSlot.index = reader.readU64();
    if (reader.ok() && (lastSlot.pht >= config_.numPhts ||
                        lastSlot.index >= config_.entriesPerPht))
        reader.fail("GAp last slot out of range");
}

} // namespace ibp::pred
