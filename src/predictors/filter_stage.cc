#include "predictors/filter_stage.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ibp::pred {

FilterStage::FilterStage(const FilterConfig &config)
    : table_(std::max<std::size_t>(1, config.entries / config.ways),
             config.ways)
{
    fatal_if(config.entries % config.ways != 0,
             "filter entries must be a multiple of ways");
}

util::Slot
FilterStage::slotOf(trace::Addr pc) const
{
    return {table_.reduce(pc >> 2), util::foldXor(pc >> 2, 48, kTagBits)};
}

const FilterEntry *
FilterStage::probe(trace::Addr pc)
{
    const util::Slot slot = slotOf(pc);
    slot_ = table_.probe(slot.set, slot.tag);
    return table_.at(slot_);
}

bool
FilterStage::train(trace::Addr pc, trace::Addr target,
                   bool waitForExhaustion)
{
    if (!slot_.resolved)
        slot_ = slotOf(pc);
    FilterEntry *line = table_.revisit(slot_);
    if (!line) {
        FilterEntry fresh;
        fresh.entry.train(target);
        table_.insert(slot_, fresh);
        return false;
    }
    const bool right = line->entry.valid && line->entry.target == target;
    // Unconditional OR-store beats a data-dependent branch here.
    line->provenPolymorphic |=
        !right && (!waitForExhaustion || line->entry.counter.value() == 0);
    line->entry.train(target);
    return line->provenPolymorphic;
}

std::uint64_t
FilterStage::storageBits() const
{
    return table_.size() * (TargetEntry::bits() + kTagBits + 1);
}

void
FilterStage::reset()
{
    table_.reset();
    slot_ = {};
}

void
FilterStage::saveState(util::StateWriter &writer) const
{
    table_.saveState(writer,
                     [](util::StateWriter &w, const FilterEntry &e) {
                         saveTargetEntry(w, e.entry);
                         w.writeBool(e.provenPolymorphic);
                     });
}

void
FilterStage::loadState(util::StateReader &reader)
{
    table_.loadState(reader, [](util::StateReader &r, FilterEntry &e) {
        loadTargetEntry(r, e.entry);
        e.provenPolymorphic = r.readBool();
    });
    slot_ = {};
}

} // namespace ibp::pred
