#include "predictors/target_cache.hh"

#include "util/logging.hh"

namespace ibp::pred {

TargetCache::TargetCache(const TargetCacheConfig &config, std::string name)
    : config_(config),
      name_(name.empty()
                ? std::string("TC-") + streamName(config.stream)
                : std::move(name)),
      history_(config.historyBits, config.bitsPerTarget, config.stream),
      table_(config.entries)
{
    fatal_if(config.entries == 0, "TargetCache needs entries");
}

Prediction
TargetCache::predict(trace::Addr pc)
{
    lastIndex = indexFor(pc, history_.value());
    const Entry &entry = table_.at(lastIndex);
    return {entry.valid, entry.target};
}

void
TargetCache::update(trace::Addr pc, trace::Addr target)
{
    (void)pc;
    Entry &entry = table_.at(lastIndex);
    entry.valid = true;
    entry.target = target;
}

std::uint64_t
TargetCache::storageBits() const
{
    return table_.size() * (1 + 64) + history_.bits();
}

void
TargetCache::reset()
{
    history_.reset();
    table_.reset();
    lastIndex = 0;
}

void
TargetCache::saveState(util::StateWriter &writer) const
{
    history_.saveState(writer);
    table_.saveState(writer, [](util::StateWriter &w, const Entry &e) {
        w.writeBool(e.valid);
        w.writeU64(e.target);
    });
    writer.writeU64(lastIndex);
}

void
TargetCache::loadState(util::StateReader &reader)
{
    history_.loadState(reader);
    table_.loadState(reader, [](util::StateReader &r, Entry &e) {
        e.valid = r.readBool();
        e.target = r.readU64();
    });
    lastIndex = reader.readU64();
    if (reader.ok() && lastIndex >= table_.size())
        reader.fail("TargetCache last index out of range");
}

} // namespace ibp::pred
