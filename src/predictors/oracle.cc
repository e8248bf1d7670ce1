#include "predictors/oracle.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace ibp::pred {

namespace {

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

} // namespace

Oracle::Oracle(const OracleConfig &config, std::string name)
    : config_(config),
      name_(name.empty()
                ? "Oracle-PIB@" + std::to_string(config.pathLength)
                : std::move(name))
{
    fatal_if(config.pathLength == 0, "oracle needs path length >= 1");
}

std::uint64_t
Oracle::contextKey(trace::Addr pc) const
{
    std::uint64_t h = config_.usePc ? pc : 0;
    for (trace::Addr t : window_)
        h = mix(h, t);
    // Hash collisions over 64 bits are negligible at trace scale.
    return h;
}

Prediction
Oracle::predict(trace::Addr pc)
{
    lastKey = contextKey(pc);
    auto it = table_.find(lastKey);
    if (it == table_.end())
        return {};
    return {true, it->second};
}

void
Oracle::update(trace::Addr pc, trace::Addr target)
{
    (void)pc;
    table_[lastKey] = target;
}

void
Oracle::observe(const trace::BranchRecord &record)
{
    if (!record.isPredictedIndirect())
        return;
    window_.push_back(record.target);
    if (window_.size() > config_.pathLength)
        window_.pop_front();
}

std::uint64_t
Oracle::storageBits() const
{
    return table_.size() * (64 + 64);
}

void
Oracle::reset()
{
    window_.clear();
    table_.clear();
    lastKey = 0;
}

void
Oracle::saveState(util::StateWriter &writer) const
{
    writer.writeVarint(window_.size());
    for (trace::Addr addr : window_)
        writer.writeU64(addr);
    // unordered_map iteration order is not deterministic; dump the
    // contexts sorted so a straight run and a resumed run produce
    // byte-identical checkpoints.
    std::vector<std::pair<std::uint64_t, trace::Addr>> sorted(
        table_.begin(), table_.end());
    std::sort(sorted.begin(), sorted.end());
    writer.writeVarint(sorted.size());
    for (const auto &[key, target] : sorted) {
        writer.writeU64(key);
        writer.writeU64(target);
    }
    writer.writeU64(lastKey);
}

void
Oracle::loadState(util::StateReader &reader)
{
    window_.clear();
    table_.clear();
    const std::uint64_t window = reader.readVarint();
    if (reader.ok() && window > config_.pathLength) {
        reader.fail("oracle window longer than the path length");
        return;
    }
    for (std::uint64_t i = 0; i < window && reader.ok(); ++i)
        window_.push_back(reader.readU64());
    const std::uint64_t contexts = reader.readVarint();
    // An unbounded table could claim absurd sizes; bound by what the
    // remaining bytes can actually hold (16 bytes per context).
    if (reader.ok() && contexts > reader.remaining() / 16) {
        reader.fail("oracle context count overruns input");
        return;
    }
    table_.reserve(static_cast<std::size_t>(contexts));
    for (std::uint64_t i = 0; i < contexts && reader.ok(); ++i) {
        const std::uint64_t key = reader.readU64();
        table_[key] = reader.readU64();
    }
    lastKey = reader.readU64();
}

} // namespace ibp::pred
