#include "core/sfsxs.hh"

#include "util/logging.hh"
#include "util/serde.hh"

namespace ibp::core {

Sfsxs::Sfsxs(const SfsxsConfig &config)
    : config_(config), wordBits_(config.foldBits + config.order - 1)
{
    fatal_if(config.order == 0, "SFSXS needs order >= 1");
    fatal_if(config.foldBits == 0 || config.foldBits > 16,
             "SFSXS fold width out of range: ", config.foldBits);
    fatal_if(config.selectBits == 0 || config.selectBits > 32,
             "SFSXS select width out of range: ", config.selectBits);
    fatal_if(wordBits_ > 63, "SFSXS word too wide");
}

SfsxsWord::SfsxsWord(const SfsxsConfig &config)
{
    // Sfsxs owns the range checks; they also bound the ring and keep
    // the chunk count below from dividing by zero.
    [[maybe_unused]] const Sfsxs checked(config);
    selectMask_ =
        static_cast<std::uint32_t>(util::maskLow(config.selectBits));
    foldMask_ = static_cast<std::uint32_t>(util::maskLow(config.foldBits));
    foldBits_ = config.foldBits;
    chunks_ = (config.selectBits + config.foldBits - 1) / config.foldBits;
    order_ = config.order;
}

void
SfsxsWord::reset()
{
    for (unsigned i = 0; i < order_; ++i)
        ring_[i] = 0;
    head_ = 0;
    word_ = 0;
}

std::uint64_t
SfsxsWord::ringWord() const
{
    // Slot head_ is the most recent fold (shift order-1); each older
    // slot one further round the ring sits one shift lower.
    std::uint64_t word = 0;
    unsigned slot = head_;
    for (unsigned recency = 0; recency < order_; ++recency) {
        word ^= std::uint64_t{ring_[slot]} << (order_ - 1 - recency);
        slot = slot + 1 == order_ ? 0 : slot + 1;
    }
    return word;
}

void
SfsxsWord::saveState(util::StateWriter &writer) const
{
    writer.writeVarint(order_);
    for (unsigned i = 0; i < order_; ++i)
        writer.writeU64(ring_[i]);
    writer.writeVarint(head_);
    writer.writeU64(word_);
}

void
SfsxsWord::loadState(util::StateReader &reader)
{
    const std::uint64_t order = reader.readVarint();
    if (reader.ok() && order != order_) {
        reader.fail("SfsxsWord order mismatch");
        return;
    }
    for (unsigned i = 0; i < order_; ++i) {
        const std::uint64_t folded = reader.readU64();
        if (reader.ok() && folded > foldMask_) {
            reader.fail("SfsxsWord slot wider than the fold");
            return;
        }
        ring_[i] = static_cast<std::uint16_t>(folded);
    }
    const std::uint64_t head = reader.readVarint();
    if (reader.ok() && head >= order_) {
        reader.fail("SfsxsWord head out of range");
        return;
    }
    head_ = static_cast<unsigned>(head);
    word_ = reader.readU64();
    if (reader.ok() && word_ != ringWord())
        reader.fail("SfsxsWord word disagrees with its ring");
}

} // namespace ibp::core
