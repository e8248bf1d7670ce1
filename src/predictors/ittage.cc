#include "predictors/ittage.hh"

#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace ibp::pred {

Ittage::Ittage(const IttageConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      histLens_(), history_(1, 1, StreamSel::MtIndirect),
      base_(config.baseEntries)
{
    fatal_if(config.baseEntries == 0, "ITTAGE needs a base table");
    fatal_if(config.numComponents == 0 ||
                 config.numComponents > kMaxComponents,
             "ITTAGE tagged-component count out of range");
    fatal_if(config.entriesPerComponent == 0,
             "ITTAGE needs non-empty tagged components");
    fatal_if(config.tagBits < 2 || config.tagBits > 30,
             "ITTAGE tag width out of range");
    fatal_if(config.minHistory == 0, "ITTAGE needs minHistory >= 1");
    fatal_if(config.maxHistory < config.minHistory,
             "ITTAGE history range is inverted");
    fatal_if(config.bitsPerTarget == 0 || config.bitsPerTarget > 31,
             "ITTAGE path-symbol width out of range");

    // Geometric history-length series from minHistory to maxHistory,
    // forced strictly increasing so every component sees a distinct
    // window (the TAGE series; for 2..64 over 6 components this is
    // exactly 2, 4, 8, 16, 32, 64).
    histLens_.reserve(config.numComponents);
    const double lo = static_cast<double>(config.minHistory);
    const double hi = static_cast<double>(config.maxHistory);
    for (std::size_t i = 0; i < config.numComponents; ++i) {
        const double frac =
            config.numComponents == 1
                ? 1.0
                : static_cast<double>(i) /
                      static_cast<double>(config.numComponents - 1);
        auto length = static_cast<unsigned>(
            std::llround(lo * std::pow(hi / lo, frac)));
        if (!histLens_.empty() && length <= histLens_.back())
            length = histLens_.back() + 1;
        histLens_.push_back(length);
    }

    history_ = SymbolHistory(histLens_.back(), config.bitsPerTarget,
                             StreamSel::MtIndirect);

    const unsigned indexBits =
        std::max(2u, util::log2Ceil(config.entriesPerComponent));
    components_.reserve(config.numComponents);
    indexFolds_.reserve(config.numComponents);
    tagFoldsA_.reserve(config.numComponents);
    tagFoldsB_.reserve(config.numComponents);
    for (std::size_t i = 0; i < config.numComponents; ++i) {
        components_.emplace_back(config.entriesPerComponent);
        indexFolds_.emplace_back(indexBits, histLens_[i],
                                 config.bitsPerTarget);
        tagFoldsA_.emplace_back(config.tagBits, histLens_[i],
                                config.bitsPerTarget);
        tagFoldsB_.emplace_back(config.tagBits - 1, histLens_[i],
                                config.bitsPerTarget);
    }
}

std::uint64_t
Ittage::indexFor(std::size_t component, trace::Addr pc) const
{
    // Mix a second, component-shifted pc slice so the same branch
    // lands on different rows across components even with an empty
    // history (TAGE's index de-correlation).
    const std::uint64_t addr = pc >> 2;
    const std::uint64_t hash =
        addr ^ (addr >> (component + 1)) ^
        indexFolds_[component].value();
    return components_[component].reduce(hash);
}

std::uint32_t
Ittage::tagWith(std::size_t component, std::uint64_t pc_fold) const
{
    const std::uint64_t tag = pc_fold ^ tagFoldsA_[component].value() ^
                              (tagFoldsB_[component].value() << 1);
    return static_cast<std::uint32_t>(
        util::selectLow(tag, config_.tagBits));
}

std::uint32_t
Ittage::tagFor(std::size_t component, trace::Addr pc) const
{
    return tagWith(component,
                   util::foldXor(pc >> 2, 34, config_.tagBits));
}

Ittage::Lookup
Ittage::lookupFor(trace::Addr pc) const
{
    Lookup look;
    look.baseIndex = base_.reduce(pc >> 2);
    // Resolve every component's slot: training reuses them (the
    // provider's line, and the allocation candidates above it).  The
    // pc's fold is the same for every component's tag, so it is
    // computed once.  Which lines match is data-dependent, so the
    // provider (longest matching component) and alternate (next
    // longest) come from a match mask, not a branch per component.
    const std::uint64_t pc_fold =
        util::foldXor(pc >> 2, 34, config_.tagBits);
    std::uint32_t matches = 0;
    for (std::size_t i = 0; i < config_.numComponents; ++i) {
        const Slot slot{indexFor(i, pc), tagWith(i, pc_fold)};
        const IttageEntry &entry = components_[i].at(slot.index);
        matches |= static_cast<std::uint32_t>(entry.valid &
                                              (entry.tag == slot.tag))
                   << i;
        look.slots[i] = slot;
    }
    const TargetEntry &fallback = base_.at(look.baseIndex);
    const Prediction base{fallback.valid, fallback.target};
    if (matches == 0) {
        look.prediction = base;
        return look;
    }
    const auto target_of = [&](std::size_t component) {
        return components_[component].at(look.slots[component].index)
            .target;
    };
    look.provider = static_cast<std::size_t>(std::bit_width(matches)) - 1;
    look.prediction = {true, target_of(look.provider)};
    const std::uint32_t below = matches & ~(1u << look.provider);
    if (below == 0) {
        look.alternate = base;
    } else {
        look.altpred = static_cast<std::size_t>(std::bit_width(below)) - 1;
        look.alternate = {true, target_of(look.altpred)};
    }
    return look;
}

std::size_t
Ittage::providerComponent(trace::Addr pc) const
{
    return lookupFor(pc).provider;
}

Prediction
Ittage::predict(trace::Addr pc)
{
    // Pure lookup: update() resolves the same slots (histories only
    // advance in observe()), so predict() leaves no transient state.
    return lookupFor(pc).prediction;
}

void
Ittage::update(trace::Addr pc, trace::Addr target)
{
    train(lookupFor(pc), target);
}

Prediction
Ittage::predictAndUpdate(trace::Addr pc, trace::Addr target)
{
    const Lookup look = lookupFor(pc);
    train(look, target);
    return look.prediction;
}

void
Ittage::train(const Lookup &look, trace::Addr target)
{
    const bool mispredict =
        !look.prediction.valid || look.prediction.target != target;

    if (look.provider != kBase) {
        taggedProvides_.bump();
        IttageEntry &entry = components_[look.provider].at(
            look.slots[look.provider].index);
        const bool correct = entry.target == target;
        // The useful counter moves only when the provider disagreed
        // with the alternate — that is when it carried information.
        if (look.alternate.valid &&
            look.alternate.target != entry.target) {
            if (correct)
                entry.useful.increment();
            else
                entry.useful.decrement();
        }
        if (correct) {
            entry.confidence.increment();
        } else if (!entry.confidence.decrement()) {
            // Confidence exhausted: retarget the line in place.
            entry.target = target;
        }
    }

    // The base table always trains: it is the alternate of last
    // resort, and a freshly allocated component needs a warm fallback.
    base_.at(look.baseIndex).train(target);

    if (mispredict)
        allocate(look, target);
}

void
Ittage::allocate(const Lookup &look, trace::Addr target)
{
    const std::size_t start =
        look.provider == kBase ? 0 : look.provider + 1;
    if (start >= config_.numComponents)
        return; // the longest component already provided

    // Deterministic victim choice: the shortest-history component
    // above the provider whose slot is empty or no longer useful.
    // (Hardware TAGE randomizes here to break ping-pong; a replayed
    // simulation must not, and the determinism lint bans rand().)
    for (std::size_t j = start; j < config_.numComponents; ++j) {
        IttageEntry &entry = components_[j].at(look.slots[j].index);
        if (entry.valid && !entry.useful.saturatedLow())
            continue;
        entry.valid = true;
        entry.target = target;
        entry.tag = look.slots[j].tag;
        entry.confidence.set(0);
        entry.useful.set(0);
        allocations_.bump();
        return;
    }

    // Every candidate was useful: age them all so the next
    // misprediction finds a victim, and record the stall.
    for (std::size_t j = start; j < config_.numComponents; ++j)
        components_[j].at(look.slots[j].index).useful.decrement();
    allocationStalls_.bump();
}

void
Ittage::advanceHistories(const trace::BranchRecord &record)
{
    const auto symbol = static_cast<std::uint32_t>(
        pathSymbol(record, config_.bitsPerTarget));
    // Each component's folds drop the symbol leaving *its* window;
    // read the outgoing symbols before the ring advances.
    for (std::size_t i = 0; i < config_.numComponents; ++i) {
        const std::uint32_t outgoing =
            history_.symbol(histLens_[i] - 1);
        indexFolds_[i].push(symbol, outgoing);
        tagFoldsA_[i].push(symbol, outgoing);
        tagFoldsB_[i].push(symbol, outgoing);
    }
    history_.push(symbol);
}

std::uint64_t
Ittage::storageBits() const
{
    const std::uint64_t entryBits =
        64 + config_.tagBits + 2 /* confidence */ + 2 /* useful */ +
        1 /* valid */;
    std::uint64_t bits =
        base_.size() * TargetEntry::bits() + history_.storageBits();
    for (const auto &component : components_)
        bits += component.size() * entryBits;
    for (std::size_t i = 0; i < config_.numComponents; ++i)
        bits += indexFolds_[i].width() + tagFoldsA_[i].width() +
                tagFoldsB_[i].width();
    return bits;
}

void
Ittage::reset()
{
    history_.reset();
    base_.reset();
    for (auto &component : components_)
        component.reset();
    for (auto &fold : indexFolds_)
        fold.reset();
    for (auto &fold : tagFoldsA_)
        fold.reset();
    for (auto &fold : tagFoldsB_)
        fold.reset();
    allocations_.reset();
    allocationStalls_.reset();
    taggedProvides_.reset();
}

void
saveIttageEntry(util::StateWriter &writer, const IttageEntry &entry)
{
    writer.writeBool(entry.valid);
    writer.writeU64(entry.target);
    writer.writeU32(entry.tag);
    writer.writeU8(static_cast<std::uint8_t>(entry.confidence.value()));
    writer.writeU8(static_cast<std::uint8_t>(entry.useful.value()));
}

void
loadIttageEntry(util::StateReader &reader, IttageEntry &entry)
{
    entry.valid = reader.readBool();
    entry.target = reader.readU64();
    entry.tag = reader.readU32();
    const std::uint8_t confidence = reader.readU8();
    const std::uint8_t useful = reader.readU8();
    if (reader.ok() && (confidence > entry.confidence.max() ||
                        useful > entry.useful.max())) {
        reader.fail("ITTAGE entry counter out of range");
        return;
    }
    entry.confidence.set(confidence);
    entry.useful.set(useful);
}

void
Ittage::saveState(util::StateWriter &writer) const
{
    history_.saveState(writer);
    base_.saveState(writer, saveTargetEntry);
    writer.writeVarint(components_.size());
    for (std::size_t i = 0; i < components_.size(); ++i) {
        components_[i].saveState(writer, saveIttageEntry);
        indexFolds_[i].saveState(writer);
        tagFoldsA_[i].saveState(writer);
        tagFoldsB_[i].saveState(writer);
    }
}

void
Ittage::loadState(util::StateReader &reader)
{
    history_.loadState(reader);
    base_.loadState(reader, loadTargetEntry);
    const std::uint64_t components = reader.readVarint();
    if (reader.ok() && components != components_.size()) {
        reader.fail("ITTAGE component count mismatch");
        return;
    }
    for (std::size_t i = 0; i < components_.size(); ++i) {
        components_[i].loadState(reader, loadIttageEntry);
        indexFolds_[i].loadState(reader);
        tagFoldsA_[i].loadState(reader);
        tagFoldsB_[i].loadState(reader);
    }
}

void
Ittage::saveProbes(util::StateWriter &writer) const
{
    writer.writeU64(allocations_.value());
    writer.writeU64(allocationStalls_.value());
    writer.writeU64(taggedProvides_.value());
}

void
Ittage::loadProbes(util::StateReader &reader)
{
    allocations_.set(reader.readU64());
    allocationStalls_.set(reader.readU64());
    taggedProvides_.set(reader.readU64());
}

void
Ittage::snapshotProbes(obs::ProbeRegistry &registry) const
{
    registry.counter("ittage/allocations", allocations_);
    registry.counter("ittage/alloc_stalls", allocationStalls_);
    registry.counter("ittage/tagged_provider", taggedProvides_);
}

} // namespace ibp::pred
