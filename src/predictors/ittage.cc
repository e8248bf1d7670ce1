#include "predictors/ittage.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace ibp::pred {

namespace {

const IttageConfig &
validated(const IttageConfig &config)
{
    fatal_if(config.baseEntries == 0, "ITTAGE needs a base table");
    fatal_if(config.numComponents == 0 ||
                 config.numComponents > Ittage::kMaxComponents,
             "ITTAGE tagged-component count out of range");
    fatal_if(config.entriesPerComponent == 0,
             "ITTAGE needs non-empty tagged components");
    fatal_if(config.numComponents * config.entriesPerComponent >
                 std::size_t{1} << 31,
             "ITTAGE tagged components out of range");
    fatal_if(config.tagBits < 2 || config.tagBits > 30,
             "ITTAGE tag width out of range");
    fatal_if(config.minHistory == 0, "ITTAGE needs minHistory >= 1");
    fatal_if(config.maxHistory < config.minHistory,
             "ITTAGE history range is inverted");
    fatal_if(config.bitsPerTarget == 0 || config.bitsPerTarget > 31,
             "ITTAGE path-symbol width out of range");
    return config;
}

/**
 * Geometric history-length series from minHistory to maxHistory,
 * forced strictly increasing so every component sees a distinct window
 * (the TAGE series; for 2..64 over 6 components this is exactly 2, 4,
 * 8, 16, 32, 64).
 */
std::vector<unsigned>
geometricLengths(const IttageConfig &config)
{
    std::vector<unsigned> lengths;
    lengths.reserve(config.numComponents);
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
        if (!lengths.empty() && length <= lengths.back())
            length = lengths.back() + 1;
        lengths.push_back(length);
    }
    return lengths;
}

/** The widths of the index fold and of tag folds A (tagBits wide)
 *  and B (one bit narrower). */
std::array<unsigned, FoldBank::kKinds>
foldWidths(const IttageConfig &config)
{
    return {std::max(2u, util::log2Ceil(config.entriesPerComponent)),
            config.tagBits, config.tagBits - 1};
}

/** The confidence and useful counters' saturation value (2 bits). */
constexpr std::uint8_t kCounterMax = 3;

/** One step of a 2-bit counter, saturating at both ends. */
std::uint8_t
raised(std::uint8_t counter)
{
    return counter == kCounterMax ? counter
                                  : static_cast<std::uint8_t>(counter + 1);
}

std::uint8_t
lowered(std::uint8_t counter)
{
    return counter == 0 ? counter : static_cast<std::uint8_t>(counter - 1);
}

} // namespace

FoldBank::FoldBank(const std::vector<unsigned> &lengths,
                   const std::array<unsigned, kKinds> &widths,
                   unsigned symbol_bits)
    : symbolBits_(symbol_bits), length_(0)
{
    panic_if(lengths.empty(), "FoldBank needs at least one window");
    panic_if(symbol_bits == 0 || symbol_bits > 32,
             "FoldBank symbol width out of range");
    for (std::size_t k = 0; k < kKinds; ++k) {
        const unsigned width = widths[k];
        panic_if(width == 0 || width > 32,
                 "FoldBank width out of range: ", width);
        kinds_[k] = {util::maskLow(width),
                     std::uint64_t{1}
                         << util::reduceRotation(symbol_bits, width),
                     width};
    }
    windows_.reserve(lengths.size());
    for (const unsigned length : lengths) {
        panic_if(length == 0, "FoldBank needs length >= 1");
        Window window{};
        for (std::size_t k = 0; k < kKinds; ++k)
            window.outgoingScale[k] =
                std::uint64_t{1}
                << util::reduceRotation(symbol_bits * length, widths[k]);
        window.outgoingAge = length - 1;
        windows_.push_back(window);
        length_ = std::max<std::size_t>(length_, length);
    }
    values_.assign(windows_.size() * kKinds, 0);
    ring_.assign(2 * length_, 0);
}

std::uint64_t
FoldBank::storageBits() const
{
    std::uint64_t bits = static_cast<std::uint64_t>(length_) * symbolBits_;
    for (const Kind &kind : kinds_)
        bits += static_cast<std::uint64_t>(kind.width) * windows_.size();
    return bits;
}

void
FoldBank::reset()
{
    std::fill(values_.begin(), values_.end(), std::uint64_t{0});
    std::fill(ring_.begin(), ring_.end(), std::uint32_t{0});
    head_ = 0;
}

void
FoldBank::saveHistory(util::StateWriter &writer) const
{
    writer.writeVarint(length_);
    for (std::size_t slot = 0; slot < length_; ++slot)
        writer.writeU32(ring_[slot]);
    writer.writeVarint(head_);
}

void
FoldBank::loadHistory(util::StateReader &reader)
{
    const std::uint64_t length = reader.readVarint();
    if (reader.ok() && length != length_) {
        reader.fail("SymbolHistory length mismatch");
        return;
    }
    for (std::size_t slot = 0; slot < length_; ++slot)
        ring_[slot] = ring_[slot + length_] = reader.readU32();
    const std::uint64_t head = reader.readVarint();
    if (reader.ok() && head >= length_) {
        reader.fail("SymbolHistory head out of range");
        return;
    }
    head_ = static_cast<std::size_t>(head);
}

void
FoldBank::saveFolds(util::StateWriter &writer, std::size_t window) const
{
    for (std::size_t k = 0; k < kKinds; ++k)
        writer.writeU64(value(window, k));
}

void
FoldBank::loadFolds(util::StateReader &reader, std::size_t window)
{
    for (std::size_t k = 0; k < kKinds; ++k) {
        const std::uint64_t value = reader.readU64();
        if (reader.ok() && (value & ~kinds_[k].mask) != 0) {
            reader.fail("FoldBank value wider than its fold");
            return;
        }
        values_[window * kKinds + k] = value;
    }
}

Ittage::Ittage(const IttageConfig &config, std::string name)
    : config_(validated(config)), name_(std::move(name)),
      histLens_(geometricLengths(config)), base_(config.baseEntries),
      rows_(config.entriesPerComponent),
      rowMask_(util::indexMask(rows_)),
      tagMask_(static_cast<std::uint32_t>(util::maskLow(config.tagBits))),
      keys_(config.numComponents * rows_, kNoKey),
      targets_(keys_.size(), 0), confidence_(keys_.size(), 0),
      useful_(keys_.size(), 0),
      folds_(histLens_, foldWidths(config), config.bitsPerTarget)
{
}

std::uint64_t
Ittage::rowOf(std::uint64_t addr, std::uint64_t shifted,
              std::uint64_t index_fold) const
{
    // Mix a second, component-shifted pc slice so the same branch
    // lands on different rows across components even with an empty
    // history (TAGE's index de-correlation).
    const std::uint64_t hash = addr ^ shifted ^ index_fold;
    return util::reduceIndex(hash, rows_, rowMask_);
}

std::uint64_t
Ittage::rowFor(std::size_t component, std::uint64_t addr) const
{
    return rowOf(addr, addr >> (component + 1),
                 folds_.value(component, 0));
}

std::uint32_t
Ittage::tagWith(std::size_t component, std::uint64_t pc_fold) const
{
    return static_cast<std::uint32_t>(pc_fold ^
                                      folds_.value(component, 1) ^
                                      (folds_.value(component, 2) << 1)) &
           tagMask_;
}

std::uint64_t
Ittage::pcFold(trace::Addr pc) const
{
    // util::foldXor(pc >> 2, 34, tagBits), one shift per chunk.
    const std::uint64_t addr = util::selectLow(pc >> 2, 34);
    std::uint64_t fold = addr;
    for (unsigned chunk = config_.tagBits; chunk < 34;
         chunk += config_.tagBits)
        fold ^= addr >> chunk;
    return fold & tagMask_;
}

std::uint64_t
Ittage::indexFor(std::size_t component, trace::Addr pc) const
{
    return rowFor(component, pc >> 2);
}

std::uint32_t
Ittage::tagFor(std::size_t component, trace::Addr pc) const
{
    return tagWith(component, pcFold(pc));
}

IttageEntry
Ittage::componentEntry(std::size_t component, trace::Addr pc) const
{
    return lineEntry(component * rows_ + rowFor(component, pc >> 2));
}

Ittage::Lookup
Ittage::lookupFor(trace::Addr pc) const
{
    Lookup look;
    const std::uint64_t addr = pc >> 2;
    look.baseIndex = base_.reduce(addr);
    // Resolve every component's slot: training reuses them (the
    // provider's line, and the allocation candidates above it).  The
    // pc's fold is the same for every component's tag, so it is
    // computed once.  Which lines match is data-dependent, so the
    // provider (longest matching component) and alternate (next
    // longest) come from a match mask, not a branch per component.
    const std::uint64_t pc_fold = pcFold(pc);
    std::uint32_t matches = 0;
    std::uint64_t shifted = addr;
    std::uint32_t bit = 1;
    for (std::size_t i = 0; i < config_.numComponents; ++i, bit <<= 1) {
        shifted >>= 1;
        const auto line = static_cast<std::uint32_t>(
            i * rows_ + rowOf(addr, shifted, folds_.value(i, 0)));
        const std::uint32_t tag = tagWith(i, pc_fold);
        matches |= keys_[line] == tag ? bit : 0;
        look.lines[i] = line;
        look.tags[i] = tag;
    }
    const TargetEntry &fallback = base_.at(look.baseIndex);
    const Prediction base{fallback.valid, fallback.target};
    if (matches == 0) {
        look.prediction = base;
        return look;
    }
    look.provider = static_cast<std::size_t>(std::bit_width(matches)) - 1;
    look.prediction = {true, targets_[look.lines[look.provider]]};
    const std::uint32_t below = matches & ~(1u << look.provider);
    look.alternate =
        below == 0
            ? base
            : Prediction{true, targets_[look.lines[static_cast<std::size_t>(
                                   std::bit_width(below)) -
                                                   1]]};
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
        const std::uint32_t line = look.lines[look.provider];
        const trace::Addr provided = look.prediction.target;
        const bool correct = provided == target;
        // Selects, not an if-chain: the arms depend on hash-indexed
        // line contents, which the host CPU cannot predict.  The
        // useful counter moves only when the provider disagreed with
        // the alternate — that is when it carried information.
        const bool disagreed =
            look.alternate.valid && look.alternate.target != provided;
        const std::uint8_t useful = useful_[line];
        useful_[line] = !disagreed ? useful
                        : correct  ? raised(useful)
                                   : lowered(useful);
        const std::uint8_t confidence = confidence_[line];
        confidence_[line] = correct ? raised(confidence)
                                    : lowered(confidence);
        // Confidence exhausted: retarget the line in place.
        targets_[line] = !correct && confidence == 0 ? target : provided;
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
        const std::uint32_t line = look.lines[j];
        if (keys_[line] != kNoKey && useful_[line] != 0)
            continue;
        keys_[line] = look.tags[j];
        targets_[line] = target;
        confidence_[line] = 0;
        useful_[line] = 0;
        allocations_.bump();
        return;
    }

    // Every candidate was useful: age them all so the next
    // misprediction finds a victim, and record the stall.
    for (std::size_t j = start; j < config_.numComponents; ++j)
        useful_[look.lines[j]] = lowered(useful_[look.lines[j]]);
    allocationStalls_.bump();
}

std::uint64_t
Ittage::storageBits() const
{
    const std::uint64_t entryBits =
        64 + config_.tagBits + 2 /* confidence */ + 2 /* useful */ +
        1 /* valid */;
    return base_.size() * TargetEntry::bits() + keys_.size() * entryBits +
           folds_.storageBits();
}

void
Ittage::reset()
{
    base_.reset();
    std::fill(keys_.begin(), keys_.end(), kNoKey);
    std::fill(targets_.begin(), targets_.end(), trace::Addr{0});
    std::fill(confidence_.begin(), confidence_.end(), std::uint8_t{0});
    std::fill(useful_.begin(), useful_.end(), std::uint8_t{0});
    folds_.reset();
    allocations_.reset();
    allocationStalls_.reset();
    taggedProvides_.reset();
}

IttageEntry
Ittage::lineEntry(std::size_t line) const
{
    IttageEntry entry;
    entry.valid = keys_[line] != kNoKey;
    entry.tag = entry.valid ? keys_[line] : 0;
    entry.target = targets_[line];
    entry.confidence.set(confidence_[line]);
    entry.useful.set(useful_[line]);
    return entry;
}

void
Ittage::storeLine(std::size_t line, const IttageEntry &entry)
{
    keys_[line] = entry.valid ? entry.tag : kNoKey;
    targets_[line] = entry.target;
    confidence_[line] = static_cast<std::uint8_t>(entry.confidence.value());
    useful_[line] = static_cast<std::uint8_t>(entry.useful.value());
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
    folds_.saveHistory(writer);
    base_.saveState(writer, saveTargetEntry);
    writer.writeVarint(config_.numComponents);
    for (std::size_t i = 0; i < config_.numComponents; ++i) {
        writer.writeVarint(rows_);
        for (std::size_t row = 0; row < rows_; ++row)
            saveIttageEntry(writer, lineEntry(i * rows_ + row));
        folds_.saveFolds(writer, i);
    }
}

void
Ittage::loadState(util::StateReader &reader)
{
    folds_.loadHistory(reader);
    base_.loadState(reader, loadTargetEntry);
    const std::uint64_t components = reader.readVarint();
    if (reader.ok() && components != config_.numComponents) {
        reader.fail("ITTAGE component count mismatch");
        return;
    }
    for (std::size_t i = 0; i < config_.numComponents; ++i) {
        const std::uint64_t rows = reader.readVarint();
        if (reader.ok() && rows != rows_) {
            reader.fail("ITTAGE component row count mismatch");
            return;
        }
        for (std::size_t row = 0; row < rows_; ++row) {
            IttageEntry entry;
            loadIttageEntry(reader, entry);
            // Only states the predictor can reach have a key: an
            // empty line is all zeros and a valid tag fits its width.
            const bool reachable =
                entry.valid ? entry.tag <= tagMask_
                            : entry.target == 0 && entry.tag == 0 &&
                                  entry.confidence.value() == 0 &&
                                  entry.useful.value() == 0;
            if (reader.ok() && !reachable) {
                reader.fail("ITTAGE line holds an unreachable state");
                return;
            }
            storeLine(i * rows_ + row, entry);
        }
        folds_.loadFolds(reader, i);
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
