#include "predictors/perceptron_indirect.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ibp::pred {

namespace {

/** @p value clamped symmetrically to [-max, max], so +w and -w
 *  training are mirrors. */
std::int8_t
saturated(int value, int max)
{
    return static_cast<std::int8_t>(value > max    ? max
                                    : value < -max ? -max
                                                   : value);
}

} // namespace

PerceptronIndirect::PerceptronIndirect(
    const PerceptronIndirectConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      maxWeight_((1 << (config.weightBits - 1)) - 1),
      pibHistory_(config.pibHistoryBits, config.pibBitsPerTarget,
                  StreamSel::MtIndirect),
      pbHistory_(config.pbHistoryBits, config.pbBitsPerTarget,
                 StreamSel::AllBranches),
      candidates_(config.candidateSets, config.candidateWays),
      tables_(config.numTables), pibTables_(config.numTables / 2),
      rows_(config.entriesPerTable),
      rowMask_(util::indexMask(rows_)),
      weights_(config.numTables * rows_, 0)
{
    fatal_if(config.numTables < 2 || config.numTables % 2 != 0,
             "perceptron needs an even table count (PIB + PB halves)");
    fatal_if(config.numTables > kMaxTables,
             "perceptron table count out of range");
    fatal_if(config.entriesPerTable == 0,
             "perceptron needs non-empty weight tables");
    fatal_if(config.weightBits < 2 || config.weightBits > 8,
             "perceptron weight width out of range");
    fatal_if(config.trainingThreshold < 0,
             "perceptron threshold must be non-negative");
    fatal_if(config.candidateTagBits < 2 || config.candidateTagBits > 30,
             "perceptron candidate tag width out of range");
    // Half the tables read PIB-register segments, half PB-register
    // segments, each its own slice of the register.
    const unsigned pibSegmentBits =
        config.pibHistoryBits / static_cast<unsigned>(pibTables_);
    const unsigned pbSegmentBits =
        config.pbHistoryBits / static_cast<unsigned>(pibTables_);
    features_.reserve(tables_);
    for (std::size_t i = 0; i < tables_; ++i) {
        const bool pib = i < pibTables_;
        const auto lane = static_cast<unsigned>(pib ? i : i - pibTables_);
        const unsigned bits = pib ? pibSegmentBits : pbSegmentBits;
        features_.push_back({lane * bits, util::maskLow(bits),
                             i * 0x9E37ull, i * rows_});
    }
}

std::uint64_t
PerceptronIndirect::candidateSet(trace::Addr pc) const
{
    const std::uint64_t addr = pc >> 2;
    return candidates_.reduce(addr ^ (addr >> 9));
}

std::uint64_t
PerceptronIndirect::candidateTag(trace::Addr target) const
{
    return util::foldXor(target >> 2, 40, config_.candidateTagBits);
}

std::uint64_t
PerceptronIndirect::tableHash(std::size_t table, trace::Addr pc,
                              const PathWords &words) const
{
    return featureHash(features_[table], pc >> 2,
                       table < pibTables_ ? words.pib : words.pb);
}

std::uint64_t
PerceptronIndirect::targetFold(trace::Addr target)
{
    return util::foldXor(target >> 2, 40, 16);
}

std::uint64_t
PerceptronIndirect::keyOf(std::size_t table, std::uint64_t hash) const
{
    return rowMask_ ? features_[table].firstLine | (hash & rowMask_) : hash;
}

std::uint64_t
PerceptronIndirect::featureIndex(std::size_t table, trace::Addr pc,
                                 trace::Addr target) const
{
    return lineOf(table, keyOf(table, tableHash(table, pc, words())),
                  targetFold(target)) -
           table * rows_;
}

int
PerceptronIndirect::score(trace::Addr pc, trace::Addr target) const
{
    int sum = 0;
    for (std::size_t i = 0; i < tables_; ++i)
        sum += weights_[i * rows_ + featureIndex(i, pc, target)];
    return sum;
}

int
PerceptronIndirect::weightSum(const Scoring &scoring,
                              std::uint64_t fold) const
{
    int sum = 0;
    for (std::size_t i = 0; i < tables_; ++i)
        sum += weights_[lineOf(i, scoring.keys[i], fold)];
    return sum;
}

PerceptronIndirect::Scoring
PerceptronIndirect::scoreCandidates(trace::Addr pc,
                                    const PathWords &words) const
{
    // No LRU touch and no state: histories only advance in observe(),
    // so predict() stays repeatable and a following train() finds
    // every key still current.
    Scoring scoring;
    const std::uint64_t addr = pc >> 2;
    for (std::size_t i = 0; i < pibTables_; ++i)
        scoring.keys[i] =
            keyOf(i, featureHash(features_[i], addr, words.pib));
    for (std::size_t i = pibTables_; i < tables_; ++i)
        scoring.keys[i] =
            keyOf(i, featureHash(features_[i], addr, words.pb));
    scoring.set = candidateSet(pc);
    for (std::size_t way = 0; way < candidates_.ways(); ++way) {
        const TargetEntry &candidate =
            candidates_.wayEntry(scoring.set, way);
        if (!candidate.valid)
            continue;
        const std::uint64_t fold = targetFold(candidate.target);
        const int sum = weightSum(scoring, fold);
        // Strict comparison: ties resolve to the lowest way, keeping
        // the choice deterministic under replay.  Selects, not a
        // branch: which candidate wins is data-dependent.
        const bool best = !scoring.prediction.valid || sum > scoring.score;
        scoring.prediction.valid = true;
        scoring.prediction.target =
            best ? candidate.target : scoring.prediction.target;
        scoring.score = best ? sum : scoring.score;
        scoring.fold = best ? fold : scoring.fold;
        scoring.way = best ? way : scoring.way;
    }
    return scoring;
}

Prediction
PerceptronIndirect::predict(trace::Addr pc)
{
    return scoreCandidates(pc, words()).prediction;
}

void
PerceptronIndirect::update(trace::Addr pc, trace::Addr target)
{
    train(scoreCandidates(pc, words()), target);
}

Prediction
PerceptronIndirect::predictAndUpdate(trace::Addr pc, trace::Addr target)
{
    return predictAndUpdateOn(pc, target, pbHistory_.value(),
                              pibHistory_.value());
}

Prediction
PerceptronIndirect::predictAndUpdateOn(trace::Addr pc, trace::Addr target,
                                       std::uint64_t pb, std::uint64_t pib)
{
    const Scoring scoring = scoreCandidates(pc, {pb, pib});
    train(scoring, target);
    return scoring.prediction;
}

void
PerceptronIndirect::train(const Scoring &scoring, trace::Addr target)
{
    const Prediction &prediction = scoring.prediction;
    const bool mispredict =
        !prediction.valid || prediction.target != target;

    // Perceptron rule: train on every mispredict, and on correct
    // predictions whose margin is still below the threshold.  A
    // correct prediction's target is the best candidate, so its score
    // and fold are the ones the scoring pass kept.
    if (mispredict || scoring.score < config_.trainingThreshold) {
        const std::uint64_t up =
            mispredict ? targetFold(target) : scoring.fold;
        const bool down = prediction.valid && prediction.target != target;
        // One pass over the tables, +1 before -1 in each: tables own
        // disjoint lines, so a +1 and a -1 landing on the same weight
        // saturate one after the other exactly as two full passes
        // would.
        const int max = maxWeight_;
        for (std::size_t i = 0; i < tables_; ++i) {
            std::int8_t &plus = weights_[lineOf(i, scoring.keys[i], up)];
            plus = saturated(plus + 1, max);
            if (down) {
                std::int8_t &minus =
                    weights_[lineOf(i, scoring.keys[i], scoring.fold)];
                minus = saturated(minus - 1, max);
            }
        }
        weightUpdates_.bump(down ? 2 : 1);
    }

    // Keep the candidate cache warm: promote the actual target to MRU
    // or install it over the LRU way.  Scoring never probes, but a
    // correct prediction's target is the best candidate's, and a set
    // holds each tag once, on the line whose target has that tag
    // (loadState() rejects any other cache): so its way is the one a
    // rescan would find, and only a mispredict rescans.
    util::Slot slot{scoring.set, 0, scoring.way, !mispredict};
    if (mispredict)
        slot.tag = candidateTag(target);
    if (TargetEntry *entry = candidates_.revisit(slot)) {
        entry->train(target);
    } else {
        TargetEntry fresh;
        fresh.train(target);
        candidates_.insert(slot, fresh);
    }
}

std::uint64_t
PerceptronIndirect::storageBits() const
{
    const std::uint64_t candidateBits =
        candidates_.size() *
        (TargetEntry::bits() + config_.candidateTagBits);
    return candidateBits + weights_.size() * config_.weightBits +
           pibHistory_.bits() + pbHistory_.bits();
}

void
PerceptronIndirect::reset()
{
    pibHistory_.reset();
    pbHistory_.reset();
    candidates_.reset();
    std::fill(weights_.begin(), weights_.end(), std::int8_t{0});
    weightUpdates_.reset();
}

void
PerceptronIndirect::saveState(util::StateWriter &writer) const
{
    pibHistory_.saveState(writer);
    pbHistory_.saveState(writer);
    candidates_.saveState(writer, saveTargetEntry);
    writer.writeVarint(tables_);
    for (std::size_t i = 0; i < tables_; ++i) {
        writer.writeVarint(rows_);
        for (std::size_t row = 0; row < rows_; ++row)
            writer.writeU8(
                static_cast<std::uint8_t>(weights_[i * rows_ + row]));
    }
}

void
PerceptronIndirect::loadState(util::StateReader &reader)
{
    pibHistory_.loadState(reader);
    pbHistory_.loadState(reader);
    candidates_.loadState(reader, loadTargetEntry);
    // The cache train() relies on: a set's live lines are its valid
    // candidates, each found under the tag of its own target.
    for (std::size_t set = 0; reader.ok() && set < candidates_.sets();
         ++set) {
        std::size_t live = 0;
        for (std::size_t way = 0; way < candidates_.ways(); ++way) {
            const TargetEntry &entry = candidates_.wayEntry(set, way);
            if (!entry.valid)
                continue;
            ++live;
            if (candidates_.peek(set, candidateTag(entry.target)) !=
                &entry) {
                reader.fail("perceptron candidate under a foreign tag");
                return;
            }
        }
        if (live != candidates_.setOccupancy(set)) {
            reader.fail("perceptron candidate cache holds a dead line");
            return;
        }
    }
    const std::uint64_t tables = reader.readVarint();
    if (reader.ok() && tables != tables_) {
        reader.fail("perceptron weight-table count mismatch");
        return;
    }
    for (std::size_t i = 0; i < tables_; ++i) {
        const std::uint64_t rows = reader.readVarint();
        if (reader.ok() && rows != rows_) {
            reader.fail("perceptron weight-table row count mismatch");
            return;
        }
        for (std::size_t row = 0; row < rows_; ++row) {
            const auto raw = static_cast<std::int8_t>(reader.readU8());
            if (reader.ok() && (raw > maxWeight_ || raw < -maxWeight_)) {
                reader.fail("perceptron weight out of range");
                return;
            }
            weights_[i * rows_ + row] = raw;
        }
    }
}

void
PerceptronIndirect::saveProbes(util::StateWriter &writer) const
{
    writer.writeU64(weightUpdates_.value());
    candidates_.saveProbes(writer);
}

void
PerceptronIndirect::loadProbes(util::StateReader &reader)
{
    weightUpdates_.set(reader.readU64());
    candidates_.loadProbes(reader);
}

void
PerceptronIndirect::snapshotProbes(obs::ProbeRegistry &registry) const
{
    registry.counter("perceptron/weight_updates", weightUpdates_);
    registry.counter("perceptron/candidate_evictions",
                     candidates_.evictions());
    registry.counter("perceptron/candidate_conflicts",
                     candidates_.conflictMisses());
}

} // namespace ibp::pred
