#include "predictors/perceptron_indirect.hh"

#include "util/logging.hh"

namespace ibp::pred {

PerceptronIndirect::PerceptronIndirect(
    const PerceptronIndirectConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      maxWeight_((1 << (config.weightBits - 1)) - 1),
      half_(config.numTables / 2),
      pibHistory_(config.pibHistoryBits, config.pibBitsPerTarget,
                  StreamSel::MtIndirect),
      pbHistory_(config.pbHistoryBits, config.pbBitsPerTarget,
                 StreamSel::AllBranches),
      candidates_(config.candidateSets, config.candidateWays)
{
    fatal_if(config.numTables < 2 || config.numTables % 2 != 0,
             "perceptron needs an even table count (PIB + PB halves)");
    fatal_if(config.entriesPerTable == 0,
             "perceptron needs non-empty weight tables");
    fatal_if(config.weightBits < 2 || config.weightBits > 8,
             "perceptron weight width out of range");
    fatal_if(config.trainingThreshold < 0,
             "perceptron threshold must be non-negative");
    fatal_if(config.candidateTagBits < 2 || config.candidateTagBits > 30,
             "perceptron candidate tag width out of range");
    pibSegmentBits_ = config.pibHistoryBits / static_cast<unsigned>(half_);
    pbSegmentBits_ = config.pbHistoryBits / static_cast<unsigned>(half_);
    weights_.reserve(config.numTables);
    for (std::size_t i = 0; i < config.numTables; ++i)
        weights_.emplace_back(config.entriesPerTable);
    tableHashes_.assign(config.numTables, 0);
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
    // Half the tables read PIB-register segments, half PB-register
    // segments; the target fold is XOR-ed in per candidate, so the
    // same weights discriminate between candidates.
    const bool pib = table < half_;
    const std::uint64_t history = pib ? words.pib : words.pb;
    const unsigned segmentBits = pib ? pibSegmentBits_ : pbSegmentBits_;
    const auto lane = static_cast<unsigned>(pib ? table : table - half_);
    const std::uint64_t segment =
        util::bitsRange(history, lane * segmentBits, segmentBits);
    return (pc >> 2) ^ (segment << 1) ^ (table * 0x9E37ull);
}

std::uint64_t
PerceptronIndirect::targetFold(trace::Addr target)
{
    return util::foldXor(target >> 2, 40, 16);
}

std::uint64_t
PerceptronIndirect::featureIndex(std::size_t table, trace::Addr pc,
                                 trace::Addr target) const
{
    return weights_[table].reduce(tableHash(table, pc, words()) ^
                                  targetFold(target));
}

int
PerceptronIndirect::score(trace::Addr pc, trace::Addr target) const
{
    int sum = 0;
    for (std::size_t i = 0; i < config_.numTables; ++i)
        sum += weights_[i].at(featureIndex(i, pc, target));
    return sum;
}

int
PerceptronIndirect::weightSum(std::uint64_t fold) const
{
    int sum = 0;
    for (std::size_t i = 0; i < config_.numTables; ++i)
        sum += weights_[i].at(weights_[i].reduce(tableHashes_[i] ^ fold));
    return sum;
}

PerceptronIndirect::Scoring
PerceptronIndirect::scoreCandidates(trace::Addr pc, const PathWords &words)
{
    // No LRU touch and no state beyond the hash scratch: histories
    // only advance in observe(), so predict() stays repeatable and a
    // following train() finds every hash still current.
    for (std::size_t i = 0; i < config_.numTables; ++i)
        tableHashes_[i] = tableHash(i, pc, words);
    Scoring scoring;
    scoring.set = candidateSet(pc);
    for (std::size_t way = 0; way < candidates_.ways(); ++way) {
        const TargetEntry &candidate =
            candidates_.wayEntry(scoring.set, way);
        if (!candidate.valid)
            continue;
        const std::uint64_t fold = targetFold(candidate.target);
        const int sum = weightSum(fold);
        // Strict comparison: ties resolve to the lowest way, keeping
        // the choice deterministic under replay.
        if (!scoring.prediction.valid || sum > scoring.score) {
            scoring.prediction = {true, candidate.target};
            scoring.score = sum;
            scoring.fold = fold;
        }
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
PerceptronIndirect::adjustWeights(std::uint64_t fold, int delta)
{
    for (std::size_t i = 0; i < config_.numTables; ++i) {
        std::int8_t &weight =
            weights_[i].at(weights_[i].reduce(tableHashes_[i] ^ fold));
        int adjusted = weight + delta;
        // Saturate symmetrically so +w and -w training are mirrors.
        if (adjusted > maxWeight_)
            adjusted = maxWeight_;
        if (adjusted < -maxWeight_)
            adjusted = -maxWeight_;
        weight = static_cast<std::int8_t>(adjusted);
    }
    weightUpdates_.bump();
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
        // Both adjustments run in full, in this order: a +1 and a -1
        // landing on the same weight saturate one after the other.
        adjustWeights(mispredict ? targetFold(target) : scoring.fold, +1);
        if (prediction.valid && prediction.target != target)
            adjustWeights(scoring.fold, -1);
    }

    // Keep the candidate cache warm: promote the actual target to MRU
    // or install it over the LRU way.
    // Scoring never probes, so the slot is always rescanned.
    util::Slot slot{scoring.set, candidateTag(target)};
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
    std::uint64_t weightTableBits = 0;
    for (const auto &table : weights_)
        weightTableBits += table.size() * config_.weightBits;
    return candidateBits + weightTableBits + pibHistory_.bits() +
           pbHistory_.bits();
}

void
PerceptronIndirect::reset()
{
    pibHistory_.reset();
    pbHistory_.reset();
    candidates_.reset();
    for (auto &table : weights_)
        table.reset();
    weightUpdates_.reset();
}

namespace {

void
saveWeight(util::StateWriter &writer, const std::int8_t &weight)
{
    writer.writeU8(static_cast<std::uint8_t>(weight));
}

} // namespace

void
PerceptronIndirect::saveState(util::StateWriter &writer) const
{
    pibHistory_.saveState(writer);
    pbHistory_.saveState(writer);
    candidates_.saveState(writer, saveTargetEntry);
    writer.writeVarint(weights_.size());
    for (const auto &table : weights_)
        table.saveState(writer, saveWeight);
}

void
PerceptronIndirect::loadState(util::StateReader &reader)
{
    pibHistory_.loadState(reader);
    pbHistory_.loadState(reader);
    candidates_.loadState(reader, loadTargetEntry);
    const std::uint64_t tables = reader.readVarint();
    if (reader.ok() && tables != weights_.size()) {
        reader.fail("perceptron weight-table count mismatch");
        return;
    }
    const int bound = maxWeight_;
    for (auto &table : weights_) {
        table.loadState(reader, [bound](util::StateReader &in,
                                        std::int8_t &weight) {
            const auto raw =
                static_cast<std::int8_t>(in.readU8());
            if (in.ok() && (raw > bound || raw < -bound)) {
                in.fail("perceptron weight out of range");
                return;
            }
            weight = raw;
        });
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
