#include "core/ppm_predictor.hh"

#include "util/logging.hh"

namespace ibp::core {

namespace {

std::string
variantName(PpmVariant variant)
{
    switch (variant) {
      case PpmVariant::PibOnly:      return "PPM-PIB";
      case PpmVariant::Hybrid:       return "PPM-hyb";
      case PpmVariant::HybridBiased: return "PPM-hyb-biased";
    }
    return "PPM-?";
}

} // namespace

PpmPredictor::PpmPredictor(const PpmPredictorConfig &config,
                           std::string name)
    : config_(config),
      name_(name.empty() ? variantName(config.variant)
                         : std::move(name)),
      ppm_(config.ppm),
      pbWord_(config.ppm.hash),
      pibWord_(config.ppm.hash),
      biu_(config.biu)
{
    for (unsigned kind = 0;
         kind <= static_cast<unsigned>(trace::BranchKind::Return);
         ++kind) {
        for (bool multi_target : {false, true}) {
            trace::BranchRecord record;
            record.kind = static_cast<trace::BranchKind>(kind);
            record.multiTarget = multi_target;
            unsigned streams = 0;
            if (pred::inStream(config_.pbStream, record))
                streams |= kPbStream;
            if (pred::inStream(config_.pibStream, record))
                streams |= kPibStream;
            streamTable_[membershipSlot(record.kind, multi_target)] =
                static_cast<std::uint8_t>(streams);
        }
    }
}

void
PpmPredictor::snapshotProbes(obs::ProbeRegistry &registry) const
{
    // Selection counts are architectural (always collected); the rest
    // are probe-gated and read zero in probes-off builds.
    registry.counter("ppm/select_total", selectTotal);
    registry.counter("ppm/pib_selected", pibSelected);
    registry.counter("ppm/selector_flips", selectorFlips_);
    registry.histogram("ppm/order_depth", ppm_.accessHistogram());
    registry.histogram("ppm/order_miss", ppm_.missHistogram());
    registry.histogram("ppm/order_escape", ppm_.escapeHistogram());
    if (config_.variant != PpmVariant::PibOnly) {
        registry.counter("biu/evictions", biu_.evictions());
        registry.counter("biu/high_water",
                         biu_.occupancyHighWater());
    }
}

std::uint64_t
PpmPredictor::storageBits() const
{
    std::uint64_t bits = ppm_.storageBits() + phrStorageBits(pibWord_);
    if (config_.variant != PpmVariant::PibOnly)
        bits += phrStorageBits(pbWord_) + biu_.storageBits();
    return bits;
}

void
PpmPredictor::reset()
{
    ppm_.reset();
    pbWord_.reset();
    pibWord_.reset();
    biu_.reset();
    lastPrediction = {};
    lastBiuEntry = nullptr;
    pibSelected = 0;
    selectTotal = 0;
    selectorFlips_.reset();
}

void
PpmPredictor::saveState(util::StateWriter &writer) const
{
    ppm_.saveState(writer);
    pbWord_.saveState(writer);
    pibWord_.saveState(writer);
    biu_.saveState(writer);
    pred::savePrediction(writer, lastPrediction);
    writer.writeU64(pibSelected);
    writer.writeU64(selectTotal);
    // lastBiuEntry is a transient predict()->update() pointer into the
    // BIU; checkpoints only land between full records, where it is
    // dead, so it is not serialized.
}

void
PpmPredictor::loadState(util::StateReader &reader)
{
    ppm_.loadState(reader);
    pbWord_.loadState(reader);
    pibWord_.loadState(reader);
    biu_.loadState(reader);
    pred::loadPrediction(reader, lastPrediction);
    pibSelected = reader.readU64();
    selectTotal = reader.readU64();
    lastBiuEntry = nullptr;
    if (reader.ok() && pibSelected > selectTotal)
        reader.fail("PPM selection counts inconsistent");
}

void
PpmPredictor::saveProbes(util::StateWriter &writer) const
{
    ppm_.saveProbes(writer);
    writer.writeU64(selectorFlips_.value());
    biu_.saveProbes(writer);
}

void
PpmPredictor::loadProbes(util::StateReader &reader)
{
    ppm_.loadProbes(reader);
    selectorFlips_.set(reader.readU64());
    biu_.loadProbes(reader);
}

double
PpmPredictor::pibSelectRatio() const
{
    return selectTotal == 0
               ? 0.0
               : static_cast<double>(pibSelected) /
                     static_cast<double>(selectTotal);
}

PpmPredictorConfig
paperPpmConfig(PpmVariant variant)
{
    PpmPredictorConfig config;
    config.variant = variant;
    config.ppm.hash.order = 10;
    config.ppm.hash.selectBits = 10;
    config.ppm.hash.foldBits = 5;
    config.ppm.hash.highOrderSelect = true;
    config.phrBitsPerTarget = 10; // two 100-bit PHRs
    return config;
}

} // namespace ibp::core
