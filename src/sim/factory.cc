#include "sim/factory.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "predictors/btb.hh"
#include "predictors/cascade.hh"
#include "predictors/dpath.hh"
#include "predictors/gap.hh"
#include "predictors/ittage.hh"
#include "predictors/oracle.hh"
#include "predictors/perceptron_indirect.hh"
#include "predictors/target_cache.hh"
#include "core/filtered_ppm.hh"
#include "core/ppm_predictor.hh"

namespace ibp::sim {

namespace {

std::size_t
scaled(std::size_t entries, double scale, std::size_t multiple = 1)
{
    const double raw = static_cast<double>(entries) * scale;
    auto n = static_cast<std::size_t>(std::llround(raw));
    n = std::max<std::size_t>(n, multiple);
    // Round down to the required multiple (associativity).
    n -= n % multiple;
    return std::max(n, multiple);
}

core::PpmPredictorConfig
scaledPpm(core::PpmVariant variant, double scale)
{
    core::PpmPredictorConfig config = core::paperPpmConfig(variant);
    if (scale != 1.0) {
        const unsigned m = config.ppm.hash.order;
        for (unsigned j = m; j >= 1; --j)
            config.ppm.tableEntries.push_back(
                scaled(std::size_t{1} << j, scale, 2));
    }
    return config;
}

pred::DpathConfig
paperDpath(double scale)
{
    pred::DpathConfig config;
    // Tagless 1K-entry PHTs, 24-bit registers, path lengths 1 and 3.
    config.shortPath = {scaled(1024, scale), 24, 24, false, 4, 12};
    config.longPath = {scaled(1024, scale), 24, 8, false, 4, 12};
    config.selectorEntries = 1024;
    return config;
}

pred::CascadeConfig
paperCascade(double scale, pred::FilterMode mode)
{
    pred::CascadeConfig config;
    config.filter = {128, 4, mode};
    // Tagged 4-way PHTs, path lengths 6 and 4.  1024 entries per PHT
    // (2176 total with the filter, ~6% over the 2K budget — erring in
    // Cascade's favour keeps the headline comparison conservative;
    // power-of-two sets also keep the interleaved index partitioned).
    config.main.shortPath = {scaled(1024, scale, 4), 24, 6, true, 4, 12};
    config.main.longPath = {scaled(1024, scale, 4), 24, 4, true, 4, 12};
    config.main.selectorEntries = 1024;
    return config;
}

pred::IttageConfig
paperIttage(double scale)
{
    pred::IttageConfig config;
    // 512-entry base + 6 tagged 256-entry components = 2048 entries
    // total, the same envelope as the 2K-entry BTB; history lengths
    // 2..64 PIB symbols reach an order of magnitude past PPM-hyb's
    // order-10 stack.
    config.baseEntries = scaled(512, scale);
    config.numComponents = 6;
    config.entriesPerComponent = scaled(256, scale);
    config.tagBits = 12;
    config.minHistory = 2;
    config.maxHistory = 64;
    config.bitsPerTarget = 4;
    return config;
}

pred::PerceptronIndirectConfig
paperPerceptron(double scale)
{
    pred::PerceptronIndirectConfig config;
    // 1024 candidate-cache entries + 4K 8-bit weights lands inside the
    // 2x band around the 2K-entry BTB2b that the fig6 budget test
    // enforces.
    config.candidateSets = scaled(256, scale);
    config.candidateWays = 4;
    config.entriesPerTable = scaled(512, scale);
    return config;
}

} // namespace

std::unique_ptr<pred::IndirectPredictor>
makePredictor(std::string_view name, const FactoryOptions &options)
{
    fatal_if(options.sizeScale < 0.01, "size scale out of range");
    const double s = options.sizeScale;

    if (name == "BTB")
        return std::make_unique<pred::Btb>(scaled(2048, s));
    if (name == "BTB2b")
        return std::make_unique<pred::Btb2b>(scaled(2048, s));

    if (name == "GAp") {
        pred::GapConfig config;
        config.numPhts = 2;
        config.entriesPerPht = scaled(1024, s);
        config.historyBits = 10;
        config.bitsPerTarget = 2;
        return std::make_unique<pred::Gap>(config);
    }

    if (name == "TC-PIB" || name == "TC-PB" || name == "TC-IND") {
        pred::TargetCacheConfig config;
        config.entries = scaled(2048, s);
        config.historyBits = 11;
        config.bitsPerTarget = 2;
        // TC-PIB records the predicted (MT jmp/jsr) stream; TC-IND is
        // the Chang et al. variant whose history also includes
        // single-target indirects and returns (ablated in
        // bench_ablation_hash); TC-PB records every branch.
        config.stream = name == "TC-PB" ? pred::StreamSel::AllBranches
                        : name == "TC-IND"
                            ? pred::StreamSel::AllIndirect
                            : pred::StreamSel::MtIndirect;
        return std::make_unique<pred::TargetCache>(
            config, std::string(name));
    }

    if (name == "Dpath")
        return std::make_unique<pred::Dpath>(paperDpath(s));

    if (name == "Cascade")
        return std::make_unique<pred::Cascade>(
            paperCascade(s, pred::FilterMode::Leaky));
    if (name == "Cascade-strict")
        return std::make_unique<pred::Cascade>(
            paperCascade(s, pred::FilterMode::Strict), "Cascade-strict");

    if (name == "PPM-hyb")
        return std::make_unique<core::PpmPredictor>(
            scaledPpm(core::PpmVariant::Hybrid, s));
    if (name == "PPM-PIB")
        return std::make_unique<core::PpmPredictor>(
            scaledPpm(core::PpmVariant::PibOnly, s));
    if (name == "PPM-hyb-biased")
        return std::make_unique<core::PpmPredictor>(
            scaledPpm(core::PpmVariant::HybridBiased, s));

    if (name == "PPM-tagged") {
        auto config = scaledPpm(core::PpmVariant::Hybrid, s);
        config.ppm.tagged = true;
        config.ppm.ways = 2;
        config.ppm.tagBits = 8;
        return std::make_unique<core::PpmPredictor>(config,
                                                    "PPM-tagged");
    }

    if (name == "PPM-gshare") {
        auto config = scaledPpm(core::PpmVariant::Hybrid, s);
        config.ppm.hash.xorPc = true;
        return std::make_unique<core::PpmPredictor>(config,
                                                    "PPM-gshare");
    }

    if (name == "PPM-low") {
        auto config = scaledPpm(core::PpmVariant::Hybrid, s);
        config.ppm.hash.highOrderSelect = false;
        return std::make_unique<core::PpmPredictor>(config, "PPM-low");
    }

    if (name == "PPM-inclusive") {
        auto config = scaledPpm(core::PpmVariant::Hybrid, s);
        config.ppm.updatePolicy = core::UpdatePolicy::All;
        return std::make_unique<core::PpmPredictor>(config,
                                                    "PPM-inclusive");
    }

    if (name == "PPM-confidence") {
        auto config = scaledPpm(core::PpmVariant::Hybrid, s);
        config.ppm.selectPolicy = core::SelectPolicy::Confidence;
        return std::make_unique<core::PpmPredictor>(config,
                                                    "PPM-confidence");
    }

    if (name == "PPM-vote2" || name == "PPM-vote4") {
        // Section 4's rejected design: multi-arc states with
        // frequency counts and majority voting.  Entries are scaled
        // down so the bit budget stays comparable to PPM-hyb.
        const unsigned arcs = name == "PPM-vote2" ? 2 : 4;
        auto config = scaledPpm(core::PpmVariant::Hybrid,
                                s / static_cast<double>(arcs));
        config.ppm.votingTargets = arcs;
        return std::make_unique<core::PpmPredictor>(
            config, std::string(name));
    }

    if (name == "Filtered-PPM") {
        core::FilteredPpmConfig config;
        config.ppm = scaledPpm(core::PpmVariant::Hybrid, s);
        return std::make_unique<core::FilteredPpm>(config,
                                                   "Filtered-PPM");
    }

    if (name == "ITTAGE")
        return std::make_unique<pred::Ittage>(paperIttage(s));

    if (name == "Perceptron")
        return std::make_unique<pred::PerceptronIndirect>(
            paperPerceptron(s));

    if (name.starts_with("Oracle-PIB@")) {
        const auto k = std::stoul(
            std::string(name.substr(std::string_view("Oracle-PIB@")
                                        .size())));
        pred::OracleConfig config;
        config.pathLength = static_cast<unsigned>(k);
        return std::make_unique<pred::Oracle>(config);
    }

    fatal("unknown predictor name: ", std::string(name));
}

bool
knownPredictor(std::string_view name)
{
    const std::vector<std::string> all = allPredictors();
    return name.starts_with("Oracle-PIB@") ||
           std::find(all.begin(), all.end(), name) != all.end();
}

std::vector<std::string>
figure6Predictors()
{
    // The paper's seven, in its order, then the post-1998 baselines
    // (ITTAGE, hashed perceptron) at the same 2K-entry budget — fig6
    // doubles as a 1998-vs-modern ablation.
    return {"BTB", "BTB2b", "GAp", "TC-PIB", "Dpath", "Cascade",
            "PPM-hyb", "ITTAGE", "Perceptron"};
}

std::vector<std::string>
figure7Predictors()
{
    // The paper's three PPM variants first (bench_fig7's shape checks
    // index them positionally), then the post-1998 baselines.
    return {"PPM-hyb", "PPM-PIB", "PPM-hyb-biased", "ITTAGE",
            "Perceptron"};
}

std::vector<std::string>
allPredictors()
{
    return {"BTB",           "BTB2b",          "GAp",
            "TC-PIB",        "TC-PB",          "TC-IND",
            "Dpath",         "Cascade",        "Cascade-strict",
            "PPM-hyb",       "PPM-PIB",        "PPM-hyb-biased",
            "PPM-tagged",    "PPM-gshare",     "PPM-low",
            "PPM-inclusive", "PPM-confidence", "PPM-vote2",
            "PPM-vote4",     "Filtered-PPM",   "ITTAGE",
            "Perceptron",    "Oracle-PIB@4"};
}

} // namespace ibp::sim
