/**
 * @file
 * Adversarial-fuzzer harness tests: the committed regression profiles
 * must replay their findings green, the search must be a pure function
 * of its options (thread count and rerun invariant, byte for byte),
 * the minimizer must only emit still-reproducing profiles, and the
 * profile JSON codec must round-trip canonically with every knob
 * clamped into ProfileBounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hh"
#include "workload/adversarial.hh"
#include "workload/program.hh"
#include "sim/experiment.hh"
#include "sim/fuzz.hh"

namespace {

namespace fs = std::filesystem;

using namespace ibp::sim;
using ibp::workload::adversarialSeeds;
using ibp::workload::analyticMissFloorPercent;
using ibp::workload::BenchmarkProfile;
using ibp::workload::coverageSignature;
using ibp::workload::HotSiteSpec;
using ibp::workload::loadProfileFile;
using ibp::workload::ProfileBounds;
using ibp::workload::profileFromJson;
using ibp::workload::profileToJson;
using ibp::workload::SynthesisParams;

std::vector<fs::path>
committedProfiles()
{
    std::vector<fs::path> paths;
    for (const auto &entry :
         fs::directory_iterator(IBP_REGRESSION_PROFILES_DIR))
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    return paths;
}

/** Tiny deterministic fuzz options for harness self-tests. */
FuzzOptions
tinyOptions()
{
    FuzzOptions options;
    options.seed = 7;
    options.budget = 24;
    options.records = 2'500;
    options.minimize = false;
    return options;
}

std::string
reportJson(const FuzzReport &report)
{
    std::ostringstream out;
    writeFindingsJson(out, report);
    return out.str();
}

TEST(RegressionProfiles, AtLeastOneInversionIsPinned)
{
    const auto paths = committedProfiles();
    ASSERT_FALSE(paths.empty())
        << "tests/regression_profiles/ lost its reproducers";
    bool has_inversion = false;
    for (const fs::path &path : paths)
        has_inversion |=
            path.stem().string().starts_with("inversion-");
    EXPECT_TRUE(has_inversion);
}

TEST(RegressionProfiles, EveryCommittedProfileReplaysItsFinding)
{
    // Each committed profile is named by suggestedProfileName() for
    // the finding it pins; replaying it over the full lineup must
    // reproduce a finding with exactly that name.  This is the same
    // match `ibp fuzz --known=` performs in CI.
    FuzzOptions options;
    options.records = 0; // profiles carry their own (minimized) size
    for (const fs::path &path : committedProfiles()) {
        const BenchmarkProfile profile =
            loadProfileFile(path.string());
        EXPECT_GE(profile.records, ProfileBounds::kMinRecords);
        EXPECT_LE(profile.records, ProfileBounds::kMaxRecords);

        options.records = profile.records;
        const std::vector<FuzzFinding> findings =
            evaluateProfile(profile, options);
        bool reproduced = false;
        for (const FuzzFinding &finding : findings)
            reproduced |=
                suggestedProfileName(finding) == path.stem().string();
        EXPECT_TRUE(reproduced)
            << path.filename().string() << " no longer reproduces; "
            << findings.size() << " other finding(s) seen";
    }
}

TEST(Fuzzer, ThreadCountAndRerunNeverChangeTheReport)
{
    // The seed-propagation audit: candidates get per-index split RNGs
    // and results fold in index order, so the full JSON document —
    // corpus, findings, stats — is identical for 1 worker, many
    // workers, and a rerun.
    FuzzOptions options = tinyOptions();
    options.threads = 1;
    const std::string single = reportJson(runFuzz(options));
    const std::string again = reportJson(runFuzz(options));
    options.threads = 5;
    const std::string wide = reportJson(runFuzz(options));

    EXPECT_EQ(single, again) << "rerun with equal options diverged";
    EXPECT_EQ(single, wide) << "thread count leaked into the report";
}

TEST(Fuzzer, TinyBudgetStillFindsSeededInversions)
{
    // The seed corpus alone (budget >= seed count) must surface at
    // least one ranking inversion — the families were chosen for it.
    const FuzzReport report = runFuzz(tinyOptions());
    EXPECT_EQ(report.generated, tinyOptions().budget);
    EXPECT_GT(report.evaluated, 0u);
    EXPECT_GT(report.coverageClasses, 0u);
    bool has_inversion = false;
    for (const FuzzFinding &finding : report.findings) {
        has_inversion |= finding.kind == FindingKind::RankingInversion;
        // Inversions carry the measured gap, and it honours the margin.
        if (finding.kind == FindingKind::RankingInversion) {
            EXPECT_GE(finding.margin, tinyOptions().inversionMargin);
        }
    }
    EXPECT_TRUE(has_inversion);
    // Findings are deduped: keys are unique and sorted.
    for (std::size_t i = 1; i < report.findings.size(); ++i)
        EXPECT_LT(findingKey(report.findings[i - 1]),
                  findingKey(report.findings[i]));
}

TEST(Fuzzer, MinimizedFindingsStillReproduce)
{
    FuzzOptions options = tinyOptions();
    options.budget = 16;
    options.minimize = true;
    const FuzzReport report = runFuzz(options);
    ASSERT_FALSE(report.findings.empty());
    for (const FuzzFinding &finding : report.findings) {
        EXPECT_TRUE(finding.minimized);
        options.records = finding.profile.records;
        const std::vector<FuzzFinding> replayed =
            evaluateProfile(finding.profile, options);
        bool reproduced = false;
        for (const FuzzFinding &again : replayed)
            reproduced |= findingKey(again) == findingKey(finding);
        EXPECT_TRUE(reproduced)
            << findingKey(finding) << " lost under its own profile";
    }
}

TEST(Fuzzer, SeedCorpusIsDiverseAndSynthesizable)
{
    const std::vector<BenchmarkProfile> seeds = adversarialSeeds();
    ASSERT_GE(seeds.size(), 8u) << "suite + sparse + matcher families";
    std::vector<std::uint64_t> signatures;
    for (const BenchmarkProfile &seed : seeds) {
        EXPECT_GE(seed.records, ProfileBounds::kMinRecords);
        EXPECT_LE(seed.records, ProfileBounds::kMaxRecords);
        EXPECT_LE(seed.program.sites.size(),
                  ProfileBounds::kMaxSiteSpecs);
        signatures.push_back(coverageSignature(seed.program));
        // Every seed must actually synthesize and emit records.
        const ibp::trace::TraceBuffer trace =
            generateTrace(seed, 2'000.0 /
                                    static_cast<double>(seed.records));
        EXPECT_FALSE(trace.empty()) << seed.fullName();
    }
    std::sort(signatures.begin(), signatures.end());
    EXPECT_EQ(std::adjacent_find(signatures.begin(), signatures.end()),
              signatures.end())
        << "two seeds share a coverage class; one is wasted budget";
}

TEST(Fuzzer, ProfileJsonRoundTripsCanonically)
{
    for (const BenchmarkProfile &seed : adversarialSeeds()) {
        const std::string text = profileToJson(seed);
        const BenchmarkProfile back =
            profileFromJson(ibp::util::parseJson(text));
        EXPECT_EQ(profileToJson(back), text) << seed.fullName();
    }
}

TEST(Fuzzer, ProfileDecodeClampsIntoBounds)
{
    BenchmarkProfile wild;
    wild.benchmark = "wild";
    wild.records = ProfileBounds::kMaxRecords * 1000;
    HotSiteSpec site;
    site.numTargets = 10'000;
    site.order = 1'000;
    site.noise = 7.5;
    wild.program.sites.push_back(site);

    const BenchmarkProfile tamed =
        profileFromJson(ibp::util::parseJson(profileToJson(wild)));
    EXPECT_EQ(tamed.records, ProfileBounds::kMaxRecords);
    ASSERT_FALSE(tamed.program.sites.empty());
    EXPECT_LE(tamed.program.sites[0].numTargets,
              ProfileBounds::kMaxTargets);
    EXPECT_LE(tamed.program.sites[0].order, ProfileBounds::kMaxOrder);
    EXPECT_LE(tamed.program.sites[0].noise, 1.0);
}

TEST(Oracle, AnalyticFloorMatchesHandComputedCases)
{
    using ibp::workload::BehaviorClass;
    SynthesisParams params;
    HotSiteSpec uniform;
    uniform.behavior = BehaviorClass::Uniform;
    uniform.numTargets = 4;

    // A lone 4-target uniform site: no predictor beats (T-1)/T.
    params.sites = {uniform};
    EXPECT_DOUBLE_EQ(analyticMissFloorPercent(params), 75.0);

    // A matcher site is a deterministic cycle: floor zero.
    HotSiteSpec matcher;
    matcher.behavior = BehaviorClass::Matcher;
    matcher.numTargets = 4;
    matcher.pattern = "aa";
    matcher.text = "abababab";
    params.sites = {matcher};
    EXPECT_DOUBLE_EQ(analyticMissFloorPercent(params), 0.0);

    // Mixtures weight by expected executions (count * heat).
    params.sites = {uniform, matcher};
    EXPECT_DOUBLE_EQ(analyticMissFloorPercent(params), 37.5);

    // Single-target sites are never multi-target indirect executions.
    HotSiteSpec st;
    st.numTargets = 1;
    params.sites = {st};
    EXPECT_DOUBLE_EQ(analyticMissFloorPercent(params), 0.0);
}

} // namespace
