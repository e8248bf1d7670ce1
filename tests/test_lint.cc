/**
 * @file
 * ibp_lint rule tests: each fixture tree under tests/lint_fixtures/
 * violates exactly one rule family, and the real source tree must
 * lint clean.  The fixtures are the executable specification of the
 * rule surface — when a rule changes, its fixture changes in the same
 * commit.
 */

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "lint.hh"

namespace {

namespace fs = std::filesystem;

using ibp::lint::Finding;
using ibp::lint::Options;
using ibp::lint::Result;

std::string
fixturePath(const std::string &name)
{
    return std::string(IBP_LINT_FIXTURES_DIR) + "/" + name;
}

Result
lintTree(const std::string &root,
         std::set<std::string> only_rules = {})
{
    Options options;
    options.root = root;
    options.onlyRules = std::move(only_rules);
    return ibp::lint::runLint(options);
}

/** rule id -> occurrence count. */
std::map<std::string, int>
ruleCounts(const Result &result)
{
    std::map<std::string, int> counts;
    for (const Finding &finding : result.findings)
        ++counts[finding.rule];
    return counts;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Copy a fixture into a scratch dir so --fix style tests can touch
 *  it.  A fresh copy per call keeps tests independent. */
fs::path
scratchCopy(const std::string &fixture, const std::string &tag)
{
    const fs::path dst =
        fs::path(::testing::TempDir()) / ("ibp_lint_" + tag);
    fs::remove_all(dst);
    fs::copy(fixturePath(fixture), dst,
             fs::copy_options::recursive);
    return dst;
}

TEST(LintFixtures, LayeringBackEdgesAndAppIncludes)
{
    const Result result = lintTree(fixturePath("bad_layering"));
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts, (std::map<std::string, int>{{"layering", 3}}));
    EXPECT_EQ(ibp::lint::exitCodeFor(result), 1);

    bool saw_back_edge = false, saw_app_include = false;
    for (const Finding &finding : result.findings) {
        saw_back_edge |=
            finding.message.find("back-edge") != std::string::npos;
        saw_app_include |=
            finding.message.find("tests/ headers") != std::string::npos;
    }
    EXPECT_TRUE(saw_back_edge);
    EXPECT_TRUE(saw_app_include);
}

TEST(LintFixtures, IncludeOrderDetected)
{
    const Result result = lintTree(fixturePath("bad_include_order"));
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"include-order", 1}}));
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/sim/thing.cc");
    EXPECT_EQ(result.findings[0].line, 5);
    EXPECT_EQ(ibp::lint::exitCodeFor(result), 1);
}

TEST(LintFixtures, IncludeOrderFixDryRunTouchesNothing)
{
    const fs::path file = fs::path(fixturePath("bad_include_order")) /
                          "src/sim/thing.cc";
    const std::string before = readFile(file);

    Options options;
    options.root = fixturePath("bad_include_order");
    options.fixDryRun = true;
    const Result result = ibp::lint::runLint(options);

    EXPECT_NE(result.fixDiff.find("+#include \"util/bitops.hh\""),
              std::string::npos)
        << result.fixDiff;
    EXPECT_EQ(readFile(file), before) << "dry run must not rewrite";
    // Findings stay unfixed, so the exit code still signals.
    EXPECT_EQ(ibp::lint::exitCodeFor(result), 1);
}

TEST(LintFixtures, IncludeOrderFixRepairsTheTree)
{
    const fs::path root = scratchCopy("bad_include_order", "fix");

    Options options;
    options.root = root.string();
    options.fix = true;
    const Result fixed = ibp::lint::runLint(options);
    ASSERT_EQ(fixed.findings.size(), 1u);
    EXPECT_TRUE(fixed.findings[0].fixed);
    // Everything repaired: the run reports success...
    EXPECT_EQ(ibp::lint::exitCodeFor(fixed), 0);
    // ...and a second run finds nothing left.
    const Result again = lintTree(root.string());
    EXPECT_TRUE(again.findings.empty());

    const std::string text = readFile(root / "src/sim/thing.cc");
    EXPECT_LT(text.find("util/bitops.hh"),
              text.find("trace/branch_record.hh"));
    EXPECT_LT(text.find("trace/branch_record.hh"),
              text.find("core/markov_table.hh"));
    EXPECT_LT(text.find("core/markov_table.hh"),
              text.find("sim/engine.hh"));
}

TEST(LintFixtures, DeterminismRandomAndClock)
{
    const Result result = lintTree(fixturePath("bad_determinism"));
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"determinism-clock", 3},
                                          {"determinism-random", 3}}));
    EXPECT_EQ(result.suppressed, 1) << "allow(determinism-random)";
    int obs_findings = 0;
    for (const Finding &finding : result.findings) {
        if (finding.file == "src/obs/clock_bad.cc") {
            // obs/ outside cputime.hh gets the variant that points at
            // the sanctioned shim.
            ++obs_findings;
            EXPECT_EQ(finding.rule, "determinism-clock");
            EXPECT_NE(finding.message.find("obs::wallSeconds()"),
                      std::string::npos);
        } else {
            EXPECT_EQ(finding.file, "src/core/det.cc")
                << "only cputime.hh may read the clock directly";
        }
    }
    EXPECT_EQ(obs_findings, 1);
}

TEST(LintFixtures, UnorderedIterationOnlyWhenDirect)
{
    const Result result = lintTree(fixturePath("bad_unordered"));
    const auto counts = ruleCounts(result);
    EXPECT_EQ(
        counts,
        (std::map<std::string, int>{{"determinism-unordered-iter", 1}}));
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_NE(result.findings[0].message.find("`counts`"),
              std::string::npos);
}

TEST(LintFixtures, TableModuloExemptsValidationAndAllows)
{
    const Result result = lintTree(fixturePath("bad_modulo"));
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"table-modulo", 1}}));
    EXPECT_EQ(result.suppressed, 1);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].line, 12);
}

TEST(LintFixtures, SerdeCoverageFlagsEachMissingOverride)
{
    const Result result =
        lintTree(fixturePath("bad_serde"), {"serde-coverage"});
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"serde-coverage", 3}}));
    std::set<std::string> methods;
    for (const Finding &finding : result.findings) {
        EXPECT_EQ(finding.file, "src/predictors/foo.hh");
        EXPECT_NE(finding.message.find("`Foo`"), std::string::npos);
        for (const char *m :
             {"saveState", "loadState", "snapshotProbes"})
            if (finding.message.find(m) != std::string::npos)
                methods.insert(m);
    }
    EXPECT_EQ(methods.size(), 3u)
        << "one finding per missing method";

    // The factory registrations were parsed from the if-chain.
    EXPECT_EQ(result.factoryPredictors,
              (std::map<std::string, std::string>{
                  {"Foo", "Foo"},
                  {"Bar", "Bar"},
                  {"Bar-strict", "Bar"}}));
}

TEST(LintFixtures, SerdeManifestDriftNewAndStale)
{
    const Result result =
        lintTree(fixturePath("bad_manifest"), {"serde-manifest"});
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"serde-manifest", 3}}));
    std::set<std::string> subjects;
    for (const Finding &finding : result.findings)
        for (const char *who : {"Widget", "Gadget", "Ghost"})
            if (finding.message.find(who) != std::string::npos)
                subjects.insert(who);
    EXPECT_EQ(subjects.size(), 3u)
        << "drift, unrecorded and stale entries each get a finding";
}

TEST(LintFixtures, NewPredictorWithPartialSerdeSurfaceTripsBothGates)
{
    // The growth failure mode: a new factory-registered predictor
    // ships with checkpointing but no probe snapshot (NewIttage) or
    // probes but no checkpointing (NewPerceptron).  Both serde gates
    // must fire — coverage for each missing override, manifest for
    // the unrecorded checkpointed class.
    const Result result = lintTree(
        fixturePath("bad_new_predictor"),
        {"serde-coverage", "serde-manifest"});
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"serde-coverage", 3},
                                          {"serde-manifest", 1}}));

    std::set<std::string> coverage;
    for (const Finding &finding : result.findings) {
        if (finding.rule == "serde-coverage") {
            EXPECT_EQ(finding.file, "src/predictors/tagged_geo.hh");
            for (const char *m :
                 {"saveState", "loadState", "snapshotProbes"})
                if (finding.message.find(m) != std::string::npos)
                    coverage.insert(std::string(m) + ":" +
                                    (finding.message.find("NewIttage") !=
                                             std::string::npos
                                         ? "NewIttage"
                                         : "NewPerceptron"));
        } else {
            EXPECT_NE(finding.message.find("NewIttage"),
                      std::string::npos)
                << "the checkpointed class is the unrecorded one";
        }
    }
    EXPECT_EQ(coverage,
              (std::set<std::string>{"snapshotProbes:NewIttage",
                                     "saveState:NewPerceptron",
                                     "loadState:NewPerceptron"}));

    // Both names were parsed out of the factory if-chain, so the
    // registration itself is visible to the coverage rule.
    EXPECT_EQ(result.factoryPredictors,
              (std::map<std::string, std::string>{
                  {"NewITTAGE", "NewIttage"},
                  {"NewPerceptron", "NewPerceptron"}}));
}

TEST(LintFixtures, SerdeManifestUpdateRepairs)
{
    const fs::path root = scratchCopy("bad_manifest", "manifest");
    Options options;
    options.root = root.string();
    options.updateManifest = true;
    const Result updated = ibp::lint::runLint(options);
    EXPECT_TRUE(updated.manifestUpdated);

    const Result again =
        lintTree(root.string(), {"serde-manifest"});
    EXPECT_TRUE(again.findings.empty())
        << "regenerated manifest must match the tree";
}

TEST(LintFixtures, ProbeNameConvention)
{
    const Result result = lintTree(fixturePath("bad_probe"));
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"probe-name", 2}}));
    for (const Finding &finding : result.findings)
        EXPECT_NE(finding.message.find("[a-z0-9_]"),
                  std::string::npos);
}

TEST(LintFixtures, IncludeGraphCycleAndMissingOwnHeader)
{
    const Result result = lintTree(fixturePath("bad_include_cycle"));
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"include-graph", 2}}));
    EXPECT_EQ(ibp::lint::exitCodeFor(result), 1);

    bool saw_cycle = false, saw_own_header = false;
    for (const Finding &finding : result.findings) {
        if (finding.message.find("include cycle") !=
            std::string::npos) {
            saw_cycle = true;
            // The cycle path names both participants.
            EXPECT_NE(finding.message.find("src/util/a.hh"),
                      std::string::npos);
            EXPECT_NE(finding.message.find("src/util/b.hh"),
                      std::string::npos);
        }
        if (finding.message.find("missing own header") !=
            std::string::npos) {
            saw_own_header = true;
            EXPECT_EQ(finding.file, "src/util/thing.cc");
            EXPECT_EQ(finding.line, 1);
        }
    }
    EXPECT_TRUE(saw_cycle);
    EXPECT_TRUE(saw_own_header);
}

TEST(LintFixtures, HotPathAllocFlagsEachSiteAndHonoursAllow)
{
    const Result result = lintTree(fixturePath("bad_hot_alloc"));
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"hot-path-alloc", 3}}));
    EXPECT_EQ(result.suppressed, 1)
        << "the annotated resize() must be suppressed, not reported";
    std::set<std::string> kinds;
    for (const Finding &finding : result.findings) {
        EXPECT_EQ(finding.file, "src/predictors/hot.cc");
        EXPECT_NE(finding.message.find("Hot::update()"),
                  std::string::npos)
            << "predict() is allocation-free and must stay clean";
        for (const char *kind :
             {"push_back", "`new`", "std::string"})
            if (finding.message.find(kind) != std::string::npos)
                kinds.insert(kind);
    }
    EXPECT_EQ(kinds.size(), 3u) << "one finding per allocation kind";
    EXPECT_EQ(ibp::lint::exitCodeFor(result), 1);
}

TEST(LintFixtures, LockDisciplineRequiresGuardOrAnnotation)
{
    const Result result = lintTree(fixturePath("bad_lock"));
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"lock-discipline", 1}}));
    ASSERT_EQ(result.findings.size(), 1u);
    // post() holds a lock_guard and drainLocked() carries
    // requires_lock(mutex_): only steal() may be flagged.
    EXPECT_EQ(result.findings[0].file, "src/util/pool.cc");
    EXPECT_NE(result.findings[0].message.find("Pool::steal()"),
              std::string::npos);
    EXPECT_NE(result.findings[0].message.find("`queue_`"),
              std::string::npos);
    EXPECT_NE(result.findings[0].message.find("`mutex_`"),
              std::string::npos);
    EXPECT_EQ(ibp::lint::exitCodeFor(result), 1);
}

TEST(LintFixtures, BudgetAccountingFlagsOverrideMemberAndManifest)
{
    const Result result =
        lintTree(fixturePath("bad_budget"), {"budget-accounting"});
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"budget-accounting", 3}}));

    bool saw_member = false, saw_override = false,
         saw_manifest = false;
    for (const Finding &finding : result.findings) {
        if (finding.message.find("`tableB_`") != std::string::npos) {
            saw_member = true;
            EXPECT_EQ(finding.file, "src/predictors/leaky.hh");
        }
        if (finding.message.find("`NoBits`") != std::string::npos) {
            saw_override = true;
            EXPECT_NE(finding.message.find("storageBits"),
                      std::string::npos);
        }
        if (finding.message.find("budget manifest missing") !=
            std::string::npos)
            saw_manifest = true;
    }
    EXPECT_TRUE(saw_member)
        << "tableA_ is counted, tableB_ is the invisible one";
    EXPECT_TRUE(saw_override);
    EXPECT_TRUE(saw_manifest);
    EXPECT_EQ(ibp::lint::exitCodeFor(result), 1);
}

TEST(LintFixtures, BudgetManifestUpdateRoundTrips)
{
    const fs::path root = scratchCopy("bad_budget", "budget");
    Options options;
    options.root = root.string();
    options.updateManifest = true;
    const Result updated = ibp::lint::runLint(options);
    EXPECT_TRUE(updated.manifestUpdated);
    EXPECT_TRUE(
        fs::exists(root / "tools/lint/budget_manifest.json"));

    // The manifest findings disappear; the structural ones (missing
    // override, unreferenced member) are not paper-overable.
    const Result again =
        lintTree(root.string(), {"budget-accounting"});
    const auto counts = ruleCounts(again);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"budget-accounting", 2}}));
    for (const Finding &finding : again.findings)
        EXPECT_EQ(finding.message.find("manifest"),
                  std::string::npos)
            << finding.message;
}

TEST(LintFixtures, BudgetManifestDetectsGeometryDrift)
{
    // Changing a member's declared type changes the pinned geometry
    // shape: the drift must be called out with both hashes.
    const fs::path root = scratchCopy("good_tree", "budget_drift");
    const fs::path header = root / "src/core/model.hh";
    std::string text = readFile(header);
    const std::string decl = "std::uint64_t table = 0;";
    const std::size_t at = text.find(decl);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, decl.size(), "std::uint32_t table = 0;");
    std::ofstream(header, std::ios::binary) << text;

    const Result result =
        lintTree(root.string(), {"budget-accounting"});
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"budget-accounting", 1}}));
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_NE(result.findings[0].message.find("shape"),
              std::string::npos);
    EXPECT_NE(result.findings[0].message.find("`Model`"),
              std::string::npos);

    // --update-manifest repairs the pin in place.
    Options options;
    options.root = root.string();
    options.updateManifest = true;
    ibp::lint::runLint(options);
    const Result again =
        lintTree(root.string(), {"budget-accounting"});
    EXPECT_TRUE(again.findings.empty());
}

TEST(LintFixtures, GoodTreeIsClean)
{
    const Result result = lintTree(fixturePath("good_tree"));
    EXPECT_TRUE(result.findings.empty()) << [&] {
        std::ostringstream out;
        ibp::lint::writeTextReport(out, result);
        return out.str();
    }();
    EXPECT_EQ(ibp::lint::exitCodeFor(result), 0);
}

TEST(LintFixtures, DeletingAnOverrideBreaksCoverage)
{
    // The acceptance property behind serde-coverage: removing one
    // serde override from an otherwise clean tree must produce a
    // lint error.
    const fs::path root = scratchCopy("good_tree", "coverage");
    const fs::path header = root / "src/core/model.hh";
    std::string text = readFile(header);
    const std::string decl =
        "    void snapshotProbes(int &registry) const override;\n";
    const std::size_t at = text.find(decl);
    ASSERT_NE(at, std::string::npos);
    text.erase(at, decl.size());
    std::ofstream(header, std::ios::binary) << text;

    const Result result = lintTree(root.string());
    const auto counts = ruleCounts(result);
    EXPECT_EQ(counts,
              (std::map<std::string, int>{{"serde-coverage", 1}}));
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_NE(result.findings[0].message.find("snapshotProbes"),
              std::string::npos);
    EXPECT_EQ(ibp::lint::exitCodeFor(result), 1);
}

// ---------------------------------------------------------------------
// The real tree

TEST(LintRealTree, LintsClean)
{
    const Result result = lintTree(IBP_LINT_SOURCE_ROOT);
    std::ostringstream report;
    ibp::lint::writeTextReport(report, result);
    EXPECT_TRUE(result.findings.empty()) << report.str();
    EXPECT_EQ(ibp::lint::exitCodeFor(result), 0);
    EXPECT_GT(result.scannedFiles.size(), 100u)
        << "scan missed most of the tree; check collectFiles()";
}

TEST(LintRealTree, FactoryRegistrationsAllCovered)
{
    const Result result = lintTree(IBP_LINT_SOURCE_ROOT);
    // Every spelled-out predictor name the factory accepts, mapped to
    // its implementing class.  A new registration must extend this
    // list (and carry the full serde surface to keep LintsClean
    // green).
    EXPECT_EQ(result.factoryPredictors.size(), 23u);
    const std::set<std::string> classes = [&] {
        std::set<std::string> out;
        for (const auto &[name, cls] : result.factoryPredictors)
            out.insert(cls);
        return out;
    }();
    EXPECT_EQ(classes,
              (std::set<std::string>{"Btb", "Btb2b", "Cascade",
                                     "Dpath", "FilteredPpm", "Gap",
                                     "Ittage", "Oracle",
                                     "PerceptronIndirect",
                                     "PpmPredictor", "TargetCache"}));

    // Checkpointed classes carry manifest hashes — including the
    // matcher workload behaviour the adversarial fuzzer added.
    for (const char *cls : {"PpmPredictor", "Cascade", "Btb",
                            "FilteredPpm", "FilterStage", "MarkovTable",
                            "MatcherBehavior", "Ittage",
                            "PerceptronIndirect"})
        EXPECT_TRUE(result.serdeHashes.count(cls))
            << cls << " lost its saveState() tracking";

    // Every factory name carries a budget geometry hash — the
    // budget manifest covers the full 23-name lineup, wildcard
    // included.
    EXPECT_EQ(result.budgetHashes.size(),
              result.factoryPredictors.size());
    EXPECT_TRUE(result.budgetHashes.count("Oracle-PIB@*"));
    // Names sharing an implementing class share a geometry shape.
    EXPECT_EQ(result.budgetHashes.at("TC-PIB"),
              result.budgetHashes.at("TC-PB"));
    EXPECT_NE(result.budgetHashes.at("BTB"),
              result.budgetHashes.at("BTB2b"));
}

TEST(LintRealTree, FixIsIdempotentOnTheFuzzerWorkloadFiles)
{
    // Scratch tree holding the adversarial-fuzzer workload sources,
    // with one include order scrambled: --fix must repair it in one
    // pass, and a second --fix pass must find nothing and rewrite
    // nothing (byte-identical files) — fix convergence on the newest
    // corner of the tree.
    const fs::path root =
        fs::path(::testing::TempDir()) / "ibp_lint_fuzz_fix";
    fs::remove_all(root);
    fs::create_directories(root / "src/workload");
    const fs::path source =
        fs::path(IBP_LINT_SOURCE_ROOT) / "src/workload";
    for (const char *name :
         {"adversarial.cc", "adversarial.hh", "kmp.cc", "kmp.hh"})
        fs::copy_file(source / name, root / "src/workload" / name);

    const fs::path victim = root / "src/workload/adversarial.cc";
    std::string text = readFile(victim);
    const std::string lower = "#include \"util/logging.hh\"\n";
    const std::string upper = "#include \"workload/behavior.hh\"\n";
    ASSERT_NE(text.find(lower + upper), std::string::npos)
        << "adversarial.cc include block changed; update this test";
    text.replace(text.find(lower + upper),
                 lower.size() + upper.size(), upper + lower);
    std::ofstream(victim, std::ios::binary) << text;

    Options options;
    options.root = root.string();
    options.onlyRules = {"include-order"};
    options.fix = true;
    const Result first = ibp::lint::runLint(options);
    ASSERT_EQ(first.findings.size(), 1u);
    EXPECT_TRUE(first.findings[0].fixed);
    EXPECT_EQ(ibp::lint::exitCodeFor(first), 0);

    const std::string after_first = readFile(victim);
    EXPECT_EQ(after_first, readFile(source / "adversarial.cc"))
        << "fix must restore the canonical include order";

    const Result second = ibp::lint::runLint(options);
    EXPECT_TRUE(second.findings.empty());
    EXPECT_EQ(readFile(victim), after_first)
        << "second --fix pass must be a byte-level no-op";
}

} // namespace
