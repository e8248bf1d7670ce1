/**
 * @file
 * The `ibp` CLI's exit-code contract, driven in-process through
 * ibp::cli::run(): 0 passed, 1 did not pass (a gate failed or an input
 * could not be read), 2 the command line is wrong.  Inputs that
 * fatal() end the process, so those paths run under EXPECT_EXIT.
 *
 * The golden round trips regenerate tests/golden/report_small.json and
 * timeline_small.json with `--emit-golden` and diff them clean against
 * the committed fixtures, as CI does with the built binary.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/serde.hh"
#include "obs/report.hh"
#include "sim/checkpoint.hh"

#include "budget_manifest.hh"
#include "cli.hh"

#ifndef IBP_GOLDEN_DIR
#error "tests/CMakeLists.txt must define IBP_GOLDEN_DIR"
#endif

namespace {

namespace fs = std::filesystem;
using namespace ibp;
using ::testing::ExitedWithCode;

const std::string kGolden = IBP_GOLDEN_DIR;
const std::string kManifest = std::string(IBP_LINT_SOURCE_ROOT) +
                              "/tools/lint/budget_manifest.json";

/** One run's exit code and both streams. */
struct Outcome
{
    int code = -1;
    std::string out;
    std::string err;
};

Outcome
ibp(std::vector<std::string> args)
{
    std::ostringstream out;
    std::ostringstream err;
    Outcome outcome;
    outcome.code = cli::run(args, out, err);
    outcome.out = out.str();
    outcome.err = err.str();
    return outcome;
}

::testing::AssertionResult
contains(const std::string &text, const std::string &needle)
{
    if (text.find(needle) != std::string::npos)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "\"" << needle << "\" not in:\n" << text;
}

/** A fresh scratch path under the test temp dir. */
std::string
scratch(const std::string &name)
{
    const fs::path path =
        fs::path(::testing::TempDir()) / ("ibp_cli_" + name);
    fs::remove_all(path);
    return path.string();
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary) << text;
}

/** A suite progress file with one completed and one in-flight cell. */
sim::SuiteProgress
sampleProgress()
{
    sim::SuiteProgress progress;
    progress.fingerprint = "suite fingerprint";
    sim::CompletedCell cell;
    cell.row = "perl";
    cell.col = "BTB";
    cell.cell.missPercent = 12.5;
    cell.cell.predictions = 1000;
    progress.cells.push_back(cell);
    progress.partial.valid = true;
    progress.partial.row = "perl";
    progress.partial.col = "PPM-hyb";
    progress.partial.cursor = 4096;
    progress.partial.predictorState = "state";
    return progress;
}

std::string
writeProgress(const std::string &name,
              const sim::SuiteProgress &progress)
{
    const std::string path = scratch(name);
    EXPECT_TRUE(sim::writeCheckpointFile(
                    path, sim::encodeSuiteProgress(progress))
                    .ok());
    return path;
}

TEST(Cli, NoOrUnknownSubcommandIsAUsageError)
{
    for (const auto &args : std::vector<std::vector<std::string>>{
             {}, {"reports"}, {"--help"}}) {
        const Outcome outcome = ibp(args);
        EXPECT_EQ(outcome.code, 2);
        EXPECT_TRUE(contains(outcome.err, "usage: ibp <subcommand>"));
    }
}

TEST(Cli, WrongArityOrUnknownFlagIsAUsageError)
{
    const std::string report = kGolden + "/report_small.json";
    const std::vector<std::vector<std::string>> cases = {
        {"report"},
        {"report", report, report},
        {"report", "--bogus"},
        {"report", "--diff", report},
        {"report", "--diff", report, report, "--bogus"},
        {"report", "--diff", report, report, "--tolerance"},
        {"report", "--emit-golden"},
        {"timeline"},
        {"timeline", "--sparkline"},
        {"timeline", "--diff", report, report, report},
        {"timeline", "--export-perfetto", report, "--out"},
        {"timeline", "--export-perfetto", report, "--bogus", "x"},
        {"checkpoint"},
        {"checkpoint", "--validate"},
        {"checkpoint", "--diff", "a.ckpt"},
        {"checkpoint", "--diff", "a.ckpt", "b.ckpt", "--ignore-probes"},
        {"checkpoint", "--bogus"},
        {"budget", "--bogus"},
        {"budget", "--manifest"},
        {"fuzz", "--bogus"},
        {"fuzz", "--seed"},
    };
    for (const auto &args : cases) {
        std::string line;
        for (const auto &arg : args)
            line += arg + " ";
        SCOPED_TRACE(line);
        const Outcome outcome = ibp(args);
        EXPECT_EQ(outcome.code, 2);
        EXPECT_TRUE(contains(outcome.err, "usage: ibp " + args[0]));
    }
}

TEST(Cli, MalformedNumbersAreUsageErrors)
{
    const std::string report = kGolden + "/report_small.json";
    for (const char *bad : {"abc", "1x", "-1", "nan", "inf", ""}) {
        SCOPED_TRACE(bad);
        for (const char *command : {"report", "timeline"})
            EXPECT_EQ(ibp({command, "--diff", report, report,
                           "--tolerance", bad})
                          .code,
                      2);
        for (const char *flag : {"--seed=", "--budget=", "--records=",
                                 "--threads=", "--margin=",
                                 "--tolerance="})
            EXPECT_EQ(ibp({"fuzz", flag + std::string(bad)}).code, 2)
                << flag;
    }
    EXPECT_EQ(ibp({"fuzz", "--budget=0"}).code, 2);
}

TEST(Cli, ReportDiffGatesOnTheTolerance)
{
    const std::string fixture = kGolden + "/report_small.json";
    const Outcome clean = ibp({"report", "--diff", fixture, fixture});
    EXPECT_EQ(clean.code, 0) << clean.out;
    EXPECT_TRUE(contains(clean.out, "no deltas beyond tolerance"));

    obs::RunReport shifted = obs::readReportFile(fixture);
    ASSERT_FALSE(shifted.cells.empty());
    shifted.cells.front().missPercent += 1.0;
    const std::string path = scratch("shifted.json");
    obs::writeReportFile(path, shifted);

    const Outcome failed =
        ibp({"report", "--diff", fixture, path, "--tolerance", "0.5"});
    EXPECT_EQ(failed.code, 1);
    EXPECT_TRUE(contains(failed.out, "FAIL"));
    EXPECT_EQ(
        ibp({"report", "--diff", fixture, path, "--tolerance", "2"}).code,
        0);
    EXPECT_EQ(ibp({"report", fixture}).code, 0);
}

TEST(Cli, TimelineDiffAndPrintouts)
{
    const std::string fixture = kGolden + "/timeline_small.json";
    EXPECT_EQ(ibp({"timeline", "--diff", fixture, fixture}).code, 0);
    EXPECT_EQ(ibp({"timeline", fixture}).code, 0);
    EXPECT_EQ(ibp({"timeline", "--sparkline", fixture}).code, 0);
    const std::string trace = scratch("trace.json");
    EXPECT_EQ(
        ibp({"timeline", "--export-perfetto", fixture, "--out", trace})
            .code,
        0);
    EXPECT_TRUE(fs::exists(trace));
}

TEST(Cli, GoldenRoundTripsDiffCleanAgainstTheFixtures)
{
    for (const char *command : {"report", "timeline"}) {
        SCOPED_TRACE(command);
        const std::string fixture =
            kGolden + "/" + command + "_small.json";
        const std::string fresh =
            scratch(std::string(command) + "_fresh.json");
        ASSERT_EQ(ibp({command, "--emit-golden", fresh}).code, 0);
        const Outcome diff = ibp({command, "--diff", fixture, fresh});
        EXPECT_EQ(diff.code, 0) << diff.out;
    }
}

TEST(Cli, CheckpointDiffValidateAndPrint)
{
    const std::string a = writeProgress("a.ckpt", sampleProgress());
    const std::string same = writeProgress("same.ckpt", sampleProgress());
    sim::SuiteProgress altered = sampleProgress();
    altered.cells.front().cell.missPercent = 13.0;
    const std::string b = writeProgress("b.ckpt", altered);

    const Outcome clean = ibp({"checkpoint", "--diff", a, same});
    EXPECT_EQ(clean.code, 0) << clean.out;
    EXPECT_TRUE(contains(clean.out, "checkpoints are equivalent"));
    const Outcome failed = ibp({"checkpoint", "--diff", a, b});
    EXPECT_EQ(failed.code, 1);
    EXPECT_TRUE(contains(failed.out, "(perl, BTB) miss% differs"));

    // CI's kill-and-resume job greps this line to time its SIGTERM.
    const Outcome printed = ibp({"checkpoint", a});
    EXPECT_EQ(printed.code, 0);
    EXPECT_TRUE(contains(printed.out, "partial cell (perl, PPM-hyb)"));
    EXPECT_EQ(ibp({"checkpoint", "--validate", a}).code, 0);

    const std::string sim = kGolden + "/checkpoint_small.bin";
    EXPECT_EQ(ibp({"checkpoint", "--validate", sim}).code, 0);
    EXPECT_EQ(ibp({"checkpoint", sim}).code, 0);
    EXPECT_EQ(ibp({"checkpoint", "--diff", sim, sim}).code, 0);
    EXPECT_EQ(ibp({"checkpoint", "--diff", sim, a}).code, 1);
}

TEST(Cli, UnreadableCheckpointsFail)
{
    std::ifstream in(kGolden + "/checkpoint_small.bin", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const std::string truncated = scratch("truncated.ckpt");
    writeText(truncated, bytes.substr(0, bytes.size() / 2));
    for (const char *mode : {"--validate", ""}) {
        std::vector<std::string> args = {"checkpoint", truncated};
        if (*mode)
            args.insert(args.begin() + 1, mode);
        const Outcome outcome = ibp(args);
        EXPECT_EQ(outcome.code, 1) << mode;
        EXPECT_TRUE(contains(outcome.err, truncated));
    }
    EXPECT_EQ(ibp({"checkpoint", scratch("missing.ckpt")}).code, 1);
}

TEST(Cli, UnreadableReportsExitOne)
{
    const std::string missing = scratch("missing.json");
    const std::string malformed = scratch("malformed.json");
    writeText(malformed, "{\"schema\": ");
    for (const std::string &path : {missing, malformed}) {
        EXPECT_EXIT(ibp({"report", path}), ExitedWithCode(1), "");
        EXPECT_EXIT(ibp({"timeline", path}), ExitedWithCode(1), "");
        EXPECT_EXIT(ibp({"report", "--diff", path, path}),
                    ExitedWithCode(1), "");
    }
}

TEST(Cli, BudgetCheckCatchesAChangedTotal)
{
    const Outcome clean = ibp({"budget", "--check", "--manifest", kManifest});
    EXPECT_EQ(clean.code, 0) << clean.err;
    EXPECT_TRUE(contains(clean.out, "23 predictors match"));

    lint::BudgetManifest manifest;
    ASSERT_TRUE(lint::readBudgetManifest(kManifest, manifest));
    manifest.predictors.at("BTB").storageBits += 1;
    const std::string path = scratch("budget_manifest.json");
    ASSERT_TRUE(lint::writeBudgetManifest(path, manifest));

    const Outcome failed = ibp({"budget", "--check", "--manifest", path});
    EXPECT_EQ(failed.code, 1);
    EXPECT_TRUE(contains(failed.err, "storage mismatch for BTB"));

    // --update records the live totals, which restores the committed
    // manifest byte for byte.
    EXPECT_EQ(ibp({"budget", "--update", "--manifest", path}).code, 0);
    std::ifstream want(kManifest, std::ios::binary);
    std::ifstream got(path, std::ios::binary);
    std::ostringstream want_text, got_text;
    want_text << want.rdbuf();
    got_text << got.rdbuf();
    EXPECT_EQ(got_text.str(), want_text.str());

    EXPECT_EQ(
        ibp({"budget", "--manifest", scratch("no_manifest.json")}).code, 1);
}

TEST(Cli, FuzzKnownGatesOnUnpinnedFindings)
{
    const std::string findings = scratch("findings.json");
    const std::string pinned = scratch("pinned");
    const std::string empty = scratch("empty");
    fs::create_directories(empty);
    const std::vector<std::string> search = {
        "fuzz", "--seed=42", "--budget=40", "--records=2000",
        "--threads=1"};

    std::vector<std::string> first = search;
    first.insert(first.end(), {"--out=" + findings,
                               "--emit-profiles=" + pinned,
                               "--known=" + empty});
    const Outcome unpinned = ibp(first);
    ASSERT_FALSE(fs::is_empty(pinned)) << "the search found nothing";
    EXPECT_EQ(unpinned.code, 1);
    EXPECT_TRUE(contains(unpinned.err, "new finding not pinned"));

    // Pinned by the first run's reproducers, the same search passes,
    // and prints the same findings document the first run wrote.
    std::vector<std::string> second = search;
    second.push_back("--known=" + pinned);
    const Outcome known = ibp(second);
    EXPECT_EQ(known.code, 0) << known.err;
    std::ifstream in(findings, std::ios::binary);
    std::ostringstream written;
    written << in.rdbuf();
    EXPECT_EQ(known.out, written.str());
}

} // namespace
