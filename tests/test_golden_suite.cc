/**
 * @file
 * Golden regression test: a fixed-seed, reduced-scale suite run whose
 * full SuiteResult is committed at tests/golden/suite_small.txt.  Both
 * the serial and the parallel runner must reproduce the fixture
 * *bit-exactly* — any intentional change to the workload substrate,
 * engine, or a predictor shows up here first and must be acknowledged
 * by regenerating the fixture.
 *
 * Regeneration escape hatch (the "--regen" knob): run the golden
 * tests with IBP_REGEN_GOLDEN=1 in the environment, e.g.
 *
 *     IBP_REGEN_GOLDEN=1 ./ibp_tests --gtest_filter='GoldenSuite.*'
 *
 * The Regenerate test (declared first, so it runs before the
 * comparisons) rewrites the fixture from a fresh serial run; without
 * the variable it is skipped.  Misses are reported with both values so
 * a legitimate change is easy to review in the fixture diff.
 *
 * The fixture stores doubles as C99 hexfloats (%a), which round-trip
 * exactly through strtod; comparisons are plain == on the parsed
 * values.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"

#ifndef IBP_GOLDEN_DIR
#error "tests/CMakeLists.txt must define IBP_GOLDEN_DIR"
#endif

namespace {

using namespace ibp::sim;

const char *const kFixturePath = IBP_GOLDEN_DIR "/suite_small.txt";

SuiteResult
runGolden(unsigned threads)
{
    GoldenMatrix golden = goldenMatrix();
    golden.options.threads = threads;
    clearTraceCache();
    return runSuite(golden.profiles, golden.predictors, golden.options);
}

struct FixtureCell
{
    std::string row;
    std::string col;
    double missPercent = 0;
    double noPredictionPercent = 0;
    std::uint64_t predictions = 0;
};

std::string
serialize(const SuiteResult &result)
{
    std::ostringstream out;
    out << "# golden suite fixture v1 — do not edit by hand;\n"
        << "# regenerate with IBP_REGEN_GOLDEN=1 (see "
           "tests/test_golden_suite.cc)\n"
        << "# profiles: perl eon gs.tig  scale 0.02  predictors: BTB "
           "TC-PIB Cascade PPM-hyb ITTAGE Perceptron\n";
    char line[256];
    for (std::size_t r = 0; r < result.rowNames.size(); ++r) {
        for (std::size_t c = 0; c < result.predictorNames.size(); ++c) {
            const CellResult &cell = result.cells[r][c];
            std::snprintf(line, sizeof(line),
                          "%s %s %a %a %" PRIu64 "\n",
                          result.rowNames[r].c_str(),
                          result.predictorNames[c].c_str(),
                          cell.missPercent, cell.noPredictionPercent,
                          cell.predictions);
            out << line;
        }
    }
    return out.str();
}

std::vector<FixtureCell>
parseFixture(std::istream &in)
{
    std::vector<FixtureCell> cells;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        FixtureCell cell;
        std::string miss, nopred;
        fields >> cell.row >> cell.col >> miss >> nopred >>
            cell.predictions;
        EXPECT_FALSE(fields.fail()) << "malformed line: " << line;
        // istream >> double rejects hexfloats; strtod parses them.
        cell.missPercent = std::strtod(miss.c_str(), nullptr);
        cell.noPredictionPercent = std::strtod(nopred.c_str(), nullptr);
        cells.push_back(cell);
    }
    return cells;
}

void
compareAgainstFixture(const SuiteResult &result, const char *label)
{
    std::ifstream in(kFixturePath);
    ASSERT_TRUE(in) << "missing fixture " << kFixturePath
                    << " — regenerate with IBP_REGEN_GOLDEN=1";
    const auto cells = parseFixture(in);
    ASSERT_EQ(cells.size(),
              result.rowNames.size() * result.predictorNames.size())
        << label;

    std::size_t index = 0;
    for (std::size_t r = 0; r < result.rowNames.size(); ++r) {
        for (std::size_t c = 0; c < result.predictorNames.size();
             ++c, ++index) {
            const FixtureCell &want = cells[index];
            const CellResult &got = result.cells[r][c];
            ASSERT_EQ(want.row, result.rowNames[r]) << label;
            ASSERT_EQ(want.col, result.predictorNames[c]) << label;
            EXPECT_EQ(want.missPercent, got.missPercent)
                << label << ": " << want.row << " x " << want.col;
            EXPECT_EQ(want.noPredictionPercent,
                      got.noPredictionPercent)
                << label << ": " << want.row << " x " << want.col;
            EXPECT_EQ(want.predictions, got.predictions)
                << label << ": " << want.row << " x " << want.col;
        }
    }
}

// Declared before the comparison tests so that a regen run updates the
// fixture first and the comparisons then validate the fresh file.
TEST(GoldenSuite, Regenerate)
{
    if (std::getenv("IBP_REGEN_GOLDEN") == nullptr)
        GTEST_SKIP()
            << "set IBP_REGEN_GOLDEN=1 to rewrite " << kFixturePath;
    const auto result = runGolden(1);
    std::ofstream out(kFixturePath);
    ASSERT_TRUE(out) << "cannot write " << kFixturePath;
    out << serialize(result);
    ASSERT_TRUE(out.good());
}

TEST(GoldenSuite, SerialRunMatchesFixture)
{
    compareAgainstFixture(runGolden(1), "serial");
}

TEST(GoldenSuite, ParallelRunMatchesFixture)
{
    compareAgainstFixture(runGolden(4), "parallel threads=4");
}

} // namespace
