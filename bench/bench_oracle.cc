/**
 * @file
 * Reproduces the Section-5 photon analysis: "an oracle predictor
 * recording complete PIB path history was able to achieve 99.1%
 * accuracy when using a path length of 8".  Sweeps the oracle path
 * length over every benchmark to bound each profile's PIB path
 * predictability.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "workload/profiles.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    const double scale = ibp::bench::traceScale(argc, argv);
    ibp::bench::banner(
        "Section 5: oracle PIB path-history predictability sweep",
        scale);

    const unsigned lengths[] = {1, 2, 4, 8, 16};
    std::vector<std::string> oracles;
    for (unsigned len : lengths)
        oracles.push_back("Oracle-PIB@" + std::to_string(len));
    ibp::sim::SuiteOptions options;
    options.traceScale = scale;
    const auto result = ibp::sim::runSuite(ibp::workload::standardSuite(),
                                           oracles, options);

    std::printf("%-10s", "benchmark");
    for (unsigned len : lengths)
        std::printf("   @%-5u", len);
    std::printf("   (misprediction %%)\n");

    double photon_at_8 = -1;
    for (std::size_t r = 0; r < result.rowNames.size(); ++r) {
        std::printf("%-10s", result.rowNames[r].c_str());
        for (std::size_t c = 0; c < oracles.size(); ++c) {
            const double miss = result.cells[r][c].missPercent;
            std::printf(" %7.2f", miss);
            if (result.rowNames[r] == "photon" && lengths[c] == 8)
                photon_at_8 = miss;
        }
        std::printf("\n");
    }

    std::printf("\nPaper: photon oracle accuracy 99.1%% at path length"
                " 8 (0.9%% misprediction).\n");
    std::printf("Measured photon @8: %.2f%% misprediction -> %s\n",
                photon_at_8,
                photon_at_8 >= 0 && photon_at_8 < 3.0 ? "MATCH (shape)"
                                                      : "off");
    return 0;
}
