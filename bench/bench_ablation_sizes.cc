/**
 * @file
 * Table-size sensitivity sweep (paper Section 5: "We also did not
 * consider the effects of varying table sizes" — named future work).
 *
 * Scales every predictor's tables by 0.25x..4x around the paper's 2K
 * budget and reports suite-average misprediction ratios, showing
 * where each design saturates.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "workload/profiles.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    auto options = ibp::bench::suiteOptions(argc, argv, 0.5);
    ibp::bench::banner("Ablation: table-size sweep (0.25x..4x of 2K)",
                       options);

    const auto suite = ibp::workload::standardSuite();
    const double factors[] = {0.25, 0.5, 1.0, 2.0, 4.0};
    const std::vector<std::string> predictors = {
        "BTB2b", "GAp", "TC-PIB", "Dpath", "Cascade", "PPM-hyb",
    };

    std::printf("\n%-10s", "size x");
    for (const auto &name : predictors)
        std::printf(" %9s", name.c_str());
    std::printf("   (suite-average misprediction %%)\n");

    ibp::sim::SuiteTiming total;
    for (double factor : factors) {
        options.factory.sizeScale = factor;
        ibp::sim::SuiteTiming timing;
        const auto result =
            ibp::sim::runSuite(suite, predictors, options, &timing);
        total.wallSeconds += timing.wallSeconds;
        total.serialEquivalentSeconds += timing.serialEquivalentSeconds;
        total.threadsUsed = timing.threadsUsed;
        const auto averages = result.averages();
        std::printf("%-10.2f", factor);
        for (double avg : averages)
            std::printf(" %9.2f", avg);
        std::printf("\n");
    }

    std::printf("\n");
    ibp::sim::printSuiteTimingFooter(std::cout, total);
    std::printf("\nExpected shape: every predictor improves with size;"
                " path-indexed designs gain most below 1x (capacity-"
                "bound), BTBs saturate early.\n");
    return 0;
}
