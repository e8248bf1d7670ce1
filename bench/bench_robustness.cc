/**
 * @file
 * Seed-robustness check of the headline Figure-6 result.
 *
 * Reruns the whole suite under several workload reseedings (identical
 * program structure, different RNG streams) and reports each
 * predictor's suite average as mean +/- stddev, plus how often the
 * paper's defining ordering (PPM-hyb < Cascade < TC-PIB) holds
 * per seed.  This is the study's answer to "did you just pick a lucky
 * seed?".
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "workload/profiles.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    const auto options = ibp::bench::suiteOptions(argc, argv, 0.3);
    const unsigned seeds = 5;
    ibp::bench::banner("Robustness: Figure-6 ordering across " +
                           std::to_string(seeds) + " workload seeds",
                       options);

    const auto suite = ibp::workload::standardSuite();
    const auto predictors = ibp::sim::figure6Predictors();

    ibp::sim::SuiteTiming timing;
    const auto sweep = ibp::sim::runSeedSweep(suite, predictors,
                                              options, seeds, &timing);

    std::printf("\n%-10s %10s %8s   per-seed suite averages\n",
                "predictor", "mean%", "stddev");
    for (std::size_t c = 0; c < predictors.size(); ++c) {
        std::printf("%-10s %10.2f %8.2f  ", predictors[c].c_str(),
                    sweep.mean[c], sweep.stddev[c]);
        for (const auto &row : sweep.perSeed)
            std::printf(" %6.2f", row[c]);
        std::printf("\n");
    }

    auto column = [&](const char *name) {
        for (std::size_t c = 0; c < predictors.size(); ++c)
            if (predictors[c] == name)
                return c;
        return predictors.size();
    };
    const auto ppm = column("PPM-hyb");
    const auto cascade = column("Cascade");
    const auto tc = column("TC-PIB");
    const auto btb = column("BTB");

    int ordering_holds = 0;
    int btb_worst = 0;
    for (const auto &row : sweep.perSeed) {
        if (row[ppm] < row[cascade] && row[cascade] < row[tc])
            ++ordering_holds;
        bool worst = true;
        for (std::size_t c = 0; c < predictors.size(); ++c)
            if (row[c] > row[btb])
                worst = false;
        if (worst)
            ++btb_worst;
    }
    std::printf("\nPPM-hyb < Cascade < TC-PIB held on %d/%u seeds\n",
                ordering_holds, seeds);
    std::printf("BTB worst of the lineup on %d/%u seeds\n", btb_worst,
                seeds);
    ibp::sim::printSuiteTimingFooter(std::cout, timing);

    auto report = ibp::sim::buildSweepReport("bench_robustness",
                                             options, sweep, timing);
    report.scalars["ordering_holds"] = ordering_holds;
    report.scalars["btb_worst"] = btb_worst;
    ibp::bench::writeRunReport(report);
    ibp::bench::writeTimelineTrace(report);
    return 0;
}
