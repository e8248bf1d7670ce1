/**
 * @file
 * Regenerates the paper's Table 1: dynamic benchmark characteristics.
 *
 * The paper reports, per benchmark run: the input, the total number of
 * instructions executed (millions) and the number of dynamic
 * multi-target jsr/jmp branches.  The synthetic substrate is scaled
 * down ~100-1000x from the 1998 traces (documented in DESIGN.md), so
 * absolute counts differ; the table's role — showing that MT indirect
 * branches are a small dynamic fraction yet every benchmark exercises
 * many of them — is preserved.  Extra characterization columns
 * (static MT sites, mean target arity, monomorphic fraction) support
 * the per-benchmark analyses in Section 5.
 */

#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "util/thread_pool.hh"
#include "trace/trace_stats.hh"
#include "obs/cputime.hh"
#include "workload/profiles.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    const auto options = ibp::bench::suiteOptions(argc, argv);
    const double scale = options.traceScale;
    ibp::bench::banner("Table 1: dynamic benchmark characteristics",
                       options);

    std::printf("%-10s %-4s %9s %10s %10s %7s %7s %6s\n",
                "benchmark", "lang", "instr(M)", "branches",
                "MT-ind", "sites", "arity", "mono%");

    // One task per benchmark row: generate + characterize in parallel,
    // then print in suite order off the futures.  Row contents are
    // independent of scheduling (each task owns its trace).
    struct RowOutput
    {
        ibp::trace::TraceStats stats;
        double seconds = 0;
    };
    using Clock = std::chrono::steady_clock;

    const auto suite = ibp::workload::standardSuite();
    const auto wall_start = Clock::now();
    std::vector<std::future<RowOutput>> futures;
    ibp::sim::SuiteTiming timing;
    ibp::obs::RunReport report;
    report.tool = "bench_table1";
    report.build = ibp::obs::BuildInfo::current();
    report.traceScale = scale;
    report.threads = options.threads;
    {
        ibp::util::ThreadPool pool(options.threads);
        timing.threadsUsed = pool.threadCount();
        futures.reserve(suite.size());
        for (const auto &profile : suite) {
            futures.push_back(pool.submit([&profile, scale] {
                const double cpu_start = ibp::obs::threadCpuSeconds();
                auto trace = ibp::sim::generateTrace(profile, scale);
                RowOutput output;
                output.stats = ibp::trace::characterize(trace);
                output.seconds =
                    ibp::obs::threadCpuSeconds() - cpu_start;
                return output;
            }));
        }

        for (std::size_t i = 0; i < suite.size(); ++i) {
            const auto &profile = suite[i];
            const RowOutput output = futures[i].get();
            const auto &stats = output.stats;
            timing.serialEquivalentSeconds += output.seconds;
            const auto &name = profile.fullName();
            report.scalars[name + "/branches"] =
                static_cast<double>(stats.totalBranches);
            report.scalars[name + "/mt_indirect"] =
                static_cast<double>(stats.mtIndirect);
            report.scalars[name + "/sites"] =
                static_cast<double>(stats.staticMtSites());
            report.scalars[name + "/mean_arity"] =
                stats.meanDynamicArity();
            report.scalars[name + "/mono_fraction"] =
                stats.monomorphicSiteFraction(0.95);
            const double instr_m =
                static_cast<double>(stats.approxInstructions(
                    profile.instructionsPerBranch)) /
                1e6;
            std::printf(
                "%-10s %-4s %9.1f %10llu %10llu %7zu %7.2f %6.1f\n",
                profile.fullName().c_str(), profile.language.c_str(),
                instr_m,
                static_cast<unsigned long long>(stats.totalBranches),
                static_cast<unsigned long long>(stats.mtIndirect),
                stats.staticMtSites(), stats.meanDynamicArity(),
                100.0 * stats.monomorphicSiteFraction(0.95));
        }
    }
    timing.wallSeconds =
        std::chrono::duration<double>(Clock::now() - wall_start).count();

    std::printf("\n");
    ibp::sim::printSuiteTimingFooter(std::cout, timing);
    std::printf("\nNote: instruction counts are synthetic "
                "(branches x %.0f instructions/branch at scale %.2f); "
                "the paper's traces were 100-1000x longer.\n",
                5.0, scale);

    report.wallSeconds = timing.wallSeconds;
    report.serialEquivalentSeconds = timing.serialEquivalentSeconds;
    report.threadsUsed = timing.threadsUsed;
    ibp::bench::writeRunReport(report);
    ibp::bench::writeTimelineTrace(report);
    return 0;
}
