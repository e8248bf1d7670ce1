/**
 * @file
 * trace_tool — generate / convert / characterize branch-trace files.
 *
 * Usage:
 *   trace_tool gen <profile> <out.ibpt> [scale]   synthesize a trace
 *   trace_tool text <in.ibpt> <out.txt>           binary -> text
 *   trace_tool bin <in.txt> <out.ibpt>            text -> binary
 *   trace_tool stat <in.ibpt|in.txt>              Table-1-style stats
 *   trace_tool run <in.ibpt|in.txt> <predictor>   simulate one file
 *   trace_tool suite [scale] [threads]            Figure-6 matrix
 *   trace_tool list                               profiles+predictors
 *
 * `suite` replays the full benchmark x predictor matrix through the
 * suite runner; threads = 0 (default) uses hardware concurrency and
 * 1 runs a single worker.  The matrix is bit-identical for
 * every thread count — only the wall-clock footer changes.
 *
 * Trace files in the binary format start with the "IBPT" magic;
 * anything else is parsed as the text format.  This is the
 * bring-your-own-trace entry point: dump your own branch stream in
 * the one-line-per-branch text format and simulate any predictor on
 * it.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "util/logging.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "workload/profiles.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

using namespace ibp;

int
usage()
{
    std::fprintf(stderr,
                 "usage: trace_tool gen <profile> <out.ibpt> [scale]\n"
                 "       trace_tool text <in.ibpt> <out.txt>\n"
                 "       trace_tool bin <in.txt> <out.ibpt>\n"
                 "       trace_tool stat <in>\n"
                 "       trace_tool run <in> <predictor>\n"
                 "       trace_tool suite [scale] [threads]\n"
                 "       trace_tool list\n");
    return 2;
}

/** Open a trace file, sniffing binary vs text by the magic bytes. */
std::unique_ptr<trace::BranchSource>
openTrace(std::ifstream &file, const std::string &path)
{
    file.open(path, std::ios::binary);
    fatal_if(!file, "cannot open ", path);
    const int first = file.peek();
    // The binary header starts with the varint-coded magic whose first
    // byte has the continuation bit set; text lines never do.
    if (first != std::char_traits<char>::eof() && (first & 0x80))
        return std::make_unique<trace::TraceReader>(file);
    return std::make_unique<trace::TextTraceReader>(file);
}

int
cmdGen(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    const auto suite = workload::standardSuite();
    const auto smoke = workload::smokeProfile();
    const auto *profile = std::string(argv[2]) == "smoke"
                              ? &smoke
                              : workload::findProfile(suite, argv[2]);
    fatal_if(!profile, "unknown profile '", argv[2],
             "' (see: trace_tool list)");
    const double scale = argc > 4 ? std::atof(argv[4]) : 1.0;

    std::ofstream out(argv[3], std::ios::binary);
    fatal_if(!out, "cannot create ", argv[3]);
    trace::TraceWriter writer(out);
    workload::Program program = workload::synthesize(profile->program);
    const auto records = static_cast<std::uint64_t>(
        static_cast<double>(profile->records) * scale);
    sim::streamTrace(program, records, writer);
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(writer.count()),
                argv[3]);
    return 0;
}

int
cmdConvert(int argc, char **argv, bool to_text)
{
    if (argc < 4)
        return usage();
    std::ifstream in;
    auto source = openTrace(in, argv[2]);
    std::ofstream out(argv[3], std::ios::binary);
    fatal_if(!out, "cannot create ", argv[3]);
    std::uint64_t count = 0;
    if (to_text) {
        trace::TextTraceWriter writer(out);
        count = trace::pump(*source, writer);
    } else {
        trace::TraceWriter writer(out);
        count = trace::pump(*source, writer);
    }
    std::printf("converted %llu records\n",
                static_cast<unsigned long long>(count));
    return 0;
}

int
cmdStat(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::ifstream in;
    auto source = openTrace(in, argv[2]);
    trace::StatsCollector collector;
    trace::BranchRecord record;
    while (source->next(record))
        collector.push(record);
    const auto &stats = collector.stats();
    std::printf("branches        %llu\n",
                static_cast<unsigned long long>(stats.totalBranches));
    std::printf("  conditional   %llu\n",
                static_cast<unsigned long long>(stats.condBranches));
    std::printf("  uncond direct %llu\n",
                static_cast<unsigned long long>(stats.uncondDirect));
    std::printf("  jmp indirect  %llu\n",
                static_cast<unsigned long long>(stats.indirectJmp));
    std::printf("  jsr indirect  %llu\n",
                static_cast<unsigned long long>(stats.indirectJsr));
    std::printf("  returns       %llu\n",
                static_cast<unsigned long long>(stats.returns));
    std::printf("MT indirect     %llu (ST excluded: %llu)\n",
                static_cast<unsigned long long>(stats.mtIndirect),
                static_cast<unsigned long long>(stats.stIndirect));
    std::printf("static MT sites %zu, mean dynamic arity %.2f, "
                "monomorphic %.1f%%\n",
                stats.staticMtSites(), stats.meanDynamicArity(),
                100.0 * stats.monomorphicSiteFraction(0.95));
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    fatal_if(!sim::knownPredictor(argv[3]), "unknown predictor '",
             argv[3], "' (see: trace_tool list)");
    std::ifstream in;
    auto source = openTrace(in, argv[2]);
    auto predictor = sim::makePredictor(argv[3]);
    sim::Engine engine;
    const auto metrics = engine.run(*source, *predictor);
    std::printf("%s on %s:\n", predictor->name().c_str(), argv[2]);
    std::printf("  MT indirect predicted : %llu\n",
                static_cast<unsigned long long>(metrics.mtIndirect));
    std::printf("  misprediction ratio   : %.2f%%\n",
                metrics.missPercent());
    std::printf("  abstained             : %.2f%%\n",
                metrics.noPrediction.percent());
    std::printf("  RAS return misses     : %.2f%%\n",
                metrics.returnMisses.percent());
    std::printf("  storage               : %llu bits\n",
                static_cast<unsigned long long>(
                    predictor->storageBits()));
    return 0;
}

int
cmdSuite(int argc, char **argv)
{
    sim::SuiteOptions options;
    options.traceScale = argc > 2 ? std::atof(argv[2]) : 0.1;
    const long threads = argc > 3 ? std::strtol(argv[3], nullptr, 10) : 0;
    fatal_if(options.traceScale <= 0, "scale must be positive");
    fatal_if(threads < 0 || threads > 1024,
             "threads must be in [0, 1024] (0 = hardware concurrency)");
    options.threads = static_cast<unsigned>(threads);

    sim::SuiteTiming timing;
    const auto result =
        sim::runSuite(workload::standardSuite(),
                      sim::figure6Predictors(), options, &timing);
    sim::printSuiteTable(std::cout, result, &timing);
    return 0;
}

int
cmdList()
{
    std::printf("profiles:\n");
    for (const auto &profile : workload::standardSuite())
        std::printf("  %-10s %s\n", profile.fullName().c_str(),
                    profile.note.c_str());
    std::printf("predictors:\n  BTB BTB2b GAp TC-PIB TC-PB TC-IND "
                "Dpath Cascade Cascade-strict\n  PPM-hyb PPM-PIB "
                "PPM-hyb-biased PPM-tagged PPM-gshare PPM-low\n"
                "  Filtered-PPM Oracle-PIB@<k>\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "gen")
        return cmdGen(argc, argv);
    if (cmd == "text")
        return cmdConvert(argc, argv, true);
    if (cmd == "bin")
        return cmdConvert(argc, argv, false);
    if (cmd == "stat")
        return cmdStat(argc, argv);
    if (cmd == "run")
        return cmdRun(argc, argv);
    if (cmd == "suite")
        return cmdSuite(argc, argv);
    if (cmd == "list")
        return cmdList();
    return usage();
}
