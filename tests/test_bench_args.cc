/**
 * @file
 * Argument parsing shared by the suite bench drivers
 * (bench/bench_util.hh): flags and positionals mix in any order, and
 * a mistyped flag stops the driver instead of being read as a trace
 * scale or thread count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace {

using ::testing::ExitedWithCode;

/** suiteOptions() over @p args (argv[0] supplied). */
ibp::sim::SuiteOptions
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench_fig6");
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    return ibp::bench::suiteOptions(static_cast<int>(argv.size()),
                                    argv.data());
}

TEST(BenchArgs, FlagsAndPositionalsMixInAnyOrder)
{
    const auto options = parse({"--resume", "0.5", "--checkpoint=p.ckpt",
                                "3", "--checkpoint-every=700"});
    EXPECT_EQ(options.traceScale, 0.5);
    EXPECT_EQ(options.threads, 3u);
    EXPECT_EQ(options.checkpointPath, "p.ckpt");
    EXPECT_EQ(options.checkpointEvery, 700u);
    EXPECT_TRUE(options.resume);
}

TEST(BenchArgs, UnknownFlagPrintsUsageAndExits)
{
    // Each of these used to be read silently as a positional: a
    // misspelt --checkpoint as the thread count, a misspelt --resume
    // as trace scale 0, and the removed --one-pass not at all.
    for (const char *typo : {"--checkpont=x", "--resme", "--one-pass"}) {
        SCOPED_TRACE(typo);
        EXPECT_EXIT(parse({"1.0", typo}), ExitedWithCode(2),
                    std::string("unknown option '") + typo +
                        "'.*usage:");
    }
}

TEST(BenchArgs, NegativeThreadCountIsStillAPositional)
{
    // A single leading dash is a (degenerate) number, not a flag.
    EXPECT_EQ(parse({"1.0", "-3"}).threads, 0u);
}

} // namespace
